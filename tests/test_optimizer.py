import argparse
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greencell import analytics, optimizer
from greencell.analytics import BiasVector, compute_metrics
from greencell.cli import _sweep_task, cmd_sweep
from greencell.numerics import NumericError, stream
from greencell.optimizer import (
    Evaluator,
    GaConfig,
    POWER_GRID_DEFAULT,
    _crossover,
    _evaluate_individuals,
    _level_bands,
    _mutate,
    _roulette,
    _seed_population,
    compare_schemes,
    evaluate_bias,
    evaluate_biases,
    ga_optimize,
    power_law_bias,
)
from greencell.qbd import SolverError


def test_power_law_bias_values():
    assert power_law_bias(2.0, 3).values == (1.0, 4.0, 9.0, 16.0)
    assert power_law_bias(0.0, 3).values == (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        power_law_bias(-0.5, 3)
    with pytest.raises(ValueError, match="beta 400 overflows the bias of level 10"):
        power_law_bias(400.0, 10)


def test_evaluate_bias_consistency(small_cfg):
    bias = power_law_bias(1.0, small_cfg.t_levels)
    metrics, fp = evaluate_bias(small_cfg, bias)
    assert fp.converged
    direct = compute_metrics(small_cfg, bias, fp.level_marginals, fp.chain_metrics)
    assert metrics.eta_ce == pytest.approx(direct.eta_ce, rel=1e-12)
    assert metrics.p_succ == pytest.approx(direct.p_succ, rel=1e-12)


class TestSweepTask:
    def test_grid_shape_and_order(self, small_cfg):
        pairs = [p for nu in (40.0, 44.0) for p in _sweep_task((small_cfg, [0.0, 1.0], nu))]
        assert [(row["beta"], row["nu"]) for row, _ in pairs] == [
            (0.0, 40.0), (1.0, 40.0), (0.0, 44.0), (1.0, 44.0)
        ]
        assert all(row["converged"] and error is None and math.isfinite(row["e_tot"])
                   for row, error in pairs)

    def test_nu_override_changes_metrics(self, small_cfg):
        ((lo, _),), ((hi, _),) = (_sweep_task((small_cfg, [1.0], nu)) for nu in (30.0, 50.0))
        assert lo["e_tot"] > hi["e_tot"]
        assert small_cfg.nu == 40.0  # original config untouched

    def test_default_nu_comes_from_config(self, small_cfg):
        args = argparse.Namespace(betas="0.5", nus="", out="sweep.csv")
        tables, _ = cmd_sweep(args, small_cfg)
        (row,) = tables["sweep.csv"]
        assert row["nu"] == small_cfg.nu

    def test_solver_failure_is_captured(self, small_cfg, monkeypatch):
        def flaky(cfg, biases):
            return [SolverError("synthetic failure") if bias.values[-1] > 1.0 else outcome
                    for bias, outcome in zip(biases, evaluate_biases(cfg, biases))]

        monkeypatch.setattr(optimizer, "evaluate_biases", flaky)
        (ok, ok_error), (bad, bad_error) = _sweep_task((small_cfg, [0.0, 1.0], small_cfg.nu))
        assert math.isfinite(ok["e_tot"]) and ok_error is None
        assert math.isnan(bad["e_tot"]) and not bad["converged"]
        assert math.isnan(bad["iterations"]) and math.isnan(bad["residual"])
        assert "synthetic failure" in bad_error


@pytest.mark.parametrize(
    "kwargs",
    [
        {"pop_size": 1},
        {"max_iters": -1},
    ],
)
def test_ga_config_validation(kwargs):
    with pytest.raises(ValueError):
        GaConfig(**kwargs)


def test_seed_population_contents(small_cfg):
    with mock.patch.object(optimizer, "B_MIN", 1.0), mock.patch.object(optimizer, "B_MAX", 64.0):
        pop = _seed_population(small_cfg, GaConfig(pop_size=12), stream(0, 0))
    assert len(pop) == 12
    assert all(b.values[0] == 1.0 for b in pop)
    assert all(1.0 <= g <= 64.0 for b in pop for g in b.values[1:])
    # The flat (nearest-station) profile is part of the seed grid.
    assert any(b.values == (1.0,) * 4 for b in pop)
    # With T = 3 the in-bounds power laws are beta = 0 .. 3 ((T+1)^beta <= 64).
    grid = [b for beta in POWER_GRID_DEFAULT
            if all(1.0 <= (i + 1) ** beta <= 64.0 for i in range(4))
            for b in [power_law_bias(beta, 3)]]
    assert pop[: len(grid)] == grid


def test_seed_population_tight_bounds(small_cfg):
    # Bounds that exclude every non-flat power law still fill with randoms.
    with mock.patch.object(optimizer, "B_MIN", 1.0), mock.patch.object(optimizer, "B_MAX", 1.5):
        pop = _seed_population(small_cfg, GaConfig(pop_size=5), stream(3, 0))
    assert len(pop) == 5
    assert all(1.0 <= g <= 1.5 for b in pop for g in b.values[1:])


@given(seed=st.integers(0, 1000))
def test_crossover_preserves_pinned_gene_and_bounds(seed):
    rng = stream(seed, 1)
    a = BiasVector((1.0, 2.0, 3.0, 4.0))
    b = BiasVector((1.0, 20.0, 30.0, 40.0))
    with mock.patch.object(optimizer, "P_CROSSOVER", 1.0):
        c1, c2 = _crossover(rng, a, b)
    assert c1.values[0] == 1.0 and c2.values[0] == 1.0
    # Children are prefix/suffix splices of the parents at one point.
    joined = sorted(c1.values[1:] + c2.values[1:])
    assert joined == sorted(a.values[1:] + b.values[1:])


@given(seed=st.integers(0, 1000))
def test_mutation_respects_bounds(seed):
    rng = stream(seed, 2)
    with mock.patch.object(optimizer, "B_MIN", 0.5), mock.patch.object(optimizer, "B_MAX", 8.0), \
            mock.patch.object(optimizer, "P_MUTATION", 1.0):
        out = _mutate(rng, BiasVector((1.0, 2.0, 2.0, 2.0)))
    assert out.values[0] == 1.0
    assert all(0.5 <= g <= 8.0 for g in out.values[1:])
    # Exactly one gene changed.
    assert sum(g != 2.0 for g in out.values[1:]) == 1


def test_crossover_noop_without_draw():
    rng = stream(0, 5)
    a = BiasVector((1.0, 2.0))
    b = BiasVector((1.0, 3.0))
    with mock.patch.object(optimizer, "P_CROSSOVER", 0.0):
        c1, c2 = _crossover(rng, a, b)
    assert (c1, c2) == (a, b)


def test_roulette_indices_valid_and_fallback():
    rng = stream(1, 1)
    fitness = np.array([1.0, 2.0, 3.0])
    idx = _roulette(rng, fitness, 20)
    assert idx.shape == (20,)
    assert ((0 <= idx) & (idx < 3)).all()
    # Degenerate fitness falls back to uniform draws instead of dividing by 0.
    idx = _roulette(rng, np.array([-math.inf, -math.inf]), 10)
    assert ((0 <= idx) & (idx < 2)).all()


class TestGaOptimize:
    def test_tiny_run_structure_and_determinism(self, small_cfg):
        ga = GaConfig(pop_size=6, max_iters=3, seed=0)
        res1 = ga_optimize(Evaluator(small_cfg), ga)
        res2 = ga_optimize(Evaluator(small_cfg), ga)
        assert res1.best.bias == res2.best.bias
        assert res1.best.fitness == res2.best.fitness
        assert len(res1.history) == 4
        assert [h["generation"] for h in res1.history] == [0, 1, 2, 3]
        assert res1.n_evaluations == 6 + 3 * 6
        # Elitist selection: the (feasible, fitness) rank never degrades.
        keys = [(h["best_feasible"], h["best_fitness"]) for h in res1.history]
        assert all(keys[i + 1] >= keys[i] for i in range(len(keys) - 1))

    def test_seeded_start_dominates_power_grid(self, small_cfg):
        # Generation 0 already contains the power-law profiles, so the best
        # fitness starts at least at the best in-bounds power law's value.
        # At p_req 0.9 the power laws of beta 0 to 1.5 are feasible.
        cfg = dataclasses.replace(small_cfg, p_req=0.9)
        ga = GaConfig(pop_size=8, max_iters=0, seed=1)
        res = ga_optimize(Evaluator(cfg), ga)
        etas = []
        for beta in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
            metrics, fp = evaluate_bias(cfg, power_law_bias(beta, 3))
            if fp.converged and metrics.p_succ > cfg.p_req:
                etas.append(metrics.eta_ce)
        assert etas and res.best.feasible
        assert res.best.fitness >= max(etas) - 1e-9


def test_level_bands():
    assert _level_bands(10) == (3, 7)
    assert _level_bands(3) == (1, 3)
    assert _level_bands(1) == (1, 1)


def test_compare_schemes_tiny(small_cfg):
    ga = GaConfig(pop_size=6, max_iters=2, seed=0)
    (best,), history, rows = compare_schemes(small_cfg, ga)
    assert [r["scheme"].split("_beta_")[0] for r in rows] == ["nearest", "power_law", "ga"]
    nearest, power, ga_row = rows
    assert [nearest[f"bias_{i}"] for i in range(4)] == [1.0] * 4
    assert nearest["delta_e_tot_pct"] == pytest.approx(0.0, abs=1e-12)
    assert nearest["delta_eta_ce_pct"] == pytest.approx(0.0, abs=1e-12)
    for row in rows:
        if row["converged"]:
            assert row["share_low"] + row["share_mid"] + row["share_high"] == pytest.approx(1.0, abs=1e-9)
    assert len(history) == 3
    assert ga_row["feasible"] == best["feasible"]
    # Deltas agree with the raw metrics.
    assert power["delta_e_tot_pct"] == pytest.approx(
        100.0 * (1.0 - power["e_tot"] / nearest["e_tot"]), rel=1e-12
    )


def _count_calls(monkeypatch, fail_on=None):
    """Route optimizer.evaluate_biases through a recorder; returns the log of
    every bias of every call."""
    calls = []

    def recording(cfg, biases):
        calls.extend(biases)
        return [NumericError("hypergeometric series failed to converge") if bias == fail_on
                else outcome for bias, outcome in zip(biases, evaluate_biases(cfg, biases))]

    monkeypatch.setattr(optimizer, "evaluate_biases", recording)
    return calls


def _assert_same_outcome(got, ref):
    (metrics, fp), (ref_metrics, ref_fp) = got, ref
    for name in vars(ref_metrics):
        assert np.array_equal(getattr(metrics, name), getattr(ref_metrics, name)), name
    assert np.array_equal(fp.chain_state.pi, ref_fp.chain_state.pi)
    assert (fp.iterations, fp.residual) == (ref_fp.iterations, ref_fp.residual)


class TestEvaluator:
    def test_repeat_is_solved_once(self, small_cfg, monkeypatch):
        calls = _count_calls(monkeypatch)
        evaluator = Evaluator(small_cfg)
        first = evaluator(power_law_bias(1.0, small_cfg.t_levels))
        again = evaluator(power_law_bias(1.0, small_cfg.t_levels))
        assert len(calls) == 1
        assert again[0] is first[0] and again[1] is first[1]

    def test_failure_is_cached(self, small_cfg, monkeypatch):
        flat = power_law_bias(0.0, small_cfg.t_levels)
        calls = _count_calls(monkeypatch, fail_on=flat)
        evaluator = Evaluator(small_cfg)
        first = evaluator(flat)
        assert isinstance(first, NumericError)
        assert evaluator(flat) is first
        assert len(calls) == 1

    def test_numeric_error_penalizes_one_individual(self, small_cfg, monkeypatch):
        flat = power_law_bias(0.0, small_cfg.t_levels)
        _count_calls(monkeypatch, fail_on=flat)
        ga = GaConfig(pop_size=6, max_iters=2, seed=0)
        (ind,) = _evaluate_individuals(Evaluator(small_cfg), [flat])
        assert (ind.fitness, ind.feasible, ind.metrics) == (-optimizer.PENALTY, False, None)
        # The flat profile is seeded into generation 0; the run still finishes.
        res = ga_optimize(Evaluator(small_cfg), ga)
        assert res.n_evaluations == 6 * 3
        assert res.best.bias != flat

    def test_many_solves_the_misses_in_one_call(self, small_cfg, monkeypatch):
        evaluator = Evaluator(small_cfg)
        known = power_law_bias(1.0, small_cfg.t_levels)
        evaluator(known)
        batches = []
        real = optimizer.evaluate_biases
        monkeypatch.setattr(optimizer, "evaluate_biases",
                            lambda cfg, biases: batches.append(biases) or real(cfg, biases))
        request = [power_law_bias(b, small_cfg.t_levels) for b in (0.0, 1.0, 2.0, 0.0)]
        outcomes = evaluator.many(request)
        assert batches == [[request[0], request[2]]]
        assert outcomes[0] is outcomes[3] and outcomes[1] is evaluator(known)

    def test_hook_failure_is_one_outcome(self, small_cfg, monkeypatch):
        biases = [power_law_bias(b, small_cfg.t_levels) for b in (0.0, 1.0, 2.0)]
        calls = _count_calls(monkeypatch, fail_on=biases[1])
        together = Evaluator(small_cfg).many(biases)
        alone = [Evaluator(small_cfg)(b) for b in biases]
        assert calls == biases + biases
        assert type(together[1]) is type(alone[1]) is NumericError
        assert str(together[1]) == str(alone[1])
        for got, ref in zip(together[::2], alone[::2]):
            _assert_same_outcome(got, ref)

    def test_metrics_failure_leaves_the_others_unchanged(self, small_cfg, monkeypatch):
        biases = [power_law_bias(b, small_cfg.t_levels) for b in (0.0, 1.0, 2.0)]
        real = optimizer.compute_metrics

        def flaky(cfg, bias, *args):
            if bias == biases[1]:
                raise NumericError("synthetic kernel failure")
            return real(cfg, bias, *args)

        monkeypatch.setattr(optimizer, "compute_metrics", flaky)
        together = evaluate_biases(small_cfg, biases)
        with pytest.raises(NumericError) as alone:
            evaluate_bias(small_cfg, biases[1])
        assert type(together[1]) is NumericError
        assert str(together[1]) == str(alone.value) == "synthetic kernel failure"
        for bias, got in zip(biases[::2], together[::2]):
            _assert_same_outcome(got, evaluate_bias(small_cfg, bias))

    def test_outcomes_hold_no_more_than_their_arrays(self, small_cfg, monkeypatch):
        # The memo keeps every outcome, so none may pin its stacked chain solve or its
        # success grid: each array owns its memory or views a buffer of its own size.
        grids, real = [], analytics._success_grid
        monkeypatch.setattr(analytics, "_success_grid", lambda *args: grids.append(real(*args)) or grids[-1])
        outcomes = evaluate_biases(small_cfg, [power_law_bias(beta, small_cfg.t_levels) for beta in (1.0, 2.0, 3.0)])
        arrays = [a for metrics, fp in outcomes for a in (metrics.p_succ_tier, metrics.rate_tier, fp.users,
                                                          *vars(fp.chain_state).values()) if isinstance(a, np.ndarray)]
        assert len(grids) == 3 and len(arrays) >= 18
        for x in arrays:
            assert (x if x.base is None else x.base).nbytes == x.nbytes
            assert not any(np.shares_memory(x, grid) for grid in grids)

    def test_compare_schemes_solves_each_bias_once(self, small_cfg, monkeypatch):
        calls = _count_calls(monkeypatch)
        (best,), _, _ = compare_schemes(small_cfg, GaConfig(pop_size=6, max_iters=2, seed=0))
        assert len(calls) == len(set(calls))
        assert best["n_evaluations"] == 6 * 3
