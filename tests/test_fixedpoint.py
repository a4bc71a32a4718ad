import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greencell import fixedpoint, qbd
from greencell.analytics import BiasVector, average_users, bias_weights, compute_metrics, users_at_load
from greencell.config import config_from_dict
from greencell.fixedpoint import CHAIN_ELEMENTS, EPS, MAX_CHAIN_SOLVES, _next_load, solve, solve_batch
from greencell.numerics import NumericError
from greencell.optimizer import power_law_bias
from greencell.qbd import SolverError

from oracles import erlang_b, flat_bias, picard_fixed_point
from test_cli import _VALID_CONFIGS


def test_baseline_beta_one_converges(baseline_cfg):
    res = solve(baseline_cfg, power_law_bias(1.0, baseline_cfg.t_levels))
    assert res.converged
    assert res.iterations <= 100
    assert res.residual < 1e-8
    assert res.level_marginals.sum() == pytest.approx(1.0, abs=1e-12)
    assert (res.level_marginals >= 0).all()


def test_returned_fields_are_mutually_consistent(small_cfg):
    bias = power_law_bias(2.0, small_cfg.t_levels)
    res = solve(small_cfg, bias)
    np.testing.assert_allclose(
        res.users, average_users(res.level_marginals, bias, small_cfg), rtol=1e-14
    )
    np.testing.assert_allclose(
        res.level_marginals, res.chain_state.level_marginals, rtol=0, atol=0
    )
    # One further chain solve at the returned arrivals moves marginals < eps.
    params = qbd.ChainParams.from_config(small_cfg)
    ss = qbd.solve_steady_state(qbd.build_generator(params, res.users))
    assert np.abs(ss.level_marginals - res.level_marginals).max() < 1e-8


def test_arrival_map_is_the_users(small_cfg):
    """The chain's arrival rates are the users at the load, and they must be finite."""
    weights = np.array([1.0, 2.0, 4.0, 8.0])
    users = users_at_load(1.0, weights, small_cfg)
    np.testing.assert_array_equal(users / users[0], weights)
    for bad in (1e-310, math.nan):  # a subnormal load overflows the users
        with pytest.raises(NumericError, match="arrival rates are not finite"):
            users_at_load(bad, weights, small_cfg)


def test_sweep_budget_reported_not_raised(small_cfg, monkeypatch):
    monkeypatch.setattr(fixedpoint, "MAX_CHAIN_SOLVES", 1)
    res = solve(small_cfg, power_law_bias(1.0, small_cfg.t_levels))
    assert not res.converged
    assert res.iterations == 1
    # The result still carries a usable (single-sweep) operating point.
    assert res.level_marginals.sum() == pytest.approx(1.0, abs=1e-12)


def test_bias_length_must_match_levels(small_cfg):
    with pytest.raises(ValueError):
        solve(small_cfg, flat_bias(small_cfg.t_levels + 2))


def _chain_image(cfg, bias):
    """The coupling map G: marginals -> users -> arrivals -> chain marginals."""
    params = qbd.ChainParams.from_config(cfg)

    def image(x):
        rho = average_users(x, bias, cfg)
        return qbd.solve_steady_state(qbd.build_generator(params, rho)).level_marginals

    return image


def _picard(cfg, bias, start=None):
    if start is None:
        start = np.full(cfg.t_levels + 1, 1.0 / (cfg.t_levels + 1))
    return picard_fixed_point(_chain_image(cfg, bias), start, EPS, MAX_CHAIN_SOLVES)


def _ga_like_biases(t_levels, n, seed):
    """Random bias vectors as the GA draws them: B_0 = 1, the rest in [1, 64]."""
    rng = np.random.default_rng(seed)
    return [BiasVector((1.0, *np.exp(rng.uniform(0.0, math.log(64.0), t_levels))))
            for _ in range(n)]


@pytest.mark.parametrize("cfg_name", ["small_cfg", "baseline_cfg"])
def test_mixing_matches_picard(cfg_name, request):
    cfg = request.getfixturevalue(cfg_name)
    for bias in _ga_like_biases(cfg.t_levels, 12, seed=5):
        res = solve(cfg, bias)
        pi, iterations, converged, _ = _picard(cfg, bias)
        assert res.converged == converged
        assert np.abs(res.level_marginals - pi).max() <= EPS
        assert res.iterations <= iterations


def test_mixed_step_falls_back_to_plain_step():
    # A Newton point outside the bracket, with no secant history: the plain step s + f.
    assert _next_load(2.0, 0.5, 0.1, None, [1.0, 4.0]) == 2.5
    # A zero or lost slope is refused the same way.
    assert _next_load(2.0, 0.5, 0.0, None, [1.0, 4.0]) == 2.5
    assert _next_load(2.0, 0.5, math.nan, None, [1.0, 4.0]) == 2.5
    # A repeated load leaves the secant undefined.
    assert _next_load(2.0, 0.5, 0.1, (2.0, 0.7), [1.0, 4.0]) == 2.5
    # With history, the secant point comes before the plain step: slope -0.5.
    assert _next_load(2.0, 0.5, 0.1, (1.5, 0.75), [1.0, 4.0]) == 3.0
    # An accepted Newton point is taken as is.
    assert _next_load(2.0, 0.5, -0.5, None, [1.0, 4.0]) == 3.0
    # When every candidate leaves the bracket, its midpoint.
    assert _next_load(2.0, 5.0, 0.1, None, [1.0, 5.0]) == 3.0


def test_halley_point_comes_before_newton():
    # Slope -0.5 and curvature 0.5: Halley's denominator -0.5 + 0.25, so the point 4.
    assert _next_load(2.0, 0.5, -0.5, None, [1.0, 5.0], 0.5) == 4.0
    # A Halley point outside the bracket, a NaN or a zero denominator: the Newton point.
    assert _next_load(2.0, 0.5, -0.5, None, [1.0, 4.0], 0.5) == 3.0
    assert _next_load(2.0, 0.5, -0.5, None, [1.0, 5.0], math.nan) == 3.0
    assert _next_load(2.0, 0.5, -0.5, None, [1.0, 5.0], 1.0) == 3.0
    # f f'' / (2 f'^2) = -2: Halley's point 7/3 lies in the bracket but is refused.
    assert _next_load(2.0, 0.5, -0.5, None, [1.0, 5.0], -2.0) == 3.0
    # With a zero slope neither is defined: the plain step.
    assert _next_load(2.0, 0.5, 0.0, None, [1.0, 4.0], 1.0) == 2.5


@pytest.mark.parametrize("forced", ["singular", "negative"])
def test_forced_fallback_is_picard(small_cfg, monkeypatch, forced):
    """With every Newton or Halley step refused and no secant history, solve() is Picard iteration.

    The plain step s + f(s) = sum_j w_j pi_j(s) from s = sum_j w_j pi0_j is
    the Picard map on the marginals seen through the load, started from the
    closed-form battery law pi0, so both reach the same point.
    """
    real_next = fixedpoint._next_load
    calls = []

    def rigged(s, f, slope, previous, bracket, curvature):
        calls.append(s)
        # A zero slope, or one whose Newton point is the negative load -s.
        forced_slope = 0.0 if forced == "singular" else f / (2.0 * s)
        return real_next(s, f, forced_slope, None, bracket, None)

    monkeypatch.setattr(fixedpoint, "_next_load", rigged)
    bias = power_law_bias(2.0, small_cfg.t_levels)
    res = solve(small_cfg, bias)
    pi, iterations, converged, _ = _picard(small_cfg, bias, fixedpoint._battery_law(small_cfg))
    assert len(calls) == res.iterations - 1 and res.converged and converged
    assert res.iterations == iterations
    assert np.abs(res.level_marginals - pi).max() <= EPS


def test_nan_slope_falls_back_and_converges(small_cfg, monkeypatch):
    """With every slope lost, the fallback steps still reach the point."""
    bias = power_law_bias(2.0, small_cfg.t_levels)
    ref = solve(small_cfg, bias)
    pi, iterations, converged, _ = _picard(small_cfg, bias)
    real = qbd.solve_steady_state
    lost = []

    def no_slope(gen, drho=None, ddrho=None):
        ss = real(gen, drho=drho, ddrho=ddrho)
        lost.append(ss.marginal_slope.size)
        return dataclasses.replace(ss, marginal_slope=np.full_like(ss.marginal_slope, np.nan))

    monkeypatch.setattr(qbd, "solve_steady_state", no_slope)
    res = solve(small_cfg, bias)
    assert lost and res.converged and converged
    assert res.residual < EPS and res.iterations <= iterations
    assert np.abs(res.level_marginals - ref.level_marginals).max() <= EPS
    assert np.abs(res.level_marginals - pi).max() <= EPS


@settings(max_examples=100, deadline=None)
@given(raw=_VALID_CONFIGS)
def test_halley_takes_no_more_chain_solves_than_newton(raw):
    """On the CLI's fuzzed configs, the Halley first step never costs an item a chain solve."""
    cfg = config_from_dict(raw)
    biases = [power_law_bias(1.0, cfg.t_levels), power_law_bias(3.0, cfg.t_levels),
              *_ga_like_biases(cfg.t_levels, 2, seed=cfg.t_levels)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        halley = solve_batch(cfg, biases)
        real = qbd.solve_steady_state
        with mock.patch.object(qbd, "solve_steady_state", lambda gen, drho=None, ddrho=None: real(gen, drho=drho)):
            newton = solve_batch(cfg, biases)
    for got, ref in zip(halley, newton):
        if isinstance(ref, Exception):
            continue
        assert not isinstance(got, Exception)
        assert got.converged >= ref.converged and got.iterations <= ref.iterations


# A fuzzed config on which the claim above is false: for the GA-like bias
# _ga_like_biases(21, 2, seed=21)[1] the load starts at s0 = 2.690 (root 3.3036),
# where f'' < 0 makes Halley stop at 3.198 while Newton lands at 3.299.
_HALLEY_COSTS_A_SOLVE = {
    "p0_static": 1.0, "delta_p": 1.0, "p_trans": 1.0, "n_channels": 6, "t_levels": 21,
    "lambda_b": 10**0.5, "lambda_u1": 10**0.75, "lambda_p": 0.0, "lambda_u2": 0.0, "hotspot_radius": 1.0,
    "alpha": 2.25, "noise_power_dbm": -math.inf, "tau_db": 0.0, "mu": 1.0, "omega": 10**-0.5, "nu": 1.0,
    "delta_t": 1.0, "static_drain_override": 0.0,
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Halley's first step takes 5 chain solves where Newton alone takes 4")
def test_halley_can_cost_a_chain_solve():
    test_halley_takes_no_more_chain_solves_than_newton.hypothesis.inner_test(_HALLEY_COSTS_A_SOLVE)


def _bias_from_spec(spec, t_levels):
    """A power law for a float spec, a GA-like random vector for an integer seed."""
    if isinstance(spec, float):
        return power_law_bias(spec, t_levels)
    return _ga_like_biases(t_levels, 1, seed=spec)[0]


def _assert_same_point(cfg, bias, got, ref):
    """Batched and batch-of-one results agree bit for bit, metrics included."""
    assert (got.iterations, got.converged, got.residual) == (
        ref.iterations, ref.converged, ref.residual)
    for name in ("level_marginals", "users"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert np.array_equal(got.chain_state.pi, ref.chain_state.pi)
    assert got.chain_state.residual == ref.chain_state.residual
    metrics = [compute_metrics(cfg, bias, r.level_marginals, r.chain_metrics)
               for r in (got, ref)]
    for field in dataclasses.fields(metrics[0]):
        assert np.array_equal(*(getattr(m, field.name) for m in metrics), equal_nan=True), field.name


@pytest.mark.parametrize("cfg_name", ["small", "baseline"])
@settings(max_examples=20)
@given(specs=st.lists(st.one_of(st.floats(0.0, 4.0), st.integers(0, 2**32 - 1)),
                      min_size=1, max_size=12))
def test_batch_matches_batch_of_one(small_cfg, baseline_cfg, cfg_name, specs):
    cfg = small_cfg if cfg_name == "small" else baseline_cfg
    biases = [_bias_from_spec(spec, cfg.t_levels) for spec in specs]
    for bias, got in zip(biases, solve_batch(cfg, biases)):
        (ref,) = solve_batch(cfg, [bias])
        _assert_same_point(cfg, bias, got, ref)


def test_failing_item_leaves_others_unchanged(baseline_cfg, monkeypatch):
    # Every chain whose arrival rates follow the starve item's weights fails
    # as a 64-level chain at this recharge rate does on its own (the level
    # masses overflow a float), while the other items solve.
    cfg = dataclasses.replace(baseline_cfg, t_levels=56, n_channels=4, nu=1e6,
                              static_drain_override=1.0)
    starve = BiasVector((1.0,) + (1e-12,) * 56)
    shape = bias_weights(starve, cfg) / bias_weights(starve, cfg)[0]
    real = qbd.solve_steady_state

    def overflowing(gen, drho=None, ddrho=None):
        if any(np.allclose(rho / rho[0], shape) for rho in np.atleast_2d(gen.rho)):
            raise SolverError("stationary solve overflowed the float range")
        return real(gen, drho=drho, ddrho=ddrho)

    monkeypatch.setattr(qbd, "solve_steady_state", overflowing)
    biases = [power_law_bias(0.0, 56), starve, power_law_bias(2.0, 56)]
    results = solve_batch(cfg, biases)
    with pytest.raises(SolverError) as alone:
        solve(cfg, starve)
    assert type(results[1]) is SolverError
    assert str(results[1]) == str(alone.value) == "stationary solve overflowed the float range"
    for bias, got in zip(biases[::2], results[::2]):
        _assert_same_point(cfg, bias, got, solve(cfg, bias))


def test_stacks_hold_at_most_chain_elements(baseline_cfg, monkeypatch):
    sizes = []
    real = qbd.solve_steady_state

    def recording(gen, drho=None, ddrho=None):
        sizes.append(gen.diag.size * (baseline_cfg.n_channels + 1))  # block entries
        return real(gen, drho=drho, ddrho=ddrho)

    monkeypatch.setattr(qbd, "solve_steady_state", recording)
    per_item = (baseline_cfg.t_levels + 1) * (baseline_cfg.n_channels + 1) ** 2
    group = CHAIN_ELEMENTS // per_item
    biases = _ga_like_biases(baseline_cfg.t_levels, group + 3, seed=9)
    assert all(not isinstance(r, Exception) for r in solve_batch(baseline_cfg, biases))
    assert max(sizes) == group * per_item <= CHAIN_ELEMENTS
    assert sizes[0] == group * per_item and per_item * 3 in sizes


def test_absorbed_stacks_are_sized_by_kept_levels(baseline_cfg, monkeypatch):
    """With no users and no static drain the chain is absorbed at (T, 0) and folds on
    channel counts, which stop at count 1: a chain keeps 2 (T+1)^2 block entries,
    against (T+1) (N+1)^2 on battery levels, and a stack holds at most CHAIN_ELEMENTS."""
    cfg = dataclasses.replace(baseline_cfg, t_levels=40, n_channels=5, lambda_u1=0.0, lambda_u2=0.0,
                              static_drain_override=0.0)
    stacks = _count_chains(monkeypatch)
    biases = _ga_like_biases(cfg.t_levels, 50, seed=11)
    results = solve_batch(cfg, biases)
    assert stacks and max(stacks) * 2 * (cfg.t_levels + 1) ** 2 <= CHAIN_ELEMENTS
    for bias, got in zip(biases, results):
        _assert_same_point(cfg, bias, got, solve(cfg, bias))


def test_wide_cell_chains_stack(baseline_cfg, monkeypatch):
    """A 9-beta sweep at N = 100 folds along channels, blocks of T+1 states, and stacks."""
    cfg = dataclasses.replace(baseline_cfg, n_channels=100)
    channel, top, block = qbd.fold_plan(qbd.ChainParams.from_config(cfg), np.full(cfg.t_levels + 1, 1e6))
    levels = int(top) + 1  # a load of 1e6 keeps every count
    assert channel and (levels, block) == (101, 11)
    stacks = _count_chains(monkeypatch)
    biases = [power_law_bias(beta, cfg.t_levels) for beta in np.arange(0.0, 4.01, 0.5)]
    assert all(r.converged for r in solve_batch(cfg, biases))
    assert stacks[0] == 9 and len(stacks) < sum(stacks)
    assert max(stacks) * levels * block**2 <= CHAIN_ELEMENTS


def test_wide_cell_stacks_are_sized_by_kept_levels(baseline_cfg, monkeypatch):
    """At N = 200 the channel folds stop at counts 48-65, so a stack keeps at
    most 66 of 201 levels: 16 chains fit a call, and each lockstep step of the
    9-beta sweep is one call.  Sizing by all 201 levels took 6 calls."""
    cfg = dataclasses.replace(baseline_cfg, n_channels=200)
    channel, top, block = qbd.fold_plan(qbd.ChainParams.from_config(cfg), np.full(cfg.t_levels + 1, 1e6))
    levels = int(top) + 1  # a load of 1e6 keeps every count
    assert channel and (levels, block) == (201, 11) and CHAIN_ELEMENTS // (levels * block**2) == 5
    stacks = _count_chains(monkeypatch)
    biases = [power_law_bias(beta, cfg.t_levels) for beta in np.arange(0.0, 4.01, 0.5)]
    results = solve_batch(cfg, biases)
    assert stacks == [9, 8]
    assert [r.iterations for r in results] == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    tops = [np.flatnonzero(r.chain_state.pi.any(axis=0))[-1] for r in results]
    assert min(tops) == 48 and max(tops) == 65
    assert CHAIN_ELEMENTS // ((max(tops) + 1) * block**2) == 16
    for bias, got in zip(biases, results):
        _assert_same_point(cfg, bias, got, solve(cfg, bias))


def test_wide_cell_failing_item_fails_alone(baseline_cfg, monkeypatch):
    """A call on channel levels that raises is solved item by item, as on battery levels."""
    cfg = dataclasses.replace(baseline_cfg, n_channels=200)
    failing = power_law_bias(2.0, cfg.t_levels)
    shape = bias_weights(failing, cfg) / bias_weights(failing, cfg)[0]
    real = qbd.solve_steady_state

    def raising(gen, drho=None, ddrho=None):
        if any(np.allclose(rho / rho[0], shape) for rho in np.atleast_2d(gen.rho)):
            raise SolverError("stationary solve overflowed the float range")
        return real(gen, drho=drho, ddrho=ddrho)

    monkeypatch.setattr(qbd, "solve_steady_state", raising)
    biases = [power_law_bias(beta, cfg.t_levels) for beta in (0.0, 1.0, 2.0, 3.0)]
    results = solve_batch(cfg, biases)
    assert type(results[2]) is SolverError
    for k in (0, 1, 3):
        _assert_same_point(cfg, biases[k], results[k], solve(cfg, biases[k]))


def test_wide_cell_batch_matches_batch_of_one(baseline_cfg):
    """Stacked wide-cell chains stop their channel folds at different counts, and
    each item still gets the point it gets alone."""
    cfg = dataclasses.replace(baseline_cfg, n_channels=100)
    biases = _ga_like_biases(cfg.t_levels, 6, seed=21)
    results = solve_batch(cfg, biases)
    for bias, got in zip(biases, results):
        _assert_same_point(cfg, bias, got, solve(cfg, bias))
    tops = {np.flatnonzero(r.chain_state.pi.any(axis=0))[-1] for r in results}
    assert len(tops) > 1 and max(tops) < cfg.n_channels


def _count_chains(monkeypatch) -> list[int]:
    """Chains in each call of qbd.solve_steady_state from here on."""
    stacks = []
    real = qbd.solve_steady_state

    def recording(gen, drho=None, ddrho=None):
        stacks.append(gen.rho.size // gen.rho.shape[-1])
        return real(gen, drho=drho, ddrho=ddrho)

    monkeypatch.setattr(qbd, "solve_steady_state", recording)
    return stacks


def _count_passes(monkeypatch) -> list[int]:
    """Chains in each derivative pass (a slope or a curvature pass) from here on."""
    passes = []
    real = qbd._solve_through

    def recording(v, *args):
        passes.append(len(v))
        return real(v, *args)

    monkeypatch.setattr(qbd, "_solve_through", recording)
    return passes


def test_unasked_derivatives_are_never_read(baseline_cfg, monkeypatch):
    """A chain that gets no derivatives is one whose item stops on that solve: with its
    rows replaced by None, which no arithmetic accepts, every result is unchanged."""
    cases = [(baseline_cfg, [flat_bias(10), *(power_law_bias(b, 10) for b in (1.0, 2.5, 4.0)),
                             *_ga_like_biases(10, 4, seed=5)]),
             (dataclasses.replace(baseline_cfg, nu=1e6), [power_law_bias(b, 10) for b in (0.0, 3.0)]),
             (dataclasses.replace(baseline_cfg, n_channels=100, lambda_u1=200.0),
              [power_law_bias(b, 10) for b in (0.0, 2.0, 4.0)])]
    expected = [solve_batch(cfg, biases) for cfg, biases in cases]
    real = qbd.solve_steady_state
    unasked = []

    def poisoned(gen, drho=None, ddrho=None):
        asked = []
        ss = real(gen, drho=lambda m: asked.append(drho(m)) or asked[0], ddrho=ddrho)
        skip = np.isnan(asked[0]).any(axis=-1)
        unasked.append(int(skip.sum()))
        rows = {}
        for name in ("marginal_slope", "marginal_curvature"):
            if getattr(ss, name) is not None:
                assert np.isnan(getattr(ss, name)[skip]).all()
                rows[name] = [None if cut else row for row, cut in zip(getattr(ss, name), skip)]
        return dataclasses.replace(ss, **rows)

    monkeypatch.setattr(qbd, "solve_steady_state", poisoned)
    for (cfg, biases), results in zip(cases, expected):
        for bias, got, ref in zip(biases, solve_batch(cfg, biases), results):
            _assert_same_point(cfg, bias, got, ref)
    assert sum(unasked) >= sum(len(biases) for _, biases in cases)


def test_points_settled_on_their_solve_run_no_derivative_pass(baseline_cfg, monkeypatch):
    """The flat bias starts at its root; with no users, and at nu = 1e6, every point of
    beta 0, 1 and 3 settles on its first solve.  None of them reads a slope."""
    passes = _count_passes(monkeypatch)
    assert solve(baseline_cfg, flat_bias(baseline_cfg.t_levels)).iterations == 1
    for overrides in ({"lambda_u1": 0.0, "lambda_u2": 0.0}, {"nu": 1e6}):
        cfg = dataclasses.replace(baseline_cfg, **overrides)
        for beta in (0.0, 1.0, 3.0):
            assert solve(cfg, power_law_bias(beta, cfg.t_levels)).iterations == 1
    assert passes == []


def test_one_stacked_call_per_step(small_cfg, monkeypatch):
    """One stacked call per step, holding each item's own chain solves and no other."""
    stacks = _count_chains(monkeypatch)
    for betas in [(0.0, 1.0, 2.5, 4.0), (1.0, 2.5, 4.0)]:
        stacks.clear()
        biases = [power_law_bias(beta, small_cfg.t_levels) for beta in betas]
        iterations = [r.iterations for r in solve_batch(small_cfg, biases)]
        assert len(stacks) == max(iterations)
        assert sum(stacks) == sum(iterations)


def test_flat_bias_and_no_users_take_one_or_two_solves(baseline_cfg, monkeypatch):
    stacks = _count_chains(monkeypatch)
    res = solve(baseline_cfg, flat_bias(baseline_cfg.t_levels))
    assert res.converged and res.iterations == 1 and stacks == [1]
    idle = dataclasses.replace(baseline_cfg, lambda_u1=0.0, lambda_u2=0.0)
    for beta in (0.0, 1.0, 3.0):
        stacks.clear()
        res = solve(idle, power_law_bias(beta, idle.t_levels))
        assert res.converged and res.iterations <= 2 and sum(stacks) == res.iterations


def test_sweep_box_chain_solve_budget(baseline_cfg, monkeypatch):
    """The benchmark sweep's 45-point box, one request per recharge rate as `sweep` solves it."""
    stacks, passes = _count_chains(monkeypatch), _count_passes(monkeypatch)
    biases = [power_law_bias(beta, baseline_cfg.t_levels) for beta in np.arange(0.0, 4.01, 0.5)]
    for nu in (36.0, 38.0, 40.0, 42.0, 44.0):
        results = solve_batch(dataclasses.replace(baseline_cfg, nu=nu), biases)
        assert all(r.converged for r in results)
    assert sum(stacks) <= 90 and len(stacks) <= 13
    assert len(passes) <= 13


def test_sweep_box_point_by_point_chain_solve_budget(baseline_cfg, monkeypatch):
    """The same box with each point its own request, as `analyze` solves it."""
    stacks = _count_chains(monkeypatch)
    for nu in (36.0, 38.0, 40.0, 42.0, 44.0):
        cfg = dataclasses.replace(baseline_cfg, nu=nu)
        for beta in np.arange(0.0, 4.01, 0.5):
            assert solve(cfg, power_law_bias(beta, cfg.t_levels)).converged
    assert sum(stacks) <= 90


def test_corners_chain_solve_budget(baseline_cfg, monkeypatch):
    """The benchmark's stress configs at beta 0, 1 and 3, one request per point."""
    corners = [{"lambda_u1": 0.0, "lambda_u2": 0.0}, {"t_levels": 40, "n_channels": 100},
               {"nu": 1e6}, {"lambda_u1": 500.0}]
    stacks, passes = _count_chains(monkeypatch), _count_passes(monkeypatch)
    for overrides in corners:
        cfg = dataclasses.replace(baseline_cfg, **overrides)
        for beta in (0.0, 1.0, 3.0):
            assert solve(cfg, power_law_bias(beta, cfg.t_levels)).converged
    assert sum(stacks) <= 17
    assert len(passes) <= 9


@pytest.mark.parametrize("overrides", [
    {}, {"t_levels": 40, "n_channels": 100}, {"nu": 1e6}, {"lambda_u1": 500.0},
    {"lambda_u1": 0.0, "lambda_u2": 0.0}, {"nu": 1e-3}, {"static_drain_override": None},
])
def test_battery_law_is_the_geometric_law(baseline_cfg, overrides):
    """The start's law: pi_i proportional to (nu / d)^i, d the flat load's mean drain."""
    cfg = dataclasses.replace(baseline_cfg, **overrides)
    law = fixedpoint._battery_law(cfg)
    assert law.sum() == pytest.approx(1.0, abs=1e-15) and (law >= 0).all()
    a = float(users_at_load(1.0, np.ones(1), cfg)[0]) / cfg.mu
    drain = cfg.static_drain + cfg.omega * a * (1.0 - erlang_b(a, cfg.n_channels))
    ratio = cfg.nu / drain
    levels = np.arange(cfg.t_levels + 1)
    if ratio > 1.0:  # the geometric law from the top level down, where it cannot overflow
        ref = ratio ** (levels - cfg.t_levels) * (1.0 - 1.0 / ratio) / (1.0 - ratio ** -(cfg.t_levels + 1))
    else:
        ref = ratio ** levels * (1.0 - ratio) / (1.0 - ratio ** (cfg.t_levels + 1))
    np.testing.assert_allclose(law, ref, rtol=1e-12, atol=1e-300)


def _record_loads(monkeypatch) -> list[list[float]]:
    """The loads of each step's chain solves, one list per step, from here on."""
    loads = []
    real = fixedpoint._chain_images

    def recording(cfg, params, weights, step_loads, curvature):
        loads.append(step_loads)
        return real(cfg, params, weights, step_loads, curvature)

    monkeypatch.setattr(fixedpoint, "_chain_images", recording)
    return loads


@pytest.mark.parametrize("overrides", [{}, {"t_levels": 40, "n_channels": 100}, {"nu": 1e6},
                                       {"lambda_u1": 500.0}, {"lambda_u1": 0.0, "lambda_u2": 0.0}])
def test_start_lies_in_the_bracket(baseline_cfg, overrides, monkeypatch):
    cfg = dataclasses.replace(baseline_cfg, **overrides)
    loads = _record_loads(monkeypatch)
    biases = [power_law_bias(beta, cfg.t_levels) for beta in (0.0, 1.0, 3.0, 6.0)]
    biases += _ga_like_biases(cfg.t_levels, 8, seed=3)
    solve_batch(cfg, biases)
    for bias, s0 in zip(biases, loads[0]):
        w = bias_weights(bias, cfg)
        assert w.min() <= s0 <= w.max()
    assert loads[0][0] == 1.0  # a flat bias starts at its root


def test_no_users_no_drain_starts_at_the_full_battery(baseline_cfg, monkeypatch):
    """With nothing to drain the battery, the start is the point mass at level T.

    The chain itself is then absorbed at (T, 0), so the solve converges at its start.
    """
    cfg = dataclasses.replace(baseline_cfg, lambda_u1=0.0, lambda_u2=0.0, static_drain_override=0.0)
    law = fixedpoint._battery_law(cfg)
    np.testing.assert_array_equal(law, np.eye(cfg.t_levels + 1)[-1])
    loads = _record_loads(monkeypatch)
    bias = power_law_bias(1.0, cfg.t_levels)
    res = solve(cfg, bias)
    assert loads == [[bias_weights(bias, cfg)[-1]]]
    assert res.converged and res.iterations == 1
    np.testing.assert_array_equal(res.level_marginals, law)


def test_overflowing_arrivals_start_at_the_mean_weight(baseline_cfg, monkeypatch):
    cfg = dataclasses.replace(baseline_cfg, lambda_u1=1e308, lambda_b=1e-3)
    loads = _record_loads(monkeypatch)
    bias = power_law_bias(1.0, cfg.t_levels)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert fixedpoint._battery_law(cfg) is None
        with pytest.raises(NumericError, match="arrival rates are not finite"):
            solve(cfg, bias)
    assert loads == [[float(bias_weights(bias, cfg).mean())]]
