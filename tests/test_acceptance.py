"""Release acceptance suite.

One test per numbered criterion; each records a PASS/FAIL summary line via
the hook in conftest and then asserts.  Criteria with runtime budgets time
themselves.  Heavyweight artifacts (fixed-point solutions, the full genetic
run, the emitted sweep CSV) are shared through module-scoped fixtures so
each expensive computation happens once.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from greencell import cli, qbd
from greencell.analytics import (
    _success_grid,
    association_split,
    average_users,
    expected_rates,
    interference_factor,
)
from greencell.montecarlo import estimate_success
from greencell.numerics import exp_power_integral
from greencell.optimizer import (
    Evaluator,
    GaConfig,
    POWER_GRID_DEFAULT,
    compare_schemes,
    evaluate_bias,
    ga_optimize,
    power_law_bias,
)

from conftest import CONFIG_PATH, record_criterion
from oracles import (
    assemble,
    dense_null_pi,
    erlang_b,
    flat_bias,
    interference_coefficient,
    midpoint,
    read_csv,
    simulate_trajectory,
    success_probability,
    z_defining_integral,
)


@pytest.fixture(scope="module")
def fp_by_beta(baseline_cfg):
    """Fixed-point solutions of the shipped config at the validation betas."""
    out = {}
    for beta in (0.0, 1.0, 2.0):
        bias = power_law_bias(beta, baseline_cfg.t_levels)
        out[beta] = (bias,) + evaluate_bias(baseline_cfg, bias)
    return out


@pytest.fixture(scope="module")
def sweep_rows(tmp_path_factory):
    """Rows of the sweep CSV as emitted by the command-line tool."""
    out = str(tmp_path_factory.mktemp("acceptance") / "sweep.csv")
    betas = ",".join(f"{0.5 * k:g}" for k in range(9))
    code = cli.main(["sweep", CONFIG_PATH, "--out", out,
                     "--betas", betas, "--nus", "36,40,44"])
    assert code == cli.EXIT_OK
    _, _, rows = read_csv(out)
    return [
        {
            "beta": float(r["beta"]),
            "nu": float(r["nu"]),
            "p_succ": float(r["p_succ"]),
            "e_tot": float(r["e_tot"]),
            "eta_ee": float(r["eta_ee"]),
            "eta_ce": float(r["eta_ce"]),
            "converged": r["converged"] == "true",
        }
        for r in rows
    ]


@pytest.fixture(scope="module")
def comparison(baseline_cfg):
    """Full scheme comparison (including the pop-50, 100-generation GA)."""
    t0 = time.perf_counter()
    result = compare_schemes(baseline_cfg)
    return result, time.perf_counter() - t0


def test_criterion_1_generator_against_dense_solver():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        params = qbd.ChainParams(
            n_channels=int(rng.integers(1, 6)),
            t_levels=int(rng.integers(0, 5)),
            mu=rng.uniform(0.2, 5.0),
            omega=rng.uniform(0.0, 3.0),
            nu=rng.uniform(0.5, 40.0),
            static_drain=rng.uniform(0.0, 40.0),
        )
        rho = rng.uniform(0.0, 15.0, size=params.t_levels + 1)
        gen = qbd.build_generator(params, rho)
        a = assemble(gen)
        off = a - np.diag(np.diag(a))
        assert off.min() >= 0.0
        assert np.abs(a.sum(axis=1)).max() < 1e-12 * max(1.0, np.abs(a).max())
        ss = qbd.solve_steady_state(gen)
        worst = max(worst, float(np.abs(ss.pi.reshape(-1) - dense_null_pi(a)).max()))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-10 and elapsed < 10.0
    record_criterion(
        1, passed,
        f"500 random chains: max |pi - dense null| = {worst:.2e} "
        f"(limit 1e-10), {elapsed:.1f}s (limit 10s)",
    )
    assert passed


def test_criterion_2_erlang_b_reduction():
    t0 = time.perf_counter()
    worst = 0.0
    for load in (0.5, 5.0, 20.0):
        for servers in (1, 5, 20):
            params = qbd.ChainParams(n_channels=servers, t_levels=0, mu=1.0,
                                     omega=0.0, nu=1.0, static_drain=0.0)
            ss = qbd.solve_steady_state(qbd.build_generator(params, [load]))
            lm = qbd.level_metrics(ss, servers)
            worst = max(worst, abs(lm.p_block[0] - erlang_b(load, servers)))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-10 and elapsed < 1.0
    record_criterion(
        2, passed,
        f"9 load/server pairs: max blocking error = {worst:.2e} "
        f"(limit 1e-10), {elapsed:.2f}s (limit 1s)",
    )
    assert passed


def test_criterion_3_trajectory_occupancy(baseline_cfg, fp_by_beta):
    _, _, fp = fp_by_beta[1.0]
    t0 = time.perf_counter()
    occ = simulate_trajectory(baseline_cfg, fp.users, 1_000_000, seed=0)
    elapsed = time.perf_counter() - t0
    tv = 0.5 * float(np.abs(occ - fp.chain_state.pi).sum())
    passed = tv < 0.02 and elapsed < 60.0
    record_criterion(
        3, passed,
        f"1e6-event trajectory: total variation = {tv:.4f} "
        f"(limit 0.02), {elapsed:.1f}s (limit 60s)",
    )
    assert passed


def test_criterion_4_coverage_closed_forms(baseline_cfg):
    t0 = time.perf_counter()
    cfg = dataclasses.replace(baseline_cfg, noise_power=0.0)
    n = cfg.t_levels + 1
    pi = np.full(n, 1.0 / n)
    bias = flat_bias(cfg.t_levels)
    occ = np.ones(n)
    _, p_tau_1 = success_probability(pi, bias, occ, cfg, tau=1.0)
    _, p_tau_01 = success_probability(pi, bias, occ, cfg, tau=0.1)
    want_1 = 1.0 / (1.0 + math.pi / 4.0)
    want_01 = 1.0 / (1.0 + math.sqrt(0.1) * math.atan(math.sqrt(0.1)))
    err_1 = abs(p_tau_1 - want_1)
    err_01 = abs(p_tau_01 - want_01)
    elapsed = time.perf_counter() - t0
    passed = err_1 < 1e-6 and err_01 < 1e-6 and elapsed < 1.0
    record_criterion(
        4, passed,
        f"closed forms: P(tau=1) = {p_tau_1:.6f} (want {want_1:.6f}), "
        f"P(tau=0.1) = {p_tau_01:.6f} (want {want_01:.6f}), errors "
        f"{err_1:.1e}/{err_01:.1e} (limit 1e-6), {elapsed:.2f}s",
    )
    assert passed


def test_criterion_5_monte_carlo_agreement(baseline_cfg, fp_by_beta):
    t0 = time.perf_counter()
    details = []
    ok = True
    analytic_values = []
    for beta in (0.0, 1.0, 2.0):
        bias, metrics, fp = fp_by_beta[beta]
        est = estimate_success(
            baseline_cfg, fp.level_marginals, bias, fp.chain_metrics.p_occu,
            100_000, seed=0,
        )
        diff = abs(metrics.p_succ - est.mean)
        ok = ok and diff < 0.01 and diff <= est.half_width_95
        analytic_values.append(metrics.p_succ)
        details.append(f"beta={beta:g}: |analytic-mc|={diff:.5f} ci={est.half_width_95:.5f}")
    peak = max(analytic_values)
    peak_ok = abs(peak - 0.96) <= 0.02
    elapsed = time.perf_counter() - t0
    passed = ok and peak_ok and elapsed < 300.0
    record_criterion(
        5, passed,
        f"1e5 drops: {'; '.join(details)}; peak P_succ = {peak:.4f} "
        f"(want 0.96 +- 0.02), {elapsed:.0f}s (limit 300s)",
    )
    assert passed


def test_criterion_6_fixed_point_box(baseline_cfg):
    from greencell.fixedpoint import solve

    t0 = time.perf_counter()
    max_iters, max_resid, all_ok = 0, 0.0, True
    for nu in (32.0, 36.0, 40.0, 44.0, 48.0):
        cfg = baseline_cfg if nu == baseline_cfg.nu else dataclasses.replace(
            baseline_cfg, nu=nu
        )
        params = qbd.ChainParams.from_config(cfg)
        for beta in np.arange(0.0, 4.01, 0.5):
            bias = power_law_bias(float(beta), cfg.t_levels)
            res = solve(cfg, bias)
            max_iters = max(max_iters, res.iterations)
            max_resid = max(max_resid, res.residual)
            all_ok = all_ok and res.converged and res.iterations <= 100
            # Returned (marginals, users) survive one explicit extra sweep.
            np.testing.assert_allclose(
                res.users, average_users(res.level_marginals, bias, cfg), rtol=1e-12
            )
            again = qbd.solve_steady_state(qbd.build_generator(params, res.users))
            all_ok = all_ok and float(
                np.abs(again.level_marginals - res.level_marginals).max()
            ) < 1e-8
    elapsed = time.perf_counter() - t0
    passed = all_ok and max_resid < 1e-8
    record_criterion(
        6, passed,
        f"45-point (beta, nu) box: all converged, max iterations = {max_iters}, "
        f"max residual = {max_resid:.2e} (limit 1e-8), {elapsed:.1f}s",
    )
    assert passed


def test_criterion_7_sweep_csv_shapes(baseline_cfg, sweep_rows):
    nus = sorted({r["nu"] for r in sweep_rows})
    betas = sorted({r["beta"] for r in sweep_rows})
    by_nu = {nu: sorted((r for r in sweep_rows if r["nu"] == nu),
                        key=lambda r: r["beta"]) for nu in nus}
    ok = all(r["converged"] for r in sweep_rows)

    for nu in nus:
        rows = by_nu[nu]
        for key in ("p_succ", "e_tot", "eta_ee"):
            vals = [r[key] for r in rows]
            ok = ok and all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))

    base_rows = by_nu[baseline_cfg.nu]
    ce = [r["eta_ce"] for r in base_rows]
    k_star = int(np.argmax(ce))
    beta_star = base_rows[k_star]["beta"]
    interior = 0 < k_star < len(ce) - 1

    for beta in betas:
        col = sorted((r for r in sweep_rows if r["beta"] == beta), key=lambda r: r["nu"])
        e = [r["e_tot"] for r in col]
        ok = ok and all(e[i + 1] < e[i] for i in range(len(e) - 1))
        p = [r["p_succ"] for r in col]
        if beta == 0.0:
            # Flat bias decouples occupancy from the battery level, so the
            # recharge rate cannot move the coverage probability.
            ok = ok and max(p) - min(p) < 1e-9
        else:
            ok = ok and all(p[i + 1] > p[i] for i in range(len(p) - 1))

    passed = ok and interior
    record_criterion(
        7, passed,
        f"emitted sweep CSV: beta-monotone P_succ/e_tot/eta_ee at each nu, "
        f"eta_ce interior max at beta* = {beta_star:g}, nu-monotone e_tot "
        f"and P_succ (constant at beta = 0)",
    )
    assert passed


def test_criterion_8_ga_against_grid(baseline_cfg, comparison):
    ((best,), history, _), wall = comparison

    grid_best = -math.inf
    grid = [power_law_bias(beta, baseline_cfg.t_levels) for beta in POWER_GRID_DEFAULT]
    for outcome in Evaluator(baseline_cfg).many(grid):
        if isinstance(outcome, Exception):
            continue
        m, fp = outcome
        if fp.converged and m.p_succ > baseline_cfg.p_req:
            grid_best = max(grid_best, m.eta_ce)

    keys = [(h["best_feasible"], h["best_fitness"]) for h in history]
    monotone = all(keys[i + 1] >= keys[i] for i in range(len(keys) - 1))

    small = GaConfig(pop_size=8, max_iters=2, seed=1)
    rerun_a = ga_optimize(Evaluator(baseline_cfg), small)
    rerun_b = ga_optimize(Evaluator(baseline_cfg), small)
    deterministic = (
        rerun_a.best.bias == rerun_b.best.bias
        and rerun_a.best.fitness == rerun_b.best.fitness
    )

    passed = (
        best["feasible"]
        and not math.isnan(best["p_succ"])
        and best["p_succ"] > 0.95
        and best["fitness"] >= grid_best - 1e-9
        and monotone
        and deterministic
        and wall < 1800.0
    )
    record_criterion(
        8, passed,
        f"GA best eta_ce = {best['fitness']:.1f} vs grid best {grid_best:.1f}, "
        f"P_succ = {best['p_succ']:.4f} (> 0.95), history monotone, "
        f"seed-deterministic, {wall:.0f}s (limit 1800s)",
    )
    assert passed


def test_criterion_9_scheme_ordering(comparison):
    (_, _, rows), _ = comparison
    nearest, power, ga_row = rows
    ok = all(not math.isnan(r["e_tot"]) and r["converged"] for r in rows)
    if ok:
        slack = 1e-12
        e_near, e_pl, e_ga = (r["e_tot"] for r in rows)
        c_near, c_pl, c_ga = (r["eta_ce"] for r in rows)
        ok = (
            e_ga <= e_pl * (1 + slack)
            and e_pl <= e_near * (1 + slack)
            and c_ga >= c_pl * (1 - slack)
            and c_pl >= c_near * (1 - slack)
        )
    reduction = ga_row["delta_e_tot_pct"]
    gain = ga_row["delta_eta_ce_pct"]
    in_band = (
        not math.isnan(reduction) and not math.isnan(gain)
        and 0.0 < reduction < 30.0 and 0.0 < gain < 30.0
    )
    passed = ok and in_band
    record_criterion(
        9, passed,
        f"orderings hold ({power['scheme']} as best grid scheme); GA vs nearest: "
        f"carbon reduction = {reduction:.2f}%, efficiency gain = {gain:.2f}% "
        f"(required in (0%, 30%))",
    )
    assert passed


def test_criterion_10_quadrature_oracles(baseline_cfg, fp_by_beta):
    rng = np.random.default_rng(0)
    worst_z = 0.0
    for _ in range(100):
        tau = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        alpha = float(rng.uniform(3.0, 6.0))
        b = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
        ref = z_defining_integral(tau, alpha, b, n=100_000)
        worst_z = max(worst_z, abs(interference_factor(tau, alpha, b) - ref) / abs(ref))

    # Success-probability integral at a strongly noisy operating point.
    cfg = dataclasses.replace(baseline_cfg, noise_power=0.5, tau=1.0)
    n = cfg.t_levels + 1
    pi = np.full(n, 1.0 / n)
    bias = power_law_bias(1.0, cfg.t_levels)
    occ = np.full(n, 0.4)
    i = 2
    b_arr = bias.as_array()
    lam = cfg.lambda_b * pi
    ratios = b_arr / b_arr[i]
    scale = float((lam * ratios ** (2.0 / cfg.alpha)).sum())
    c = interference_coefficient(i, pi, bias, occ, cfg)
    noise_coef = cfg.tau * cfg.noise_power / cfg.p_t
    ref = math.pi * scale * midpoint(
        lambda u: np.exp(-noise_coef * u ** (cfg.alpha / 2.0) - math.pi * c * u),
        0.0, 30.0 / (math.pi * c), 400_000,
    )
    got = _success_grid(np.array([cfg.tau]), pi, bias, occ, cfg)[0, i]
    err_succ = abs(got - ref) / ref

    # Throughput integral: the fixed rule vs a fine fixed midpoint grid
    # over the same integrand and domain, t in [0, 128], at the calibrated
    # beta = 1 operating point; the grid is evaluated in chunks.
    bias1, metrics, fp = fp_by_beta[1.0]
    lm = fp.chain_metrics
    rates, tier, _ = expected_rates(fp.level_marginals, bias1, lm.p_occu, lm.p_block,
                                    baseline_cfg)
    totals_ref = np.zeros(baseline_cfg.t_levels + 1)
    for lo, hi, k in ((0.0, 40.0, 40_000), (40.0, 128.0, 8_800)):
        ts = lo + (np.arange(k) + 0.5) * ((hi - lo) / k)
        for chunk in np.array_split(ts, 10):
            grid = _success_grid(2.0 ** chunk - 1.0, fp.level_marginals, bias1,
                                 lm.p_occu, baseline_cfg)
            totals_ref += grid.sum(axis=0) * ((hi - lo) / k)
    rates_ref = baseline_cfg.rate_scale * (1.0 - lm.p_block) * tier * totals_ref
    live = rates_ref > 1e-12
    err_rate = float(np.abs(rates[live] - rates_ref[live]).max()
                     / np.abs(rates_ref[live]).max())

    # Fading integral on its quadrature path (kappa too large for the series).
    kappa = 3.0
    ref_fade = midpoint(lambda v: np.exp(-kappa * v**2 - v), 0.0, 60.0, 400_000)
    err_fade = abs(exp_power_integral(kappa, 2.0) - ref_fade) / ref_fade

    passed = worst_z < 1e-8 and err_succ < 1e-6 and err_rate < 1e-6 and err_fade < 1e-6
    record_criterion(
        10, passed,
        f"interference weight vs defining integral: worst rel err = {worst_z:.1e} "
        f"(limit 1e-8, 100 points); success/rate/fading integrals vs midpoint: "
        f"{err_succ:.1e}/{err_rate:.1e}/{err_fade:.1e} (limit 1e-6)",
    )
    assert passed
