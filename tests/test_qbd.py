import bisect
import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from greencell import qbd
from greencell.fixedpoint import solve
from greencell.optimizer import evaluate_bias, power_law_bias
from greencell.qbd import (
    DEGENERATE_LEVEL,
    RESIDUAL_TOL,
    SPLIT_ABOVE,
    ChainParams,
    LevelMetrics,
    SolverError,
    SteadyState,
    build_generator,
    fold_plan,
    level_metrics,
    solve_steady_state,
    _inverse,
    stationary_residual,
)

from oracles import (
    assemble,
    build_blocks_per_level,
    dense_null_pi,
    erlang_b,
    gth_stationary,
    poisson_tail,
    simulate_trajectory,
)

CORNERS = {
    "no_users": {"lambda_u1": 0.0, "lambda_u2": 0.0},
    "t40_n100": {"t_levels": 40, "n_channels": 100},
    "nu_1e6": {"nu": 1e6},
    "lambda_u1=500": {"lambda_u1": 500.0},
}


def test_hand_built_generator_matches():
    # T=1, N=1: four states ordered (0,0), (0,1), (1,0), (1,1).
    params = ChainParams(n_channels=1, t_levels=1, mu=3.0, omega=2.0,
                         nu=5.0, static_drain=2.0)
    gen = build_generator(params, rho=[1.0, 4.0])
    expected = np.array([
        [-6.0, 1.0, 5.0, 0.0],   # admit rho_0, recharge
        [3.0, -8.0, 0.0, 5.0],   # complete, recharge; channel full
        [2.0, 0.0, -6.0, 4.0],   # discharge (static only), admit rho_1
        [0.0, 4.0, 3.0, -7.0],   # discharge (static+omega), complete
    ])
    np.testing.assert_allclose(assemble(gen), expected, atol=0)


@given(
    n_channels=st.integers(1, 5),
    t_levels=st.integers(1, 4),
    mu=st.floats(0.1, 10),
    omega=st.floats(0, 5),
    nu=st.floats(0.1, 50),
    drain=st.floats(0, 50),
    seed=st.integers(0, 2**31),
)
def test_generator_properties(n_channels, t_levels, mu, omega, nu, drain, seed):
    rng = np.random.default_rng(seed)
    params = ChainParams(n_channels, t_levels, mu, omega, nu, drain)
    rho = rng.uniform(0.0, 20.0, size=t_levels + 1)
    a = assemble(build_generator(params, rho))
    off = a - np.diag(np.diag(a))
    assert np.all(off >= 0)
    assert np.abs(a.sum(axis=1)).max() < 1e-12 * max(1.0, np.abs(a).max())


@given(
    n_channels=st.integers(1, 6),
    t_levels=st.integers(0, 5),
    rates=st.lists(st.floats(0.0, 50.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**31),
)
@example(n_channels=1, t_levels=0, rates=[2.0, 1.0, 3.0, 4.0], seed=0)
@example(n_channels=1, t_levels=3, rates=[2.0, 1.0, 3.0, 4.0], seed=1)
def test_generator_blocks_match_per_level_oracle(n_channels, t_levels, rates, seed):
    params = ChainParams(n_channels, t_levels, *rates)
    rho = np.random.default_rng(seed).uniform(0.0, 20.0, size=t_levels + 1)
    gen = build_generator(params, rho)
    d, l, m = build_blocks_per_level(params, rho)
    # The stored vectors are the oracle's diagonals, bit for bit ...
    for got, ref in ((gen.diag, np.diagonal(d, axis1=1, axis2=2)),
                     (gen.m, np.diagonal(m, axis1=1, axis2=2))):
        assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()
    # ... and the blocks they stand for are the oracle's blocks.
    full, n = assemble(gen), n_channels + 1
    for i in range(t_levels + 1):
        rows = slice(i * n, (i + 1) * n)
        pairs = [(full[rows, rows], d[i])]
        if i < t_levels:
            pairs.append((full[rows, (i + 1) * n:(i + 2) * n], l[i]))
        if i > 0:
            pairs.append((full[rows, (i - 1) * n:i * n], m[i]))
        for got, ref in pairs:
            assert np.array_equal(got, ref) and got.tobytes() == ref.tobytes()


def test_backward_recursion_matches_dense_null_space():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = ChainParams(
            n_channels=int(rng.integers(1, 6)),
            t_levels=int(rng.integers(1, 5)),
            mu=rng.uniform(0.2, 5.0),
            omega=rng.uniform(0.0, 3.0),
            nu=rng.uniform(0.5, 30.0),
            static_drain=rng.uniform(0.0, 30.0),
        )
        rho = rng.uniform(0.0, 15.0, size=params.t_levels + 1)
        gen = build_generator(params, rho)
        ss = solve_steady_state(gen)
        ref = dense_null_pi(assemble(gen))
        np.testing.assert_allclose(ss.pi.reshape(-1), ref, atol=1e-10)


@pytest.mark.parametrize("beta", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("corner", list(CORNERS))
def test_corner_points_complete(baseline_cfg, corner, beta):
    # Level 0 of these chains carries almost no mass or an overloaded cell;
    # a recursion that subtracts to form the censored blocks loses it.
    cfg = dataclasses.replace(baseline_cfg, **CORNERS[corner])
    metrics, fp = evaluate_bias(cfg, power_law_bias(beta, cfg.t_levels))
    assert fp.converged
    assert fp.chain_state.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert fp.chain_state.residual <= 1e-10
    values = [getattr(metrics, f.name) for f in dataclasses.fields(metrics)]
    assert all(np.all(np.isfinite(v)) for v in values)


def test_high_recharge_matches_gth_oracle(baseline_cfg):
    # At nu = 1e6 level 0 holds about 3e-45 of the mass, and p_grid scales
    # with it; every level marginal must keep its relative accuracy.
    cfg = dataclasses.replace(baseline_cfg, nu=1e6)
    fp = solve(cfg, power_law_bias(0.0, cfg.t_levels))
    gen = build_generator(ChainParams.from_config(cfg), fp.users)
    got = solve_steady_state(gen).level_marginals
    ref = gth_stationary(assemble(gen)).reshape(got.size, -1).sum(axis=1)
    assert ref[0] < 1e-40
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0)


@pytest.mark.parametrize("corner", ["baseline", "t40_n100"])
def test_marginal_slope_matches_central_difference(baseline_cfg, corner):
    cfg = dataclasses.replace(baseline_cfg, **CORNERS.get(corner, {}))
    params = ChainParams.from_config(cfg)
    rho = solve(cfg, power_law_bias(1.0, cfg.t_levels)).users
    h = 1e-5
    # The direction a change of load moves the arrivals in, and a random one.
    for drho in (-rho, np.random.default_rng(3).uniform(-1.0, 1.0, rho.size)):
        slope = solve_steady_state(build_generator(params, rho), drho=drho).marginal_slope
        up, down = (solve_steady_state(build_generator(params, rho + sign * h * drho)).level_marginals
                    for sign in (1.0, -1.0))
        central = (up - down) / (2.0 * h)
        assert np.abs(slope - central).max() <= 1e-6 * np.abs(central).max()
        assert abs(slope.sum()) <= 1e-12 * np.abs(slope).max()
    assert not solve_steady_state(build_generator(params, rho), drho=0.0 * rho).marginal_slope.any()


def test_slope_lost_to_rounding_is_nan(baseline_cfg):
    # At nu = 1e6 the level masses span 45 decades, and the multiple of pi
    # that zeroes the slope's sum is far larger than the slope itself.
    cfg = dataclasses.replace(baseline_cfg, nu=1e6)
    rho = np.full(cfg.t_levels + 1, 3.0)
    ss = solve_steady_state(build_generator(ChainParams.from_config(cfg), rho), drho=-rho)
    assert np.isnan(ss.marginal_slope).all()
    assert ss.residual <= RESIDUAL_TOL


@pytest.mark.parametrize("corner", ["baseline", *CORNERS])
def test_marginal_curvature_matches_central_second_difference(baseline_cfg, corner):
    # Along the load path rho(s) = u / s at s = 1: rho' = -u and rho'' = 2 u.
    cfg = dataclasses.replace(baseline_cfg, **CORNERS.get(corner, {}))
    params = ChainParams.from_config(cfg)
    u = solve(cfg, power_law_bias(1.0, cfg.t_levels)).users
    ss = solve_steady_state(build_generator(params, u), drho=-u, ddrho=2.0 * u)
    plain = solve_steady_state(build_generator(params, u), drho=-u)
    assert np.array_equal(ss.pi, plain.pi)
    assert np.array_equal(ss.marginal_slope, plain.marginal_slope, equal_nan=True)
    assert plain.marginal_curvature is None
    assert np.array_equal(np.isnan(ss.marginal_curvature), np.isnan(ss.marginal_slope))
    if corner == "nu_1e6":  # the slope is lost to rounding, and the curvature with it
        assert np.isnan(ss.marginal_curvature).all()
        return
    h = 1e-3
    at = [solve_steady_state(build_generator(params, u / s)).level_marginals for s in (1.0 + h, 1.0, 1.0 - h)]
    central = (at[0] - 2.0 * at[1] + at[2]) / h**2
    assert np.abs(ss.marginal_curvature - central).max() <= 1e-5 * np.abs(central).max()
    assert abs(ss.marginal_curvature.sum()) <= 1e-12 * np.abs(ss.marginal_curvature).max()


def test_inverse_rounding_is_clamped():
    # Recharge 1e8 times the static drain: rounding gives the level inverses
    # entries of the wrong sign, which then read as negative mass unless
    # they are clamped to zero.
    gen = build_generator(ChainParams(4, 3, 0.02, 600.0, 7e4, 1e-3), [0.03, 0.0, 0.0, 0.0])
    ss = solve_steady_state(gen)
    ref = gth_stationary(assemble(gen)).reshape(ss.pi.shape)
    np.testing.assert_allclose(ss.pi, ref, rtol=0, atol=1e-15)


_DECADES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


@settings(max_examples=200)
@given(
    n_channels=st.integers(1, 60),
    t_levels=st.integers(1, 20),
    mu=_DECADES,
    omega=st.one_of(st.just(0.0), _DECADES),
    nu=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    drain=st.one_of(st.just(0.0), _DECADES),
    rho=st.lists(st.one_of(st.just(0.0), _DECADES), min_size=21, max_size=21),
)
def test_solve_is_finite_or_typed(n_channels, t_levels, mu, omega, nu, drain, rho):
    _assert_finite_or_typed(ChainParams(n_channels, t_levels, mu, omega, nu, drain),
                            rho[: t_levels + 1])


@settings(max_examples=150, deadline=None)
@given(
    n_channels=st.integers(SPLIT_ABOVE, 130),
    t_levels=st.one_of(st.integers(1, 4), st.integers(SPLIT_ABOVE, 80)),
    mu=_DECADES,
    omega=st.one_of(st.just(0.0), _DECADES),
    nu=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    drain=st.one_of(st.just(0.0), _DECADES),
    rho=st.lists(st.one_of(st.just(0.0), _DECADES), min_size=81, max_size=81),
)
def test_blocked_solve_is_finite_or_typed(n_channels, t_levels, mu, omega, nu, drain, rho):
    # A few battery levels fold along the channel counts; with both sides
    # above SPLIT_ABOVE the blocks, of min(N, T) + 1 states, take the
    # Schur-halves inverse.
    _assert_finite_or_typed(ChainParams(n_channels, t_levels, mu, omega, nu, drain),
                            rho[: t_levels + 1])


def _assert_finite_or_typed(params, rho):
    gen = build_generator(params, rho)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            ss = solve_steady_state(gen)
        except SolverError:
            return
    assert np.all(np.isfinite(ss.pi)) and np.all(ss.pi >= 0.0)
    assert math.isclose(ss.pi.sum(), 1.0, abs_tol=1e-12)
    assert ss.residual <= RESIDUAL_TOL


def _m_matrix(rng, n, batch=()):
    """-Q for a random strictly diagonally dominant Q with nonnegative off-diagonal."""
    off = rng.exponential(size=batch + (n, n)) * (rng.uniform(size=batch + (n, n)) < 0.3)
    idx = np.arange(n)
    off[..., idx, idx] = 0.0
    q = off.copy()
    q[..., idx, idx] = -(off.sum(axis=-1) + rng.uniform(0.01, 1.0, size=batch + (n,)))
    return q


@pytest.mark.parametrize("n", [65, 101, 150])
def test_blocked_inverse_matches_lapack(n):
    rng = np.random.default_rng(n)
    for q in (_m_matrix(rng, n), _m_matrix(rng, n, batch=(3,))):
        ref = np.linalg.inv(q)
        np.testing.assert_allclose(_inverse(q), ref, rtol=1e-13, atol=0)


def _held_at_level_t(rho_top, t_levels, n_channels):
    """Law of a chain absorbed at level T, mu = 1: Erlang's law of load rho_T there."""
    pi = np.zeros((t_levels + 1, n_channels + 1))
    pi[-1] = [rho_top ** j / math.factorial(j) for j in range(n_channels + 1)]
    return pi / pi.sum()


def test_singular_large_block_is_typed():
    # No downward moves: every level block has zero row sums.
    with pytest.raises(np.linalg.LinAlgError):
        _inverse(np.zeros((101, 101)))
    # Nor does this battery move down (omega = 0, no static drain): the chain
    # is held at level T, where its 100 channels carry the Erlang(3) law.
    gen = build_generator(ChainParams(100, 2, 1.0, 0.0, 1.0, 0.0), [3.0, 3.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ss = solve_steady_state(gen)
    np.testing.assert_allclose(ss.pi, _held_at_level_t(3.0, 2, 100), rtol=0, atol=1e-15)
    assert ss.residual <= RESIDUAL_TOL


def test_large_block_chain_matches_gth_oracle():
    # Loads around the channel count.  This chain folds along its 101 channel
    # counts, so the Erlang tail of a light load falls across levels and
    # keeps its relative accuracy; a state is resolved only to about 1e-17
    # of its own channel count's mass.
    params = ChainParams(100, 3, 1.0, 1.0, 40.0, 25.0)
    gen = build_generator(params, [60.0, 80.0, 100.0, 120.0])
    ss = solve_steady_state(gen)
    ref = gth_stationary(assemble(gen)).reshape(ss.pi.shape)
    np.testing.assert_allclose(ss.level_marginals, ref.sum(axis=1), rtol=1e-9, atol=0)
    big = ref > 1e-12 * ref.max()
    assert big.sum() > 200
    np.testing.assert_allclose(ss.pi[big], ref[big], rtol=1e-9, atol=0)


@pytest.mark.parametrize("n_channels, t_levels, shape", [
    (20, 10, (11, 21)), (63, 10, (11, 64)), (64, 10, (65, 11)), (100, 40, (101, 41)),
    (100, 100, (101, 101)), (100, 130, (131, 101)), (200, 0, (201, 1)),
])
def test_fold_shape_takes_the_smaller_block_above_split(n_channels, t_levels, shape):
    # A load of 1e6 keeps every channel count, so the kept levels are all of them on either axis.
    _, top, n = fold_plan(ChainParams(n_channels, t_levels, 1.0, 1.0, 1.0, 1.0), np.full(t_levels + 1, 1e6))
    assert (int(top) + 1, n) == shape


_AXES = {"battery": 10**9, "channel": 1}  # SPLIT_ABOVE that forces each fold axis


def _random_chain(rng):
    t_levels = int(rng.integers(1, 5))
    params = ChainParams(n_channels=int(rng.integers(t_levels + 1, 8)), t_levels=t_levels,
                         mu=rng.uniform(0.2, 5.0), omega=rng.uniform(0.0, 3.0),
                         nu=rng.uniform(0.5, 30.0), static_drain=rng.uniform(0.1, 30.0))
    return params, rng.uniform(0.0, 15.0, size=(3, t_levels + 1)), rng.uniform(-1.0, 1.0, size=(3, t_levels + 1))


def _mixed_load_wide_chain():
    """One wide chain under a light, a medium and a heavy load (about 1, 10 and 35
    Erlangs): on channel levels the light and medium ones stop at different counts,
    and the heavy one folds all N + 1."""
    rho = np.array([[0.8, 0.9, 1.0, 1.1], [8.0, 9.0, 10.0, 11.0], [32.0, 33.0, 34.0, 35.0]])
    return ChainParams(100, 3, 1.0, 1.0, 40.0, 25.0), rho, np.full_like(rho, -1.0)


def test_both_fold_axes_match_gth_oracle_and_each_other(monkeypatch):
    rng = np.random.default_rng(20)
    for params, rho, drho in [*(_random_chain(rng) for _ in range(40)), _mixed_load_wide_chain()]:
        got = {}
        for axis, split in _AXES.items():
            monkeypatch.setattr(qbd, "SPLIT_ABOVE", split)
            channel, top, _ = fold_plan(params, np.full(params.t_levels + 1, 1e6))
            assert (channel, int(top) + 1) == (axis == "channel", (params.t_levels if axis == "battery"
                                                                   else params.n_channels) + 1)
            gen = build_generator(params, rho)
            stacked = solve_steady_state(gen, drho=drho)
            for k in range(len(rho)):
                alone = solve_steady_state(build_generator(params, rho[k]), drho=drho[k])
                assert np.array_equal(alone.pi, stacked.pi[k])
                assert np.array_equal(alone.marginal_slope, stacked.marginal_slope[k])
                ref = gth_stationary(assemble(build_generator(params, rho[k])))
                np.testing.assert_allclose(alone.level_marginals,
                                           ref.reshape(alone.pi.shape).sum(axis=1), rtol=1e-12, atol=0)
            got[axis] = stacked
        np.testing.assert_allclose(got["channel"].level_marginals, got["battery"].level_marginals,
                                   rtol=1e-12, atol=0)
        slope, ref = got["channel"].marginal_slope, got["battery"].marginal_slope
        assert np.abs(slope - ref).max() <= 1e-12 * np.abs(ref).max()
    # The wide chain's channel fold stopped at three different counts.
    tops = [np.flatnonzero(pi.any(axis=0))[-1] for pi in got["channel"].pi]
    assert tops[0] < tops[1] < tops[2] == params.n_channels


def _assert_subsets_match(params, rho, drho, ddrho):
    """The derivatives asked of each subset of a stack are those of the full stack
    and of each lone solve, bit for bit, and NaN for the chains not asked."""
    gen = build_generator(params, rho)
    full = solve_steady_state(gen, drho=drho, ddrho=ddrho)
    names = ("marginal_slope", "marginal_curvature")
    for mask in itertools.product((False, True), repeat=len(rho)):
        seen = []
        asked = lambda m: seen.append(m) or np.where(np.array(mask)[:, None], drho, np.nan)
        part = solve_steady_state(gen, drho=asked, ddrho=ddrho)
        assert len(seen) == 1 and np.array_equal(seen[0], full.level_marginals)
        assert np.array_equal(part.pi, full.pi) and np.array_equal(part.residual, full.residual)
        for k, kept in enumerate(mask):
            for name in names:
                got = getattr(part, name)[k]
                assert np.array_equal(got, getattr(full, name)[k], equal_nan=True) if kept else np.isnan(got).all()
    for k in range(len(rho)):
        lone = build_generator(params, rho[k])
        alone = solve_steady_state(lone, drho=drho[k], ddrho=ddrho[k])
        for name in names:
            assert np.array_equal(getattr(alone, name), getattr(full, name)[k], equal_nan=True)
            assert np.isnan(getattr(solve_steady_state(lone, drho=np.nan * drho[k], ddrho=ddrho[k]),
                                    name)).all()


@pytest.mark.parametrize("axis", list(_AXES))
def test_stacked_curvature_is_each_lone_curvature(monkeypatch, axis):
    monkeypatch.setattr(qbd, "SPLIT_ABOVE", _AXES[axis])
    rng = np.random.default_rng(25)
    for params, rho, drho in [*(_random_chain(rng) for _ in range(20)), _mixed_load_wide_chain()]:
        ddrho = rng.uniform(-1.0, 1.0, rho.shape)
        stacked = solve_steady_state(build_generator(params, rho), drho=drho, ddrho=ddrho)
        assert np.isfinite(stacked.marginal_curvature).all()
        for k in range(len(rho)):
            alone = solve_steady_state(build_generator(params, rho[k]), drho=drho[k], ddrho=ddrho[k])
            assert np.array_equal(alone.pi, stacked.pi[k])
        _assert_subsets_match(params, rho, drho, ddrho)


@pytest.mark.parametrize("corner", ["baseline", "t40_n100", "n200", "nu_1e6"])
def test_derivatives_of_a_subset_of_model_chains(baseline_cfg, corner):
    """The fixed point's chains at beta 0, 1 and 3 along the load path rho(s) = u / s:
    battery folds, the channel folds of T = 40, N = 100 and of N = 200 (which stop at
    different counts), and nu = 1e6, whose slope is lost to rounding."""
    overrides = {"n200": {"n_channels": 200}}.get(corner, CORNERS.get(corner, {}))
    cfg = dataclasses.replace(baseline_cfg, **overrides)
    u = np.stack([solve(cfg, power_law_bias(beta, cfg.t_levels)).users for beta in (0.0, 1.0, 3.0)])
    _assert_subsets_match(ChainParams.from_config(cfg), u, -u, 2.0 * u)


def _exact_top(a, n_channels):
    """First count c < N whose exact Poisson(a) tail is below TAIL_MASS, else N."""
    return bisect.bisect_left(range(n_channels), True, key=lambda c: poisson_tail(a, c) < qbd.TAIL_MASS)


@given(a=st.floats(0.0, 2000.0), n_channels=st.integers(1, 1000))
@example(a=0.0, n_channels=1)
@example(a=0.0, n_channels=300)
@example(a=1e-3, n_channels=300)
@example(a=10.6, n_channels=300)
@example(a=106.0, n_channels=300)
@example(a=1000.0, n_channels=300)
def test_fold_top_bounds_the_exact_tail(a, n_channels):
    # An absorbed chain (no drain, omega = 0) folds on channel counts at any N,
    # with a top from a = max rho / mu alone.
    _, top, _ = fold_plan(ChainParams(n_channels, 1, 1.0, 0.0, 1.0, 0.0), np.array([a, a]))
    exact = _exact_top(a, n_channels)
    assert exact <= top <= exact + 1
    assert top == n_channels or poisson_tail(a, top) < qbd.TAIL_MASS


@pytest.mark.parametrize("a", [0.0, 1e-3, 10.6, 106.0, 1000.0])
def test_fold_bound_is_above_the_exact_tail_at_every_count(monkeypatch, a):
    # With TAIL_MASS set to the exact tail at count c, a bound at or above the
    # exact tail at every count below the top puts the top past c.  Stacked
    # with other loads, each chain keeps its lone top.
    n_channels = 3000
    params = ChainParams(n_channels, 1, 1.0, 0.0, 1.0, 0.0)
    lone = fold_plan(params, np.array([a, a]))[1]
    assert lone == 1 if a == 0.0 else lone > a
    stack = np.array([[a, a], [0.0, 0.0], [2.0 * a, a]])
    np.testing.assert_array_equal(fold_plan(params, stack)[1], [lone, 1, fold_plan(params, stack[2])[1]])
    counts = [c for c in range(1, n_channels) if 1e-250 < poisson_tail(a, c) < 1.0]
    assert bool(counts) == (a > 0.0)
    for c in counts:
        monkeypatch.setattr(qbd, "TAIL_MASS", poisson_tail(a, c))
        assert c < fold_plan(params, np.array([a, a]))[1] < n_channels


@pytest.mark.parametrize("n_channels, t_levels, load", [(300, 10, 0.9), (100, 40, 9.5), (100, 3, 30.0),
                                                        (100, 3, 40.0)])
def test_channel_fold_stops_where_the_tail_bound_allows(monkeypatch, n_channels, t_levels, load):
    # Light loads on many channels: the fold stops at the first count whose
    # M/M/inf tail is below TAIL_MASS and agrees with the fold of every count.
    # The heaviest load here folds every count.
    params = ChainParams(n_channels, t_levels, 1.0, 1.0, 40.0, 25.0)
    rho = load * np.linspace(0.9, 1.0, t_levels + 1)
    gen = build_generator(params, rho)
    # The first count c past the load a whose tail bound pmf(c) (c + 1) / (c + 1 - a) is below TAIL_MASS.
    a = rho.max()
    top = next((c for c in range(1, n_channels) if c + 1 > a and math.exp(
        c * math.log(a) - a - math.lgamma(c + 1.0)) * (c + 1) / (c + 1 - a) < qbd.TAIL_MASS), n_channels)
    cut = solve_steady_state(gen, drho=-rho)
    monkeypatch.setattr(qbd, "TAIL_MASS", 0.0)
    full = solve_steady_state(gen, drho=-rho)
    assert cut.residual <= RESIDUAL_TOL
    assert not cut.pi[:, top + 1:].any() and cut.pi[:, top].any()
    assert (top < n_channels) == (load < 40.0)
    cut_lm, full_lm = level_metrics(cut, n_channels), level_metrics(full, n_channels)
    np.testing.assert_allclose(cut.level_marginals, full.level_marginals, rtol=1e-12, atol=0)
    np.testing.assert_allclose(cut_lm.n_mean, full_lm.n_mean, rtol=1e-12, atol=0)
    assert (cut_lm.p_block == 0.0).all() == (top < n_channels)
    assert np.abs(cut.marginal_slope - full.marginal_slope).max() <= 1e-12 * np.abs(full.marginal_slope).max()


@pytest.mark.parametrize("axis", list(_AXES))
@pytest.mark.parametrize("omega, rho_top", [(0.0, 3.0), (2.0, 0.0)])
def test_battery_held_at_level_t_is_typed_on_both_axes(monkeypatch, axis, omega, rho_top):
    # No static drain, and no call drains the full battery: the chain is
    # absorbed at level T.  Alone it solves on either forced axis, to the
    # point mass at (T, 0) if rho_T = 0, else to Erlang's law at level T.
    # Stacked with a chain whose battery drains (omega > 0), it raises on
    # battery levels; every other stack matches its lone solves bit for bit.
    monkeypatch.setattr(qbd, "SPLIT_ABOVE", _AXES[axis])
    params = ChainParams(6, 3, 1.0, omega, 2.0, 0.0)
    rho = [[3.0, 3.0, 3.0, 3.0], [3.0, 3.0, 3.0, rho_top]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        held = solve_steady_state(build_generator(params, rho[1]))
        stack = build_generator(params, rho)
        if omega and axis == "battery":
            with pytest.raises(SolverError, match="singular block during stationary solve"):
                solve_steady_state(stack)
        else:
            stacked = solve_steady_state(stack)
            for k, row in enumerate(rho):
                np.testing.assert_array_equal(
                    stacked.pi[k], solve_steady_state(build_generator(params, row)).pi)
        # A call at level T drains it, so the same rates with omega > 0 solve.
        ss = solve_steady_state(build_generator(ChainParams(6, 3, 1.0, 2.0, 2.0, 0.0), [3.0] * 4))
    np.testing.assert_allclose(held.pi, _held_at_level_t(rho_top, 3, 6), rtol=0, atol=1e-15)
    assert held.residual <= RESIDUAL_TOL
    assert ss.residual <= RESIDUAL_TOL


@given(
    n_channels=st.integers(1, 4),
    t_levels=st.integers(0, 3),
    seed=st.integers(0, 2**31),
)
def test_blockwise_residual_matches_dense(n_channels, t_levels, seed):
    rng = np.random.default_rng(seed)
    params = ChainParams(n_channels, t_levels, *rng.uniform(0.0, 1.0, size=4))
    gen = build_generator(params, rng.uniform(0.0, 1.0, size=t_levels + 1))
    pi = rng.dirichlet(np.ones((t_levels + 1) * (n_channels + 1))).reshape(t_levels + 1, n_channels + 1)
    dense = pi.reshape(-1) @ assemble(gen)
    np.testing.assert_allclose(stationary_residual(gen, pi).reshape(-1), dense,
                               rtol=0, atol=1e-15)


def test_steady_state_invariants(small_cfg):
    rho = np.full(small_cfg.t_levels + 1, 3.0)
    gen = build_generator(ChainParams.from_config(small_cfg), rho)
    ss = solve_steady_state(gen)
    assert ss.pi.shape == (small_cfg.t_levels + 1, small_cfg.n_channels + 1)
    assert ss.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(ss.pi >= 0)
    assert ss.residual < 1e-10
    np.testing.assert_allclose(ss.level_marginals, ss.pi.sum(axis=1), atol=0)


@pytest.mark.parametrize("load", [0.5, 5.0, 20.0])
@pytest.mark.parametrize("servers", [1, 5, 20])
def test_erlang_b_degenerate_chain(load, servers):
    params = ChainParams(n_channels=servers, t_levels=0, mu=1.0, omega=0.0,
                         nu=1.0, static_drain=0.0)
    ss = solve_steady_state(build_generator(params, [load]))
    lm = level_metrics(ss, servers)
    assert lm.p_block[0] == pytest.approx(erlang_b(load, servers), abs=1e-10)


def test_level_metrics_small_chain(small_cfg):
    rho = np.full(small_cfg.t_levels + 1, 2.0)
    ss = solve_steady_state(build_generator(ChainParams.from_config(small_cfg), rho))
    lm = level_metrics(ss, small_cfg.n_channels)
    j = np.arange(small_cfg.n_channels + 1)
    for i in range(small_cfg.t_levels + 1):
        cond = ss.pi[i] / ss.level_marginals[i]
        assert lm.p_block[i] == pytest.approx(cond[-1], rel=1e-12)
        assert lm.n_mean[i] == pytest.approx((cond * j).sum(), rel=1e-12)
    np.testing.assert_allclose(lm.p_occu, lm.n_mean / small_cfg.n_channels, atol=0)
    assert (ss.level_marginals >= DEGENERATE_LEVEL).all()  # no level is masked


def test_level_metrics_zeros_degenerate_levels():
    pi = np.array([[0.6, 0.4], [0.0, 0.0]])
    ss = SteadyState(pi=pi, level_marginals=pi.sum(axis=1), residual=0.0)
    lm = level_metrics(ss, 1)
    assert (lm.p_block[0], lm.n_mean[0]) == (0.4, 0.4)  # level 0 is not masked
    assert lm.p_block[1] == 0.0 and lm.n_mean[1] == 0.0


def test_rho_validation(small_cfg):
    with pytest.raises(ValueError, match="shape"):
        build_generator(ChainParams.from_config(small_cfg), np.ones(2))
    bad = np.full(small_cfg.t_levels + 1, 1.0)
    bad[0] = -0.5
    with pytest.raises(ValueError, match="nonnegative"):
        build_generator(ChainParams.from_config(small_cfg), bad)
    bad[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        build_generator(ChainParams.from_config(small_cfg), bad)


def test_trajectory_deterministic_and_close(small_cfg):
    rho = np.full(small_cfg.t_levels + 1, 4.0)
    occ1 = simulate_trajectory(small_cfg, rho, 200_000, seed=3)
    occ2 = simulate_trajectory(small_cfg, rho, 200_000, seed=3)
    np.testing.assert_array_equal(occ1, occ2)
    ss = solve_steady_state(build_generator(ChainParams.from_config(small_cfg), rho))
    tv = 0.5 * np.abs(occ1 - ss.pi).sum()
    assert tv < 0.05
    assert occ1.sum() == pytest.approx(1.0, abs=1e-12)


def test_trajectory_absorbing_chain_collapses():
    params = ChainParams(n_channels=1, t_levels=0, mu=1.0, omega=0.0,
                         nu=0.0, static_drain=0.0)
    occ = simulate_trajectory(params, [0.0], 1000, seed=0)
    np.testing.assert_array_equal(occ, [[1.0, 0.0]])

