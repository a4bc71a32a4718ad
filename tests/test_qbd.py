import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from greencell.qbd import (
    ChainParams,
    LevelMetrics,
    SteadyState,
    build_generator,
    level_metrics,
    solve_steady_state,
    stationary_residual,
)

from oracles import assemble, build_blocks_per_level, dense_null_pi, erlang_b, simulate_trajectory


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
    for got, ref in zip((gen.d_blocks, gen.l_blocks, gen.m_blocks),
                        build_blocks_per_level(params, rho)):
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
    assert not lm.degenerate.any()


def test_level_metrics_zeros_degenerate_levels():
    pi = np.array([[0.6, 0.4], [0.0, 0.0]])
    ss = SteadyState(pi=pi, level_marginals=pi.sum(axis=1), residual=0.0)
    lm = level_metrics(ss, 1)
    assert lm.degenerate.tolist() == [False, True]
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

