import dataclasses

import numpy as np
import pytest

from greencell import qbd
from greencell.analytics import BiasVector, average_users
from greencell.fixedpoint import arrival_map, solve
from greencell.optimizer import power_law_bias


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
    np.testing.assert_allclose(res.rho, arrival_map(res.users, small_cfg), rtol=1e-14)
    np.testing.assert_allclose(
        res.level_marginals, res.chain_state.level_marginals, rtol=0, atol=0
    )
    # One further chain solve at the returned arrivals moves marginals < eps.
    params = qbd.ChainParams.from_config(small_cfg)
    ss = qbd.solve_steady_state(qbd.build_generator(params, res.rho))
    assert np.abs(ss.level_marginals - res.level_marginals).max() < 1e-8


def test_arrival_map_affine_knobs(small_cfg):
    users = np.array([0.0, 1.0, 2.5, 4.0])
    np.testing.assert_array_equal(arrival_map(users, small_cfg), users)
    cfg = dataclasses.replace(small_cfg, arrival_scale=0.5, arrival_offset=0.1)
    np.testing.assert_allclose(arrival_map(users, cfg), 0.5 * users + 0.1, rtol=1e-15)
    res = solve(cfg, BiasVector.flat(cfg.t_levels))
    np.testing.assert_allclose(res.rho, 0.5 * res.users + 0.1, rtol=1e-14)


def test_sweep_budget_reported_not_raised(small_cfg):
    res = solve(small_cfg, power_law_bias(1.0, small_cfg.t_levels), max_sweeps=1)
    assert not res.converged
    assert res.iterations == 1
    # The result still carries a usable (single-sweep) operating point.
    assert res.level_marginals.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs", [{"eps": 0.0}, {"eps": -1e-3}, {"max_sweeps": 0}]
)
def test_parameter_validation(small_cfg, kwargs):
    with pytest.raises(ValueError):
        solve(small_cfg, BiasVector.flat(small_cfg.t_levels), **kwargs)


def test_bias_length_must_match_levels(small_cfg):
    with pytest.raises(ValueError):
        solve(small_cfg, BiasVector.flat(small_cfg.t_levels + 2))
