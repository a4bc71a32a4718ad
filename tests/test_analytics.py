import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from greencell import analytics
from greencell.analytics import (
    BiasVector,
    area_throughput,
    association_split,
    average_users,
    compute_metrics,
    efficiencies,
    expected_rates,
    power_and_carbon,
    _success_grid,
)

from greencell.optimizer import evaluate_bias, power_law_bias

from oracles import (
    expected_rate_tier,
    flat_bias,
    interference_coefficient,
    midpoint,
    rate_tier_untruncated,
    success_probability,
    success_grid_per_pair,
    success_probability_tier,
    throughput_time_integral,
)


class TestBiasVector:
    def test_flat_and_len(self):
        b = flat_bias(3)
        assert b.values == (1.0, 1.0, 1.0, 1.0)
        assert len(b) == 4
        np.testing.assert_array_equal(b.as_array(), np.ones(4))

    @pytest.mark.parametrize(
        "values", [(), (2.0, 1.0), (1.0, -3.0), (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_rejects_bad_vectors(self, values):
        with pytest.raises(ValueError):
            BiasVector(values)


def test_association_split_two_level_oracle(small_cfg):
    # pi = (1/2, 1/2), alpha = 4, biases (1, 16): weights (1/2, 1/2 * 4)
    cfg = dataclasses.replace(small_cfg, t_levels=1)
    p_assoc = association_split([0.5, 0.5], BiasVector((1.0, 16.0)), cfg)
    np.testing.assert_allclose(p_assoc, [0.2, 0.8], rtol=1e-14)


@given(
    raw=st.lists(st.floats(1e-3, 1.0), min_size=4, max_size=4),
    biases=st.lists(st.floats(0.1, 50.0), min_size=3, max_size=3),
)
def test_association_split_is_a_distribution(small_cfg, raw, biases):
    pi = np.array(raw) / sum(raw)
    p_assoc = association_split(pi, BiasVector((1.0, *biases)), small_cfg)
    assert p_assoc.sum() == pytest.approx(1.0, abs=1e-12)
    assert (p_assoc >= 0).all()


def test_interference_coefficient_reductions(small_cfg):
    pi = np.full(4, 0.25)
    bias = flat_bias(3)
    # No active interferers: only the geometric term survives.
    assert interference_coefficient(0, pi, bias, np.zeros(4), small_cfg) == pytest.approx(
        small_cfg.lambda_b, rel=1e-13
    )
    # Fully occupied uniform network at tau = 1, alpha = 4: lambda (1 + pi/4).
    assert interference_coefficient(2, pi, bias, np.ones(4), small_cfg, tau=1.0) == pytest.approx(
        small_cfg.lambda_b * (1.0 + math.pi / 4.0), rel=1e-13
    )
    # Zero threshold kills the fading term regardless of occupancy.
    assert interference_coefficient(1, pi, bias, np.ones(4), small_cfg, tau=0.0) == pytest.approx(
        small_cfg.lambda_b, rel=1e-13
    )


class TestSuccessProbability:
    def test_zero_noise_closed_forms(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, noise_power=0.0)
        pi = np.full(4, 0.25)
        bias = flat_bias(3)
        occ = np.ones(4)
        tier, mixed = success_probability(pi, bias, occ, cfg, tau=1.0)
        np.testing.assert_allclose(tier, 1.0 / (1.0 + math.pi / 4.0), rtol=1e-9)
        assert mixed == pytest.approx(0.5600991535115574, rel=1e-9)
        _, mixed_low = success_probability(pi, bias, occ, cfg, tau=0.1)
        assert mixed_low == pytest.approx(0.9116988582913963, rel=1e-9)

    def test_zero_threshold_is_certain_success(self, small_cfg):
        pi = np.array([0.4, 0.3, 0.2, 0.1])
        bias = BiasVector((1.0, 2.0, 4.0, 8.0))
        tier, mixed = success_probability(pi, bias, np.full(4, 0.5), small_cfg, tau=0.0)
        np.testing.assert_allclose(tier, 1.0, atol=1e-12)
        assert mixed == pytest.approx(1.0, abs=1e-12)

    def test_empty_tier_reports_zero(self, small_cfg):
        pi = np.array([0.0, 0.5, 0.3, 0.2])
        bias = BiasVector((1.0, 1.5, 2.0, 3.0))
        occ = np.full(4, 0.3)
        assert success_probability_tier(0, pi, bias, occ, small_cfg) == 0.0
        tier, _ = success_probability(pi, bias, occ, small_cfg)
        assert tier[0] == 0.0

    def test_noisy_tier_against_midpoint(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, noise_power=0.5, tau=1.0)
        pi = np.array([0.4, 0.3, 0.2, 0.1])
        bias = BiasVector((1.0, 2.0, 4.0, 8.0))
        occ = np.array([0.6, 0.5, 0.4, 0.3])
        i = 1
        b = bias.as_array()
        lam = cfg.lambda_b * pi
        ratios = b / b[i]
        scale = float((lam * ratios ** (2.0 / cfg.alpha)).sum())
        c = interference_coefficient(i, pi, bias, occ, cfg)
        noise_coef = cfg.tau * cfg.noise_power / cfg.p_t
        ref = math.pi * scale * midpoint(
            lambda u: np.exp(-noise_coef * u ** (cfg.alpha / 2.0) - math.pi * c * u),
            0.0,
            30.0 / (math.pi * c),
            400_000,
        )
        got = _success_grid(np.array([cfg.tau]), pi, bias, occ, cfg)[0, i]
        assert got == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("t_levels", [10, 40])
    def test_grid_shares_distinct_ratios_bit_for_bit(self, baseline_cfg, t_levels, monkeypatch):
        cfg = dataclasses.replace(baseline_cfg, t_levels=t_levels)
        rng = np.random.default_rng(t_levels)
        pi = rng.dirichlet(np.ones(t_levels + 1))
        occ = rng.uniform(0.0, 1.0, t_levels + 1)
        # 61 thresholds, and the rate rule's 133: at T = 40 both span several chunks.
        rule = np.append(2.0**analytics._RATE_NODES - 1.0, cfg.tau)
        ga_like = BiasVector((1.0, *np.exp(rng.uniform(0.0, math.log(64.0), t_levels))))
        for taus in (np.append(np.geomspace(1e-4, 1e4, 60), cfg.tau), rule):
            for bias in [power_law_bias(beta, t_levels) for beta in (0.0, 1.0, 3.0)] + [ga_like]:
                assert np.array_equal(_success_grid(taus, pi, bias, occ, cfg),
                                      success_grid_per_pair(taus, pi, bias, occ, cfg))
        # A flat bias has one ratio, so each chunk's interference grid has one column.
        columns = []
        real = analytics.interference_factor

        def recording(tau, alpha, bias_ratio):
            z = real(tau, alpha, bias_ratio)
            columns.append(z.shape[1])
            return z

        monkeypatch.setattr(analytics, "interference_factor", recording)
        _success_grid(rule, pi, power_law_bias(0.0, t_levels), occ, cfg)
        assert columns and set(columns) == {1}

    def test_grid_matches_scalar_path(self, small_cfg):
        pi = np.array([0.4, 0.3, 0.2, 0.1])
        bias = BiasVector((1.0, 2.0, 4.0, 8.0))
        occ = np.array([0.6, 0.5, 0.4, 0.3])
        taus = np.array([0.05, 0.1, 1.0, 5.0])
        grid = _success_grid(taus, pi, bias, occ, small_cfg)
        for k, tau in enumerate(taus):
            for i in range(4):
                scalar = success_probability_tier(i, pi, bias, occ, small_cfg, tau=tau)
                assert grid[k, i] == pytest.approx(scalar, abs=5e-8)


class TestUsers:
    def test_flat_bias_closed_form(self, small_cfg):
        # Flat biases make every level identical: density ratio lambda_U / lambda_B.
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        users = average_users(pi, flat_bias(3), small_cfg)
        np.testing.assert_allclose(users, 17.566370614359176, rtol=1e-13)

    @given(biases=st.lists(st.floats(0.2, 20.0), min_size=3, max_size=3))
    def test_density_conservation(self, small_cfg, biases):
        # Total served user density equals the arrival density for any bias.
        pi = np.array([0.4, 0.1, 0.2, 0.3])
        users = average_users(pi, BiasVector((1.0, *biases)), small_cfg)
        served = (small_cfg.lambda_b * pi * users).sum()
        assert served == pytest.approx(small_cfg.user_arrival_density, rel=1e-12)

    @pytest.mark.parametrize("levels", [4, 11, 41])
    def test_stacked_rows_match_single_points(self, small_cfg, levels):
        # Each row of a stacked call is bit for bit the user vector of its point alone.
        rng = np.random.default_rng(levels)
        pis = rng.dirichlet(np.ones(levels), size=5)
        biases = [BiasVector((1.0, *rng.uniform(0.1, 10.0, levels - 1))) for _ in range(5)]
        stacked = average_users(pis, np.array([b.values for b in biases]), small_cfg)
        for row, pi, bias in zip(stacked, pis, biases):
            assert np.array_equal(row, average_users(pi, bias, small_cfg))


def test_throughput_time_integral_known_function():
    # P_succ(tau) = exp(-tau) gives Integral exp(1 - 2^t) dt.
    ref = midpoint(lambda t: np.exp(1.0 - 2.0**t), 0.0, 40.0, 400_000)
    got = throughput_time_integral(lambda tau: math.exp(-tau), tol=1e-9)
    assert got == pytest.approx(ref, rel=1e-6)


class TestExpectedRates:
    def test_batched_matches_single_tier(self, small_cfg):
        pi = np.array([0.4, 0.3, 0.2, 0.1])
        bias = BiasVector((1.0, 2.0, 4.0, 8.0))
        occ = np.array([0.5, 0.4, 0.3, 0.2])
        block = np.array([0.1, 0.05, 0.02, 0.01])
        rates, tier, p_succ = expected_rates(pi, bias, occ, block, small_cfg)
        i = 1
        fn = lambda t: success_probability_tier(i, pi, bias, occ, small_cfg, tau=t)
        ref = expected_rate_tier(i, float(block[i]), fn, small_cfg)
        assert rates[i] == pytest.approx(ref, rel=1e-6)
        assert tier[i] == pytest.approx(fn(small_cfg.tau), abs=5e-8)
        p_assoc = association_split(pi, bias, small_cfg)
        assert p_succ == pytest.approx(float((tier * p_assoc).sum()), rel=1e-12)

    def test_full_blocking_kills_rate(self, small_cfg):
        fn = lambda t: 0.9
        assert expected_rate_tier(0, 1.0, fn, small_cfg) == 0.0
        pi = np.full(4, 0.25)
        rates, _, _ = expected_rates(pi, flat_bias(3), np.full(4, 0.3), np.ones(4), small_cfg)
        np.testing.assert_array_equal(rates, np.zeros(4))

    # 132 rule nodes plus tau; 32768 // 41**2 = 19 thresholds per chunk at T = 40.
    @pytest.mark.parametrize("t_levels, chunks", [(10, [133]), (40, [19] * 7)])
    def test_grid_rows_per_point(self, baseline_cfg, t_levels, chunks, monkeypatch):
        cfg = dataclasses.replace(baseline_cfg, t_levels=t_levels)
        sizes = []
        real = analytics._grid_chunk

        def recording(taus, *args):
            sizes.append(len(taus))
            return real(taus, *args)

        monkeypatch.setattr(analytics, "_grid_chunk", recording)
        pi = np.full(t_levels + 1, 1.0 / (t_levels + 1))
        occ = np.full(t_levels + 1, 0.3)
        expected_rates(pi, power_law_bias(1.0, t_levels), occ, np.zeros(t_levels + 1), cfg)
        assert sizes == chunks

    @pytest.mark.parametrize("beta, overrides", [
        (0.0, {}), (1.0, {}), (3.0, {}),
        (1.0, {"t_levels": 40, "n_channels": 100}),
        (1.0, {"alpha": 3.0}), (1.0, {"alpha": 6.0}),
        (4.0, {}), (4.0, {"lambda_u1": 500.0}),
    ])
    def test_rate_domain_is_certified(self, baseline_cfg, beta, overrides):
        # The tail beyond the last panel, and the panels the stop rule skips,
        # must stay below 1e-9 of the rate at operating points of the model.
        cfg = dataclasses.replace(baseline_cfg, **overrides)
        bias = power_law_bias(beta, cfg.t_levels)
        metrics, fp = evaluate_bias(cfg, bias)
        lm = fp.chain_metrics
        tiers = range(cfg.t_levels + 1) if cfg.t_levels <= 10 else (0, 20, 40)
        for i in tiers:
            ref = rate_tier_untruncated(i, fp.level_marginals, bias, lm.p_occu,
                                        float(lm.p_block[i]), cfg)
            assert metrics.rate_tier[i] == pytest.approx(ref, rel=1e-9, abs=0), i

    @pytest.mark.parametrize("overrides, tiers", [
        ({"lambda_u1": 0.0, "lambda_u2": 0.0}, range(11)),
        ({"t_levels": 40}, (0, 1, 20, 40)),
        ({"t_levels": 40, "n_channels": 100}, (0, 1, 20, 40)),
    ])
    def test_rate_across_a_noise_cliff(self, baseline_cfg, overrides, tiers):
        # Where P_i(2^t - 1) falls off its noise cliff inside one wide panel
        # (no users: tier 0 in [32, 64]; T = 40: tier 0 in [16, 32]), the rate
        # still holds criterion 10's bound.
        cfg = dataclasses.replace(baseline_cfg, **overrides)
        bias = power_law_bias(4.0, cfg.t_levels)
        metrics, fp = evaluate_bias(cfg, bias)
        lm = fp.chain_metrics
        for i in tiers:
            ref = rate_tier_untruncated(i, fp.level_marginals, bias, lm.p_occu,
                                        float(lm.p_block[i]), cfg)
            assert metrics.rate_tier[i] == pytest.approx(ref, rel=1e-6, abs=0), i

    def test_rate_scale_is_linear(self, small_cfg):
        pi = np.full(4, 0.25)
        bias = flat_bias(3)
        occ = np.full(4, 0.3)
        block = np.full(4, 0.1)
        base, _, _ = expected_rates(pi, bias, occ, block, small_cfg)
        scaled_cfg = dataclasses.replace(small_cfg, rate_scale=2.5)
        scaled, _, _ = expected_rates(pi, bias, occ, block, scaled_cfg)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


def test_area_throughput_share_weighting(small_cfg):
    rate = np.array([0.3, 0.2, 0.9, 0.1])
    share = np.array([0.5, 0.25, 0.0, 0.25])
    # Density times the share-weighted tier rates; a tier nobody joins adds nothing.
    expected = small_cfg.user_arrival_density * (0.5 * 0.3 + 0.25 * 0.2 + 0.25 * 0.1)
    assert area_throughput(rate, share, small_cfg) == pytest.approx(expected, rel=1e-12)
    idle = dataclasses.replace(small_cfg, lambda_u1=0.0, lambda_u2=0.0)
    assert area_throughput(rate, share, idle) == 0.0


class TestPowerAndCarbon:
    def test_hand_values(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, t_levels=1)
        lm = SimpleNamespace(n_mean=np.array([2.0, 1.0]))
        pi = np.array([0.5, 0.5])
        p0, p1 = (
            cfg.p0_static + cfg.delta_p * cfg.p_t * 2.0,
            cfg.p0_static + cfg.delta_p * cfg.p_t * 1.0,
        )
        out = power_and_carbon(pi, lm, cfg)
        assert out.p_tot == pytest.approx(0.5 * (p0 + p1) * cfg.lambda_b, rel=1e-13)
        assert out.p_grid == pytest.approx(0.5 * p0 * cfg.lambda_b, rel=1e-13)
        assert out.e_tot == pytest.approx(out.p_grid * cfg.xi_grid * cfg.delta_t, rel=1e-13)

    def test_renewable_intensity_term(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, t_levels=1, xi_re=2e-5)
        lm = SimpleNamespace(n_mean=np.array([0.0, 3.0]))
        pi = np.array([0.25, 0.75])
        out = power_and_carbon(pi, lm, cfg)
        p1 = cfg.p0_static + cfg.delta_p * cfg.p_t * 3.0
        expected = (out.p_grid * cfg.xi_grid + 0.75 * p1 * cfg.lambda_b * 2e-5) * cfg.delta_t
        assert out.e_tot == pytest.approx(expected, rel=1e-13)

    def test_accounting_interval_linearity(self, small_cfg):
        lm = SimpleNamespace(n_mean=np.array([1.0, 2.0, 3.0, 4.0]))
        pi = np.full(4, 0.25)
        base = power_and_carbon(pi, lm, small_cfg)
        doubled = power_and_carbon(pi, lm, dataclasses.replace(small_cfg, delta_t=2.0))
        assert doubled.e_tot == pytest.approx(2.0 * base.e_tot, rel=1e-13)
        assert doubled.p_tot == pytest.approx(base.p_tot, rel=1e-13)


def test_efficiencies_edge_cases(small_cfg):
    assert efficiencies(0.0, 5.0, 2.0, small_cfg) == (0.0, 0.0)
    eta_ee, eta_ce = efficiencies(3.0, 6.0, 0.0, small_cfg)
    assert eta_ee == pytest.approx(0.5)
    assert math.isinf(eta_ce)
    eta_ee, eta_ce = efficiencies(3.0, 6.0, 1.5, small_cfg)
    assert eta_ee == pytest.approx(0.5)
    assert eta_ce == pytest.approx(3.0 * small_cfg.delta_t / 1.5)


def test_compute_metrics_cross_consistency(small_cfg):
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    bias = BiasVector((1.0, 2.0, 4.0, 8.0))
    lm = SimpleNamespace(
        n_mean=np.array([1.0, 1.5, 2.0, 2.5]),
        p_occu=np.array([0.25, 0.375, 0.5, 0.625]),
        p_block=np.array([0.08, 0.05, 0.03, 0.02]),
    )
    m = compute_metrics(small_cfg, bias, pi, lm)
    p_assoc = association_split(pi, bias, small_cfg)
    assert m.p_succ == pytest.approx(float((m.p_succ_tier * p_assoc).sum()), rel=1e-12)
    assert m.eta_ee == pytest.approx(m.area_rate / m.p_tot, rel=1e-12)
    assert m.eta_ce == pytest.approx(m.area_rate * small_cfg.delta_t / m.e_tot, rel=1e-12)
    assert m.p_grid < m.p_tot
    assert m.e_tot > 0
    assert m.rate_tier.shape == (4,)
    assert 0.0 < m.p_succ < 1.0
