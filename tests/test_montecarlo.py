import dataclasses
import math
import warnings

import numpy as np
import pytest

from greencell.analytics import BiasVector, association_split, average_users
from greencell.montecarlo import (
    BLOCK,
    EPS,
    GUIDE,
    K2_CAP,
    PASS,
    _poisson_table,
    _search,
    estimate_success,
    window,
)
from greencell.numerics import stream
from greencell.optimizer import evaluate_bias, power_law_bias
from oracles import (
    Realization,
    estimate_shares,
    estimate_success_blockwise,
    estimate_success_per_drop,
    flat_bias,
    poisson_inverse,
    sample_realization,
    success_probability,
)


def test_window_formulas(small_cfg):
    # Flat bias: Sigma = 1, so the window holds 53 ln 2 stations in mean.
    flat = [1.0] * 4
    pi = np.full(4, 0.25)
    r, bound = window(small_cfg, pi, flat)
    assert math.pi * r**2 == pytest.approx(53.0 * math.log(2.0), rel=1e-14)
    assert bound == EPS
    cfg4 = dataclasses.replace(small_cfg, lambda_b=4.0)
    assert window(cfg4, pi, flat) == (pytest.approx(r / 2.0), EPS)
    # Sigma = sum_i pi_i (B_i / B_max)^(2 / alpha), alpha = 4; a level with
    # pi_i = 0 sets no B_max.
    pi = np.array([0.1, 0.2, 0.7, 0.0])
    r, bound = window(small_cfg, pi, [1.0, 2.0, 4.0, 100.0])
    sigma = 0.1 * 0.5 + 0.2 * math.sqrt(0.5) + 0.7
    assert math.pi * r**2 == pytest.approx(53.0 * math.log(2.0) / sigma, rel=1e-14)
    # Sigma = 0.10009 would need 367 stations: the cap binds and the bound
    # is exp(-225 Sigma).
    pi = np.array([0.1, 0.1, 0.4, 0.4])
    r, bound = window(small_cfg, pi, [1.0, 1e8, 1.0, 1.0])
    assert math.pi * r**2 == pytest.approx(K2_CAP, rel=1e-14)
    assert bound == pytest.approx(math.exp(-K2_CAP * (0.1 + 0.9e-4)), rel=1e-12)


@pytest.mark.parametrize("beta", [0.0, 2.0])
def test_certificate_counts_undecided_drops(small_cfg, beta):
    # Explicit station patterns in the oracle's 225-station window.  A drop is
    # undecided at radius R when no station scores r^2 B^(-2/alpha) at most
    # R^2 B_max^(-2/alpha); the certificate puts that at exp(-K^2 Sigma),
    # K^2 = pi lambda_b R^2.  Sigma is read back from window's own radius,
    # and R set so that K^2 Sigma = 3, where the event has probability 5%.
    cfg = dataclasses.replace(small_cfg, lambda_u1=0.0, lambda_p=0.0)  # stations only
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    bias = power_law_bias(beta, cfg.t_levels).as_array()
    r_w, bound = window(cfg, pi, bias)
    assert bound == EPS
    sigma = -math.log(EPS) / (math.pi * cfg.lambda_b * r_w**2)
    threshold = 3.0 / sigma / (math.pi * cfg.lambda_b) * bias.max() ** (-2.0 / cfg.alpha)
    n = 4000
    undecided = 0
    for d in range(n):
        real = sample_realization(cfg, pi, seed=d)
        score = (real.bs_xy**2).sum(axis=1) * bias[real.bs_levels] ** (-2.0 / cfg.alpha)
        undecided += not (score <= threshold).any()
    # Binomial(n, e^-3): 4 standard deviations either way.
    p = math.exp(-3.0)
    assert abs(undecided - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p))


def test_window_guard_raises(small_cfg):
    pi = np.full(4, 0.25)
    with pytest.raises(ValueError):
        sample_realization(small_cfg, pi, r_sim=2.8)  # guard 10 / sqrt(pi) = 5.64


def test_sample_realization_determinism(small_cfg):
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    a = sample_realization(small_cfg, pi, seed=7)
    b = sample_realization(small_cfg, pi, seed=7)
    np.testing.assert_array_equal(a.bs_xy, b.bs_xy)
    np.testing.assert_array_equal(a.bs_levels, b.bs_levels)
    np.testing.assert_array_equal(a.clustered_xy, b.clustered_xy)
    c = sample_realization(small_cfg, pi, seed=8)
    assert a.bs_xy.shape != c.bs_xy.shape or not np.array_equal(a.bs_xy, c.bs_xy)


def test_sample_realization_geometry(small_cfg):
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    real = sample_realization(small_cfg, pi, seed=3)
    r = real.window_radius
    assert (np.linalg.norm(real.bs_xy, axis=1) <= r + 1e-9).all()
    assert (np.linalg.norm(real.uniform_xy, axis=1) <= r + 1e-9).all()
    assert real.bs_levels.min() >= 0 and real.bs_levels.max() <= 3
    # Clustered users sit within the hotspot radius of their parent center.
    if real.cluster_parent.size:
        assert real.cluster_parent.min() >= 0
        assert real.cluster_parent.max() < real.hotspot_xy.shape[0]
        d = np.linalg.norm(
            real.clustered_xy - real.hotspot_xy[real.cluster_parent], axis=1
        )
        assert (d <= small_cfg.hotspot_radius + 1e-9).all()


def test_sample_counts_track_intensities(small_cfg):
    # Aggregate counts over drops stay within 4 sigma of the Poisson mean.
    pi = np.full(4, 0.25)
    n_drops = 40
    area = 225.0 / small_cfg.lambda_b  # the oracle's window holds 225 stations in mean
    totals = {"bs": 0, "hot": 0, "uni": 0, "cl": 0}
    for d in range(n_drops):
        real = sample_realization(small_cfg, pi, seed=100 + d)
        totals["bs"] += real.bs_xy.shape[0]
        totals["hot"] += real.hotspot_xy.shape[0]
        totals["uni"] += real.uniform_xy.shape[0]
        totals["cl"] += real.clustered_xy.shape[0]
    for key, lam in [
        ("bs", small_cfg.lambda_b * area),
        ("hot", small_cfg.lambda_p * area),
        ("uni", small_cfg.lambda_u1 * area),
        ("cl", small_cfg.lambda_p * area * small_cfg.mean_cluster_users),
    ]:
        mean = n_drops * lam
        # Clustered counts are over-dispersed (Poisson number of Poisson
        # clusters); widen their band by the cluster-size factor.
        var = mean * (1.0 + small_cfg.mean_cluster_users) if key == "cl" else mean
        assert abs(totals[key] - mean) < 4.0 * math.sqrt(var), key


class TestEstimateSuccess:
    def test_determinism_and_ci_fields(self, small_cfg):
        pi = np.full(4, 0.25)
        bias = flat_bias(3)
        occ = np.full(4, 0.4)
        a = estimate_success(small_cfg, pi, bias, occ, 200, seed=5)
        b = estimate_success(small_cfg, pi, bias, occ, 200, seed=5)
        assert a == b
        assert a.n_samples == 200 and a.seed == 5
        assert 0.0 <= a.mean <= 1.0
        assert a.half_width_95 > 0.0

    def test_single_drop_degenerate_interval(self, small_cfg):
        pi = np.full(4, 0.25)
        est = estimate_success(small_cfg, pi, flat_bias(3), np.zeros(4), 1, seed=2)
        assert est.half_width_95 == 0.0
        assert est.mean == pytest.approx(estimate_success_blockwise(
            small_cfg, pi, flat_bias(3), np.zeros(4), 1, seed=2), rel=1e-12)

    def test_no_interference_no_noise_always_succeeds(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, noise_power=0.0)
        pi = np.full(4, 0.25)
        est = estimate_success(cfg, pi, flat_bias(3), np.zeros(4), 300, seed=1)
        assert est.mean == 1.0

    def test_matches_closed_form_uniform_bias(self, small_cfg):
        # Zero noise, fully occupied, flat bias: P_succ = 1 / (1 + Z(tau, alpha, 1)).
        cfg = dataclasses.replace(small_cfg, noise_power=0.0, tau=1.0)
        pi = np.full(4, 0.25)
        bias = flat_bias(3)
        occ = np.ones(4)
        est = estimate_success(cfg, pi, bias, occ, 20_000, seed=0)
        _, analytic = success_probability(pi, bias, occ, cfg)
        assert abs(est.mean - analytic) < 2.0 * est.half_width_95

    def test_matches_per_drop_oracle(self, small_cfg):
        # Thinned per-class counts against explicit per-station level and
        # activity marks: same law, independent streams.
        cfg = dataclasses.replace(small_cfg, tau=1.0)
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        bias = BiasVector((1.0, 2.0, 4.0, 8.0))
        occ = np.array([0.1, 0.3, 0.5, 0.9])
        est = estimate_success(cfg, pi, bias, occ, 6000, seed=11)
        mean, half_width = estimate_success_per_drop(cfg, pi, bias, occ, 6000, seed=11)
        assert 0.1 < mean < 0.9
        assert abs(est.mean - mean) < 3.0 * math.hypot(est.half_width_95, half_width)

    @pytest.mark.parametrize("bias, occ, n_drops", [
        ((1.0, 1.0, 1.0, 1.0), (0.5, 0.5, 0.5, 0.5), 300),
        ((1.0, 2.0, 4.0, 8.0), (0.1, 0.3, 0.5, 0.9), 2 * BLOCK + 7),
        ((1.0, 64.0, 1.5, 3.0), (1.0, 0.0, 1.0, 0.2), BLOCK + 1),
        ((1.0, 2.0, 4.0, 8.0), (0.0, 0.0, 0.0, 0.0), 40),
        ((1.0, 3.0, 9.0, 27.0), (1.0, 1.0, 1.0, 1.0), 1),
        ((1.0, 2.0, 4.0, 8.0), (0.002, 0.0, 0.001, 0.003), BLOCK + 9),  # most drops empty
        ((1.0, 2.0, 4.0, 8.0), (0.1, 0.3, 0.5, 0.9), PASS + 1),  # a pass and one drop
    ])
    def test_matches_blockwise_oracle(self, small_cfg, bias, occ, n_drops):
        # Same draws, each drop's success probability multiplied out in a
        # plain loop: equal up to rounding.
        pi = np.array([0.05, 0.15, 0.3, 0.5])
        est = estimate_success(small_cfg, pi, BiasVector(bias), np.array(occ), n_drops, seed=6)
        assert est.mean == pytest.approx(estimate_success_blockwise(
            small_cfg, pi, BiasVector(bias), np.array(occ), n_drops, seed=6, block=BLOCK),
            rel=1e-12)

    @pytest.mark.parametrize("levels, occ, n_drops", [
        (41, 0.3, BLOCK + 5),  # level 40's CDF table sits at +40
        (4, 1.0, BLOCK + 3),  # fully occupied: every level's mean is 225 pi_i
    ])
    def test_matches_blockwise_oracle_wide(self, small_cfg, levels, occ, n_drops):
        pi = np.linspace(1.0, 3.0, levels)
        pi /= pi.sum()
        bias = BiasVector(tuple(1.0 + 0.1 * i for i in range(levels)))
        occ = np.full(levels, occ)
        est = estimate_success(small_cfg, pi, bias, occ, n_drops, seed=13)
        assert est.mean == pytest.approx(estimate_success_blockwise(
            small_cfg, pi, bias, occ, n_drops, seed=13, block=BLOCK), rel=1e-12)

    @pytest.mark.parametrize("n_drops", [1, BLOCK - 1, BLOCK, BLOCK + 1, 300,
                                         PASS - 1, PASS, PASS + 1, 2 * PASS + 17])
    def test_block_edges(self, small_cfg, n_drops):
        pi = np.full(4, 0.25)
        bias = BiasVector((1.0, 1.5, 2.0, 3.0))
        occ = np.full(4, 0.5)
        est = estimate_success(small_cfg, pi, bias, occ, n_drops, seed=3)
        assert est.n_samples == n_drops
        assert est == estimate_success(small_cfg, pi, bias, occ, n_drops, seed=3)
        if n_drops == 1:
            assert est.half_width_95 == 0.0
        else:
            # Values in [0, 1] with mean p have a sample variance of at most
            # n p (1 - p) / (n - 1), the Bernoulli case.
            p = est.mean
            assert 0.0 < est.half_width_95 <= 1.96 * math.sqrt(p * (1 - p) / (n_drops - 1))

    @pytest.mark.parametrize("n_drops, mean, half_width", [
        (1025, 0.9472204089532937, 0.0044741595519954495),
        (10_000, 0.9469617446350023, 0.0013987287475353799),
    ])
    def test_stream_is_pinned(self, small_cfg, n_drops, mean, half_width):
        # The reprs were printed by the one-block-at-a-time kernel that
        # preceded passes and the guide table, on an x86-64 machine with
        # AVX-512 and numpy 2.4.6, where the pass kernel reproduces them to
        # the last bit.  The tolerance admits only the last-bit differences of
        # numpy's vectorized exp and log between CPUs; a change to the stream
        # moves the mean by about a half-width.
        pi = np.full(4, 0.25)
        bias = BiasVector((1.0, 1.5, 2.0, 3.0))
        est = estimate_success(small_cfg, pi, bias, np.full(4, 0.5), n_drops, seed=3)
        assert (est.mean, est.half_width_95) == pytest.approx((mean, half_width), rel=1e-12)

    def test_far_field_removes_window_bias(self, baseline_cfg):
        # At alpha = 2.5 a quarter of the interference comes from beyond the
        # window; left out, it put the estimate about 40 half-widths high.
        cfg = dataclasses.replace(baseline_cfg, alpha=2.5)
        bias = power_law_bias(3.0, cfg.t_levels)
        metrics, fp = evaluate_bias(cfg, bias)
        est = estimate_success(cfg, fp.level_marginals, bias, fp.chain_metrics.p_occu,
                               100_000, seed=0)
        assert abs(est.mean - metrics.p_succ) <= 3.0 * est.half_width_95

    def test_capped_window_reports_its_bound(self, baseline_cfg):
        # alpha = 2.05 with level 1 at B = 64: the certificate would need
        # about 767 stations per drop, so the cap of 225 binds and the
        # omission, exp(-225 Sigma), is reported.
        cfg = dataclasses.replace(baseline_cfg, alpha=2.05)
        bias = BiasVector((1.0, 64.0) + (1.0,) * (cfg.t_levels - 1))
        _, fp = evaluate_bias(cfg, bias)
        sigma = float(fp.level_marginals @ (bias.as_array() / 64.0) ** (2.0 / cfg.alpha))
        assert -math.log(EPS) / sigma == pytest.approx(767.0, abs=1.0)
        est = estimate_success(cfg, fp.level_marginals, bias, fp.chain_metrics.p_occu,
                               2 * BLOCK, seed=0)
        assert est.omission_bound == pytest.approx(math.exp(-K2_CAP * sigma), rel=1e-12)
        assert est.omission_bound == pytest.approx(2.1e-5, rel=0.01)
        assert 0.0 < est.mean < 1.0 and math.isfinite(est.half_width_95)

    @pytest.mark.parametrize("alpha", [2.05, 300.0, 1000.0])
    @pytest.mark.parametrize("tau, noise", [(0.1, 1e-7), (1e-300, 1e-7), (0.0, 1e-7), (0.1, 0.0)])
    def test_extreme_parameters_are_finite_and_warning_free(self, small_cfg, alpha, tau, noise):
        # Ranked and multiplied on logarithms, no power overflows, even where
        # every station nearer than 0.99 R would weigh inf at alpha = 1000.
        cfg = dataclasses.replace(small_cfg, alpha=alpha, tau=tau, noise_power=noise)
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_success(cfg, pi, BiasVector((1.0, 2.0, 4.0, 8.0)),
                                   np.array([0.1, 0.3, 0.5, 0.9]), 2 * BLOCK, seed=8)
        assert 0.0 <= est.mean <= 1.0 and math.isfinite(est.half_width_95)
        if tau == 0.0:
            assert est.mean == 1.0

    def test_occupancy_rounded_above_one(self, small_cfg):
        pi = np.full(4, 0.25)
        bias = flat_bias(3)
        full = estimate_success(small_cfg, pi, bias, np.ones(4), 200, seed=4)
        over = estimate_success(small_cfg, pi, bias, np.full(4, 1.0 + 4e-16), 200, seed=4)
        assert over == full

    def test_rejects_empty_sample(self, small_cfg):
        with pytest.raises(ValueError):
            estimate_success(small_cfg, np.full(4, 0.25), flat_bias(3), np.zeros(4), 0)


def _active_means(cfg, beta: float) -> np.ndarray:
    """The estimator's active-station mean per level at a power-law beta."""
    bias = power_law_bias(beta, cfg.t_levels)
    _, fp = evaluate_bias(cfg, bias)
    r_sim, _ = window(cfg, fp.level_marginals, bias)
    return (cfg.lambda_b * math.pi * r_sim**2
            * fp.level_marginals * np.clip(fp.chain_metrics.p_occu, 0.0, 1.0))


class TestPoissonTable:
    @pytest.mark.parametrize("mean", [0.0, 1e-3, 0.5, 9.0, 99.0, 225.0])
    def test_counts_match_sequential_inversion(self, mean):
        # On a grid of uniforms and just either side of every CDF step the
        # oracle's recurrence takes.
        table, first, guide = _poisson_table([mean])
        assert first.tolist() == [0] and table[-1] == 1.0
        steps, cdf, pmf, c = [], math.exp(-mean), math.exp(-mean), 0
        while cdf < 1.0 - 1e-9:
            steps.append(cdf)
            c += 1
            pmf *= mean / c
            cdf += pmf
        u = np.concatenate((np.arange(10_000) / 10_000,
                            np.array(steps) - 1e-9, np.array(steps) + 1e-9))
        u = u[(u >= 0.0) & (u < 1.0)]
        counts = _search(table, guide, u)
        np.testing.assert_array_equal(counts, [poisson_inverse(x, mean) for x in u])
        if mean == 0.0:
            assert not counts.any()

    def test_shifted_levels(self):
        means = np.array([0.0, 0.5, 9.0, 0.0, 99.0])
        table, first, guide = _poisson_table(means)
        # Shifted by 4, F(c) below 4.4e-16 rounds to 4: a U that small would
        # count those steps, a resolution the docstring states.
        u = (np.arange(1000) + 0.5) / 1000
        ends = np.append(first[1:], table.size)
        for level, mean in enumerate(means):
            assert table[ends[level] - 1] == level + 1.0
            counts = _search(table, guide, u + level) - first[level]
            np.testing.assert_array_equal(counts, [poisson_inverse(x, mean) for x in u])

    def test_block_counts_track_means(self, baseline_cfg):
        # The estimator's own draws: 200 blocks of the baseline at beta = 1.
        means = _active_means(baseline_cfg, 1.0)
        table, first, guide = _poisson_table(means)
        shift = np.arange(means.size)
        counts = np.concatenate([
            _search(table, guide, stream(0, k).random((BLOCK, means.size)) + shift) - first
            for k in range(200)])
        n = counts.shape[0]
        # Poisson: Var(sample mean) = m / n, Var(sample variance) ~ (m + 2 m^2) / n.
        assert (abs(counts.mean(axis=0) - means) < 4.0 * np.sqrt(means / n)).all()
        assert (abs(counts.var(axis=0, ddof=1) - means)
                < 4.0 * np.sqrt((means + 2.0 * means**2) / n)).all()

    @pytest.mark.parametrize("means", [
        [0.0], [1e-3], [0.5], [9.0], [99.0], [225.0],
        [0.0, 0.5, 9.0, 0.0, 99.0],  # test_shifted_levels' table
        "t40",
    ])
    def test_search_is_exact(self, baseline_cfg, means):
        # Adversarial keys: every entry and its neighbours either side, every
        # bucket edge and its neighbours, and each level's U + i at U = 0 and
        # at the rounded-up i + 1, the last level's included.
        if means == "t40":
            means = _active_means(dataclasses.replace(baseline_cfg, t_levels=40), 1.0)
            assert means.size == 41
        table, first, guide = _poisson_table(means)
        levels = len(means)
        assert guide.size == levels * GUIDE + 1
        assert (guide < 0).any() and guide[-1] == -1
        edges = np.arange(guide.size) / GUIDE
        near = np.concatenate((table, edges))
        keys = np.concatenate((near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf),
                               np.arange(levels + 1.0)))
        for level in range(levels):
            x = keys[(keys >= level) & (keys <= level + 1)]
            assert level + 1.0 in x
            np.testing.assert_array_equal(
                _search(table, guide, x) - first[level],
                np.searchsorted(table, x, side="right") - first[level])


class TestEstimateShares:
    def test_uniform_bias_matches_analytics(self, small_cfg):
        pi = np.array([0.1, 0.2, 0.3, 0.4])
        bias = flat_bias(3)
        est = estimate_shares(small_cfg, pi, bias, 150, seed=0)
        np.testing.assert_allclose(est.assoc_share, association_split(pi, bias, small_cfg), atol=0.03)
        # Flat bias: every station carries the same mean load.
        users = average_users(pi, bias, small_cfg)
        np.testing.assert_allclose(est.users_per_bs, users, rtol=0.08)
        assert est.assoc_share.sum() == pytest.approx(1.0, abs=1e-9)

    def test_biased_shares_shift_toward_high_levels(self, small_cfg):
        pi = np.full(4, 0.25)
        heavy = BiasVector((1.0, 2.0, 4.0, 8.0))
        est_flat = estimate_shares(small_cfg, pi, flat_bias(3), 120, seed=1)
        est_heavy = estimate_shares(small_cfg, pi, heavy, 120, seed=1)
        assert est_heavy.assoc_share[3] > est_flat.assoc_share[3]
        assert est_heavy.assoc_share[0] < est_flat.assoc_share[0]
        np.testing.assert_allclose(est_heavy.assoc_share, association_split(pi, heavy, small_cfg), atol=0.04)

    def test_determinism(self, small_cfg):
        pi = np.full(4, 0.25)
        a = estimate_shares(small_cfg, pi, flat_bias(3), 30, seed=9)
        b = estimate_shares(small_cfg, pi, flat_bias(3), 30, seed=9)
        np.testing.assert_array_equal(a.assoc_share, b.assoc_share)
        np.testing.assert_array_equal(a.users_per_bs, b.users_per_bs)
