"""Downlink analytics: association split, success probability, rate, power.

All formulas condition on the battery-level classes of the base stations: a
level-i station advertises bias B_i, so the plane splits into T+1 thinned
point processes whose densities follow the battery marginals.  Success
probabilities reduce to one semi-infinite integral per tier; throughput needs
that integral across a whole threshold sweep, t = log2(1 + tau) from 0 out to
128, which the 12-point Gauss-Legendre rule on 11 graded panels (132 nodes)
evaluates for all tiers at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import NumericError, exp_power_integral_vec, gauss_legendre_panels, hyp_one_one_neg

GRID_ELEMENTS = 1 << 15  # (tau, i, j) terms per success-grid call; bounds its temporaries

# Panels of the threshold exponent t: graded towards t = 0, where
# P_succ(2^t - 1) can behave like 1 - c sqrt(t) under strong biases, then
# doubling in width out to t = 128, where the integrand has decayed like
# 2^(-2t/alpha) or faster.  The first panel, [0, 4^-3], is taken in
# u = sqrt(t) (nodes u^2, weights w 2u), in which 1 - c sqrt(t) is smooth.
_RATE_NODES, _RATE_WEIGHTS = (a.reshape(-1) for a in gauss_legendre_panels(
    np.concatenate([[0.0], 4.0 ** np.arange(-3, 0), 2.0 ** np.arange(0, 8)])))
_u, _w = gauss_legendre_panels([0.0, 0.125])
_RATE_NODES[:_u.size], _RATE_WEIGHTS[:_u.size] = _u * _u, _w * 2.0 * _u


@dataclass(frozen=True)
class BiasVector:
    """Association biases B_0..B_T with B_0 = 1 as the reference class."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("bias vector must not be empty")
        if vals[0] != 1.0:
            raise ValueError(f"bias of the reference level must be exactly 1, got {vals[0]!r}")
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise ValueError("biases must be finite and positive")
        if not math.isfinite(max(vals) / min(vals)):
            raise ValueError(f"bias ratio max/min = {max(vals):g}/{min(vals):g} overflows a float")
        object.__setattr__(self, "values", vals)

    def as_array(self) -> np.ndarray:
        return np.array(self.values)

    def __len__(self) -> int:
        return len(self.values)


def association_split(level_marginals, bias: BiasVector, cfg) -> np.ndarray:
    """Probability that the typical user associates with each level class.

    Biased max-power association over ``T+1`` independent thinned Poisson
    layers: layer i wins with probability proportional to its density times
    its bias raised to 2/alpha.
    """
    weights = cfg.lambda_b * np.asarray(level_marginals, dtype=float) * bias_weights(bias, cfg)
    return weights / weights.sum()


def interference_factor(tau, alpha: float, bias_ratio) -> np.ndarray | float:
    """Normalized interference weight of one base-station class.

    For SINR threshold ``tau`` and a class whose bias exceeds the serving
    one's by ``bias_ratio`` r, this is the extra interference mass the class
    contributes per unit density, relative to the serving-class distance
    scale: 2 tau / (alpha - 2) r^(2/alpha - 1) F(-tau / r), F from
    :func:`hyp_one_one_neg`.  At alpha = 4 F(-y) = arctan(sqrt(y)) / sqrt(y)
    (Andrews, Baccelli & Ganti, IEEE Trans. Commun. 2011), so the weight is
    sqrt(tau) arctan(sqrt(tau) r^(-1/2)), three passes over the broadcast
    grid.  The checks run on each input; tau / r overflows iff the largest
    tau over the smallest r does, which raises :class:`NumericError`.
    """
    tau = np.asarray(tau, dtype=float)
    r = np.asarray(bias_ratio, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tau must be nonnegative")
    if np.any(r <= 0.0):
        raise ValueError("bias_ratio must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # raised below as a typed failure
        largest = tau.max(initial=0.0) / r.min(initial=math.inf)
    if not np.isfinite(largest):
        raise NumericError("interference argument tau / bias_ratio overflows a float")
    if alpha == 4.0:
        root = np.sqrt(tau)
        return root * np.arctan(root * r**-0.5)
    return 2.0 * tau / (alpha - 2.0) * r ** (2.0 / alpha - 1.0) * hyp_one_one_neg(alpha, tau / r)


def _success_grid(taus: np.ndarray, level_marginals, bias: BiasVector, p_occu, cfg) -> np.ndarray:
    """Success probability for every (threshold, tier) pair, shape (K, T+1).

    The bias ratios B_j / B_i, their distinct values (one at a flat bias) and
    the tier weights are built once; the thresholds then run in chunks of at
    most GRID_ELEMENTS (tau, i, j) terms (:func:`_grid_chunk`).
    """
    taus = np.asarray(taus, dtype=float)
    pi = np.asarray(level_marginals, dtype=float)
    b = bias.as_array()
    lam = cfg.lambda_b * pi
    ratios = b[None, :] / b[:, None]            # [i, j] = B_j / B_i
    scale = ratios ** (2.0 / cfg.alpha) @ lam   # per-tier total geometric weight
    distinct, index = np.unique(ratios, return_inverse=True)
    # The reshape is needed because the inverse's shape differs across numpy versions.
    tiers = scale, distinct, index.reshape(ratios.shape), lam * np.asarray(p_occu, dtype=float)
    step = max(1, GRID_ELEMENTS // b.size ** 2)
    p = np.concatenate([_grid_chunk(taus[k:k + step], *tiers, cfg) for k in range(0, taus.size, step)])
    p[:, pi == 0.0] = 0.0
    return p


def _grid_chunk(taus, scale, distinct, index, load, cfg) -> np.ndarray:
    """Success grid rows of ``taus``: one interference column per distinct
    ratio, and each fading integral in the canonical exp(-kappa v^{alpha/2} - v) form."""
    # np.take keeps z contiguous, so the product below rounds as on the full grid.
    z = np.take(interference_factor(taus[:, None], cfg.alpha, distinct[None, :]), index, axis=1)
    c = scale[None, :] + z @ load               # (K, T+1)
    half_alpha = cfg.alpha / 2.0
    with np.errstate(over="ignore"):  # kappa = inf is a valid input: G = 0
        noise_coef = taus * cfg.noise_power / cfg.p_t
        kappa = noise_coef[:, None] / (math.pi * c) ** half_alpha
    g = exp_power_integral_vec(kappa.reshape(-1), half_alpha).reshape(kappa.shape)
    return np.clip(scale[None, :] * g / c, 0.0, 1.0)


def average_users(level_marginals, bias, cfg) -> np.ndarray:
    """Mean number of users served by a station at each battery level.

    ``bias`` is a BiasVector or an array of bias values; marginals and bias
    values stacked to (B, T+1) give B points, each row summed as if alone.
    """
    weights = bias_weights(bias, cfg)
    load = (np.asarray(level_marginals, dtype=float) * weights).sum(axis=-1, keepdims=True)
    return users_at_load(load, weights, cfg)


def bias_weights(bias, cfg) -> np.ndarray:
    """Association weights B_i^(2/alpha) of a BiasVector or an array of bias values."""
    return (bias.as_array() if isinstance(bias, BiasVector) else bias) ** (2.0 / cfg.alpha)


def users_at_load(load, weights, cfg) -> np.ndarray:
    """Mean users per level at bias-weighted load ``load`` = sum_j pi_j w_j, shape (..., 1).

    They are the chain's arrival rates; users that overflow raise :class:`NumericError`.
    """
    denom = cfg.lambda_b * load
    with np.errstate(over="ignore"):  # rejected just below
        # Clustered users plus uniform users; merging the terms changes the last bit.
        users = cfg.lambda_p * cfg.mean_cluster_users * weights / denom + cfg.lambda_u1 * weights / denom
    if not np.isfinite(users).all():
        raise NumericError("arrival rates are not finite")
    return users


def expected_rates(level_marginals, bias: BiasVector, p_occu, p_block, cfg):
    """Per-tier rates plus tier/mixture success at the configured threshold.

    The rate of tier i is rate_scale (1 - p_block_i) P_i(tau) times the
    integral of P_i(2^t - 1) over t in [0, 128] by the fixed rule.  The 132
    rule nodes and tau itself make one success grid (:func:`_success_grid`),
    its threshold-free terms built once and its thresholds run in chunks of
    at most GRID_ELEMENTS (tau, i, j) terms: one chunk at T = 10, seven at
    T = 40.  Where interference dominates, P_i(2^t - 1) ~ K 2^(-2t/alpha), so
    the tail left beyond t = 128 is K alpha / (2 ln 2) 2^(-256/alpha): below
    1e-18 K at alpha = 4, 1e-12 K at alpha = 6 and 2e-9 K at alpha = 8.
    Noise only makes the integrand decay faster.
    """
    taus = np.append(2.0**_RATE_NODES - 1.0, cfg.tau)
    grid = _success_grid(taus, level_marginals, bias, p_occu, cfg)
    tier_at_tau = grid[-1].copy()  # owned, so a kept result does not pin the whole grid
    p_succ = float((tier_at_tau * association_split(level_marginals, bias, cfg)).sum())
    rates = cfg.rate_scale * (1.0 - np.asarray(p_block, float)) * tier_at_tau * (_RATE_WEIGHTS @ grid[:-1])
    return rates, tier_at_tau, p_succ


def area_throughput(rate_tier, p_assoc, cfg) -> float:
    """Area throughput: user density times the per-tier rates weighted by share."""
    terms = np.asarray(rate_tier, float) * np.asarray(p_assoc, float)
    return float(cfg.user_arrival_density * terms.sum())


class PowerCarbon(NamedTuple):
    p_tot: float
    p_grid: float
    e_tot: float


def power_and_carbon(level_marginals, lm, cfg) -> PowerCarbon:
    """Area power draw, its grid-powered share, and carbon emission.

    Only level-0 stations fall back to the grid; everything else runs on the
    harvested supply, whose carbon intensity is usually zero.
    """
    pi = np.asarray(level_marginals, dtype=float)
    lam = cfg.lambda_b * pi
    p_levels = cfg.p0_static + cfg.delta_p * cfg.p_t * np.asarray(lm.n_mean, float)
    p_tot = float((p_levels * lam).sum())
    p_grid = float(p_levels[0] * lam[0])
    e_tot = (p_grid * cfg.xi_grid + float((p_levels[1:] * lam[1:]).sum()) * cfg.xi_re) * cfg.delta_t
    return PowerCarbon(p_tot=p_tot, p_grid=p_grid, e_tot=e_tot)


def efficiencies(area_rate: float, p_tot: float, e_tot: float, cfg) -> tuple[float, float]:
    """Energy efficiency and carbon efficiency; zero rate yields (0, 0)."""
    if area_rate == 0.0:
        return 0.0, 0.0
    eta_ee = area_rate / p_tot
    eta_ce = area_rate * cfg.delta_t / e_tot if e_tot > 0.0 else math.inf
    return eta_ee, eta_ce


@dataclass(frozen=True)
class NetworkMetrics:
    """Everything downstream reporting needs for one (config, bias) point."""

    p_succ_tier: np.ndarray
    p_succ: float
    rate_tier: np.ndarray
    area_rate: float
    p_tot: float
    p_grid: float
    e_tot: float
    eta_ee: float
    eta_ce: float


def compute_metrics(cfg, bias: BiasVector, level_marginals, lm) -> NetworkMetrics:
    """Full analytic pipeline downstream of a chain solution."""
    rates, tier_at_tau, p_succ = expected_rates(level_marginals, bias, lm.p_occu, lm.p_block, cfg)
    area = area_throughput(rates, association_split(level_marginals, bias, cfg), cfg)
    power = power_and_carbon(level_marginals, lm, cfg)
    eta_ee, eta_ce = efficiencies(area, power.p_tot, power.e_tot, cfg)
    return NetworkMetrics(
        p_succ_tier=tier_at_tau,
        p_succ=p_succ,
        rate_tier=rates,
        area_rate=area,
        p_tot=power.p_tot,
        p_grid=power.p_grid,
        e_tot=power.e_tot,
        eta_ee=eta_ee,
        eta_ce=eta_ce,
    )
