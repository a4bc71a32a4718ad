"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from first principles (recursions,
dense linear algebra, brute-force quadrature) without importing the package
under test, so agreement is meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def erlang_b(offered_load: float, n_servers: int) -> float:
    """Blocking probability of an M/M/N/N loss system, by the stable recursion."""
    b = 1.0
    for n in range(1, n_servers + 1):
        b = offered_load * b / (n + offered_load * b)
    return b


def dense_null_pi(a: np.ndarray) -> np.ndarray:
    """Stationary row vector of generator `a` via SVD null space, normalized."""
    _, s, vt = np.linalg.svd(a.T)
    null = vt[np.argmin(s)]
    pi = null / null.sum()
    return np.where(np.abs(pi) < 1e-15, 0.0, pi)


def midpoint(f, lo: float, hi: float, n: int) -> float:
    """Plain composite midpoint rule; the fixed-grid oracle for adaptive code."""
    x = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    return float(np.sum(f(x)) * (hi - lo) / n)


def z_defining_integral(tau: float, alpha: float, b_ratio: float,
                        n: int = 100_000) -> float:
    """Interference weight by direct quadrature of its defining integral.

    Z = 2 tau Int_{c}^{inf} t^(1-alpha) / (1 + tau t^(-alpha)) dt with
    c = b_ratio^(1/alpha).  Mapping t = c / q^3 compactifies the domain and
    smooths the endpoint, leaving a plain midpoint sum accurate to ~1e-10
    at n = 1e5.
    """
    c = b_ratio ** (1.0 / alpha)
    kappa = tau / b_ratio
    q = (np.arange(n) + 0.5) / n
    integrand = q ** (3.0 * (alpha - 2.0) - 1.0) / (1.0 + kappa * q ** (3.0 * alpha))
    return float(2.0 * tau * c ** (2.0 - alpha) * 3.0 * integrand.sum() / n)


def _philox(*words: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=list(words)))


def _window(cfg, r_sim: float | None) -> float:
    """The package's default disc radius and edge-effect guard, restated."""
    if r_sim is None:
        r_sim = 15.0 / math.sqrt(math.pi * cfg.lambda_b)
    guard = 10.0 / math.sqrt(math.pi * cfg.lambda_b)
    if r_sim < guard:
        raise ValueError(f"window radius {r_sim:.3f} below edge-effect guard {guard:.3f}")
    return r_sim


def estimate_success_per_drop(cfg, level_marginals, bias, p_occu, n_drops: int,
                              seed: int = 0, r_sim: float | None = None
                              ) -> tuple[float, float]:
    """Coverage by one explicit station pattern per drop: (mean, 95% half-width).

    Each drop draws its own Philox stream keyed (seed, drop): a Poisson
    station count, then per station a radius, a battery level from the
    marginals, a fading gain and an activity mark.  The serving station
    maximizes bias times path gain and never interferes; an empty window is
    a failure.
    """
    r_sim = _window(cfg, r_sim)
    cum = np.cumsum(np.asarray(level_marginals, dtype=float))
    cum[-1] = 1.0
    b = np.asarray(bias.values if hasattr(bias, "values") else bias, dtype=float)
    occ = np.asarray(p_occu, dtype=float)
    lam_area = cfg.lambda_b * math.pi * r_sim**2

    hits = np.zeros(n_drops)
    for d in range(n_drops):
        rng = _philox(seed, d)
        n = rng.poisson(lam_area)
        if n == 0:
            continue
        r2 = r_sim**2 * rng.random(n)
        levels = np.searchsorted(cum, rng.random(n), side="right")
        path = r2 ** (-cfg.alpha / 2.0)
        serving = int(np.argmax(b[levels] * path))
        fading = rng.standard_exponential(n)
        active = rng.random(n) < occ[levels]
        active[serving] = False
        interference = cfg.p_t * float((fading[active] * path[active]).sum())
        signal = cfg.p_t * fading[serving] * path[serving]
        if signal > cfg.tau * (cfg.noise_power + interference):
            hits[d] = 1.0
    std = float(hits.std(ddof=1)) if n_drops > 1 else 0.0
    return float(hits.mean()), 1.96 * std / math.sqrt(n_drops)


def estimate_success_blockwise(cfg, level_marginals, bias, p_occu, n_drops: int,
                               seed: int = 0, r_sim: float | None = None,
                               block: int = 128) -> float:
    """Coverage from the batched estimator's draws, reduced drop by drop.

    Block k draws from Philox (seed, k), in this order: a Poisson count per
    (drop, class) with class 2 * level + (0 active, 1 idle) and mean
    lambda_b * area * pi_level * (p_occu or 1 - p_occu); one uniform per
    station, stations laid out by drop then class, scaled to r^2; one Exp(1)
    fading per interferer in station order; one per drop with a station for
    its serving link.  Each drop then takes a plain argmax and sum.
    """
    r_sim = _window(cfg, r_sim)
    pi = np.asarray(level_marginals, dtype=float)
    b = np.asarray(bias.values if hasattr(bias, "values") else bias, dtype=float)
    occ = np.clip(np.asarray(p_occu, dtype=float), 0.0, 1.0)
    means = (cfg.lambda_b * math.pi * r_sim**2 * pi[:, None]
             * np.column_stack((occ, 1.0 - occ))).ravel()
    classes = np.arange(means.size)

    hits = 0
    for k, first in enumerate(range(0, n_drops, block)):
        rng = _philox(seed, k)
        m = min(block, n_drops - first)
        counts = rng.poisson(means, size=(m, means.size))
        r2 = r_sim**2 * rng.random(counts.sum())
        station_class = np.repeat(np.tile(classes, m), counts.ravel())
        path = r2 ** (-cfg.alpha / 2.0)
        ends = np.cumsum(counts.sum(axis=1))
        drops = [(lo, hi) for lo, hi in zip(np.r_[0, ends[:-1]], ends) if hi > lo]
        servers = [lo + int(np.argmax(b[station_class[lo:hi] // 2] * path[lo:hi]))
                   for lo, hi in drops]
        interferer = station_class % 2 == 0
        interferer[servers] = False
        fading = np.zeros(r2.size)
        fading[interferer] = rng.standard_exponential(np.count_nonzero(interferer))
        serving_fading = rng.standard_exponential(len(drops))
        for (lo, hi), s, h in zip(drops, servers, serving_fading):
            interference = cfg.p_t * (fading[lo:hi] * path[lo:hi]).sum()
            hits += cfg.p_t * h * path[s] > cfg.tau * (cfg.noise_power + interference)
    return hits / n_drops


def _disc_points(rng: np.random.Generator, n: int, radius: float, center=None) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    ang = 2.0 * math.pi * rng.random(n)
    pts = np.column_stack((r * np.cos(ang), r * np.sin(ang)))
    if center is not None:
        pts += center
    return pts


@dataclass
class Realization:
    """One sampled network snapshot inside the window disc."""

    bs_xy: np.ndarray          # (n_bs, 2)
    bs_levels: np.ndarray      # (n_bs,) battery level per station
    hotspot_xy: np.ndarray     # (n_hot, 2)
    clustered_xy: np.ndarray   # (n_cl, 2) users within hotspot radius of parent
    cluster_parent: np.ndarray # (n_cl,) index into hotspot_xy
    uniform_xy: np.ndarray     # (n_uni, 2)
    window_radius: float


def sample_realization(cfg, level_marginals, r_sim: float | None = None,
                       seed: int = 0, rng: np.random.Generator | None = None) -> Realization:
    """Draw one snapshot; all counts Poisson, all positions disc-uniform.

    Draw order is fixed (station count, positions, levels; hotspot count,
    positions, per-hotspot user counts, offsets; uniform count, positions),
    which is what makes seeded runs bit-reproducible.
    """
    r_sim = _window(cfg, r_sim)
    if rng is None:
        rng = _philox(seed, 0)
    pi = np.asarray(level_marginals, dtype=float)
    area = math.pi * r_sim**2

    n_bs = rng.poisson(cfg.lambda_b * area)
    bs_xy = _disc_points(rng, n_bs, r_sim)
    cum = np.cumsum(pi)
    cum[-1] = 1.0
    bs_levels = np.searchsorted(cum, rng.random(n_bs), side="right")

    n_hot = rng.poisson(cfg.lambda_p * area)
    hotspot_xy = _disc_points(rng, n_hot, r_sim)
    per_hot = rng.poisson(cfg.mean_cluster_users, size=n_hot)
    cluster_parent = np.repeat(np.arange(n_hot), per_hot)
    offsets = _disc_points(rng, int(per_hot.sum()), cfg.hotspot_radius)
    clustered_xy = hotspot_xy[cluster_parent] + offsets if n_hot else offsets

    n_uni = rng.poisson(cfg.lambda_u1 * area)
    uniform_xy = _disc_points(rng, n_uni, r_sim)

    return Realization(
        bs_xy=bs_xy,
        bs_levels=bs_levels,
        hotspot_xy=hotspot_xy,
        clustered_xy=clustered_xy,
        cluster_parent=cluster_parent,
        uniform_xy=uniform_xy,
        window_radius=r_sim,
    )


@dataclass
class SharesEstimate:
    """Empirical association shares and users-per-station, by battery level."""

    assoc_share: np.ndarray
    assoc_share_half_width: np.ndarray
    users_per_bs: np.ndarray
    users_per_bs_half_width: np.ndarray
    n_samples: int
    seed: int


def estimate_shares(cfg, level_marginals, bias, n_drops: int,
                    seed: int = 0, r_sim: float | None = None) -> SharesEstimate:
    """Empirical association split and per-station load.

    Uniform users pick their own serving station; clustered users inherit
    their hotspot center's choice, so a whole cluster lands on one station.
    Drops with no stations or no users are skipped for the affected
    statistic.
    """
    r_sim = _window(cfg, r_sim)
    pi = np.asarray(level_marginals, dtype=float)
    n_levels = pi.size
    b = np.asarray(bias.values if hasattr(bias, "values") else bias, dtype=float)
    half_alpha = cfg.alpha / 2.0

    share_rows = np.full((n_drops, n_levels), np.nan)
    upb_rows = np.full((n_drops, n_levels), np.nan)
    for d in range(n_drops):
        real = sample_realization(cfg, pi, r_sim=r_sim, rng=_philox(seed, d))
        if real.bs_xy.shape[0] == 0:
            continue
        weights = b[real.bs_levels]

        def serving_levels(points: np.ndarray) -> np.ndarray:
            if points.shape[0] == 0:
                return np.empty(0, dtype=int)
            d2 = ((points[:, None, :] - real.bs_xy[None, :, :]) ** 2).sum(axis=2)
            choice = np.argmax(weights[None, :] * d2 ** (-half_alpha), axis=1)
            return real.bs_levels[choice]

        uni_levels = serving_levels(real.uniform_xy)
        center_levels = serving_levels(real.hotspot_xy)
        cl_levels = center_levels[real.cluster_parent] if real.cluster_parent.size else np.empty(0, dtype=int)

        counts = np.bincount(uni_levels, minlength=n_levels) + np.bincount(
            cl_levels, minlength=n_levels
        )
        total_users = counts.sum()
        if total_users > 0:
            share_rows[d] = counts / total_users
        bs_counts = np.bincount(real.bs_levels, minlength=n_levels)
        present = bs_counts > 0
        upb_rows[d, present] = counts[present] / bs_counts[present]

    def reduce(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n_valid = np.sum(~np.isnan(rows), axis=0)
        mean = np.nanmean(rows, axis=0)
        std = np.nanstd(rows, axis=0, ddof=1)
        half = 1.96 * std / np.sqrt(np.maximum(n_valid, 1))
        return mean, half

    share_mean, share_half = reduce(share_rows)
    upb_mean, upb_half = reduce(upb_rows)
    return SharesEstimate(
        assoc_share=share_mean,
        assoc_share_half_width=share_half,
        users_per_bs=upb_mean,
        users_per_bs_half_width=upb_half,
        n_samples=n_drops,
        seed=seed,
    )
