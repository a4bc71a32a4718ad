"""Spatial Monte-Carlo oracle for the coverage (SINR) formulas.

Each drop samples the station pattern inside a disc window around the
typical user at the origin and adds the user's success probability given
those stations; the interference from beyond the window enters in closed
form.  :func:`window` sizes the window per call so that a station beyond
it would serve with probability at most ``EPS``, or the bound it reports
where the cap of ``K2_CAP`` stations binds.  Drops are drawn in blocks of
``BLOCK``; block k draws from the counter-based stream keyed (seed, k), so
results are reproducible and independent of evaluation order.  The block
size is part of that stream layout: changing it changes every estimate.
The arithmetic runs over passes of ``PASS`` drops, whole blocks drawn into
arrays the call reuses; the pass size is not part of the stream layout,
and the moments are still taken block by block.  The far field is one call
per pass: its series kernel takes its degree from its domain bound, so each
drop's value does not depend on the drops evaluated with it.
Active-station counts come from inverting a Poisson CDF table, one uniform
per (drop, level), through a guide table of ``GUIDE`` buckets per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import interference_factor
from .numerics import stream

BLOCK = 256
PASS = 4 * BLOCK  # drops whose arithmetic runs as one batch
GUIDE = 256  # guide-table buckets per level of the count tables
EPS = 2.0**-53  # the omission bound the window is sized for
K2_CAP = 225.0  # the most stations per drop in mean


def window(cfg, level_marginals, bias) -> tuple[float, float]:
    """Disc radius R and a bound on the probability that a station beyond R serves.

    Over the whole plane the nearest level-i station has
    pi lambda_b pi_i r^2 ~ Exp(1), independently over levels.  A drop is
    decided inside the window when its best score r^2 B^(-2/alpha) is at most
    R^2 B_max^(-2/alpha), B_max the largest bias of a level with pi_i > 0: no
    station beyond R can score lower.  With K^2 = pi lambda_b R^2 stations in
    mean, the drop is undecided with probability exactly exp(-K^2 Sigma),
    Sigma = sum_i pi_i (B_i / B_max)^(2/alpha) <= 1.  K^2 = ln(1/EPS) / Sigma,
    at least 36.7, makes that EPS (to rounding), unless the cap ``K2_CAP``
    binds and the bound is exp(-K2_CAP Sigma).
    """
    pi = np.asarray(level_marginals, dtype=float)
    b = np.asarray(bias.values if hasattr(bias, "values") else bias, dtype=float)
    sigma = float(pi @ (b / b[pi > 0.0].max()) ** (2.0 / cfg.alpha))
    k2 = min(-math.log(EPS) / sigma, K2_CAP)
    return math.sqrt(k2 / (math.pi * cfg.lambda_b)), max(EPS, math.exp(-K2_CAP * sigma))


@dataclass
class McEstimate:
    mean: float
    half_width_95: float
    n_samples: int
    seed: int
    omission_bound: float  # P(a station beyond the window would serve), from :func:`window`


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _poisson_table(means) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson CDF tables of the given means, for counts by inversion, and their guide.

    Level i's CDF F_i(c), c = 0 .. ceil(m_i + 14 sqrt(m_i) + 40), is shifted up
    by i, and the tables are laid end to end; ``first[i]`` is the index of
    level i's F_i(0).  So for uniforms U in [0, 1),
    ``searchsorted(table, U + i, side="right") - first[i]`` is
    #{c : F_i(c) <= U}, the inverse-CDF count, for all levels in one call.
    The shift costs log2(T + 1) bits: each CDF step is resolved to about
    (T + 1) 2^-53 (1.2e-15 at T = 10).  The last entry of each table is 1,
    so no count exceeds the table, and a zero mean always gives 0.

    ``guide`` turns that search into a lookup (Chen & Asau, 1974): bucket q
    holds the keys in [q, q + 1) / ``GUIDE`` and the number of entries at or
    below its left edge, or -1 where :func:`_search` must still search: where
    two or more entries lie inside the bucket, and in the last bucket, whose
    edge is the table's last entry.  The buckets run across levels, so a key
    U + i that rounds to i + 1 falls on level i + 1's first edge, which counts
    every entry equal to i + 1, as the search does.
    """
    parts = []
    for level, mean in enumerate(np.asarray(means, dtype=float)):
        c = np.arange(math.ceil(mean + 14.0 * math.sqrt(mean) + 40.0))  # all but the last
        cdf = np.ones(c.size + 1)
        if mean > 0.0:
            log_fact = np.concatenate(([0.0], np.cumsum(np.log(c[1:]))))
            cdf[:-1] = np.minimum(np.cumsum(np.exp(c * math.log(mean) - mean - log_fact)), 1.0)
        parts.append(cdf + level)
    first = np.cumsum([0] + [part.size for part in parts[:-1]])
    table = np.concatenate(parts)
    edges = np.arange(len(parts) * GUIDE + 1) / GUIDE
    guide = np.searchsorted(table, edges, side="right")
    inside = np.searchsorted(table, edges[1:], side="left") - guide[:-1]
    guide[np.append(inside >= 2, True)] = -1
    return table, first, guide


def _search(table: np.ndarray, guide: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(table, keys, side="right")`` for keys in [0, levels], by the guide.

    A key in a bucket with at most one entry inside is above the entries at
    or below the bucket's edge, and above the next one iff that is <= key;
    the buckets marked -1 by :func:`_poisson_table` are searched.
    """
    at = guide[(keys * GUIDE).astype(np.intp)]  # exact: GUIDE is a power of two
    slow = at < 0
    at += table[at] <= keys
    at[slow] = np.searchsorted(table, keys[slow], side="right")
    return at


def estimate_success(cfg, level_marginals, bias, p_occu, n_drops: int,
                     seed: int = 0) -> McEstimate:
    """Success probability of the typical user at the origin, averaged over drops.

    The serving station minimizes r^2 B^(-2/alpha), i.e. maximizes bias times
    long-term received power (the shared transmit power cancels); every
    other station is active with its level's occupancy probability, and
    active stations interfere.  All links fade exponentially, so given the
    stations a drop succeeds with probability

        exp(-tau r_s^alpha sigma^2 / P_t) * prod_k 1 / (1 + tau (r_s / x_k)^alpha)
            * exp(-lambda_act pi r_s^2 Z(tau, alpha, (R / r_s)^alpha)),

    the product over the active stations x_k in the window other than the
    serving one, and the last factor the active stations beyond the window
    radius R, of density lambda_act = lambda_b sum_i pi_i p_occu_i, through
    :func:`greencell.analytics.interference_factor` Z.  Without that factor
    the window reads high: on the baseline at 1e5 drops, a mean z of +0.56
    to +0.96 over seeds 0-23 at beta 0-3, and +40 at alpha = 2.5, beta = 3.

    R comes from :func:`window`.  The serving station is the best one in
    the window, which differs from the best in the plane with probability at
    most ``omission_bound``; that omission biases ``mean`` by at most as much.

    Each drop adds that value, not a Bernoulli outcome, so ``mean``
    estimates the same success probability.  Its variance is the Bernoulli
    variance less the part due to fading, so the 95% half-width is 2-4
    times narrower at the baseline.  A drop with an empty window adds 0.

    Only what the value reads is drawn.  Block k draws from stream
    (seed, k), in this order:

    1. one uniform U per (drop, level), turned into a Poisson count of active
       stations of mean lambda_b pi R^2 pi_i p_occu_i by inverting the CDF
       table of :func:`_poisson_table`, built once per call;
    2. one Exp(1) E per (drop, level): the nearest idle station of the level
       is at r^2 = R^2 E / m_i, m_i = lambda_b pi R^2 pi_i (1 - p_occu_i),
       or absent if E >= m_i, which is the law of the nearest of a
       Poisson(m_i) number of uniform points in the disc; farther idle
       stations never enter;
    3. one Exp(1) E per active station, laid out drop by drop and level by
       level within a drop, at r^2 = R^2 exp(-E), i.e. g = -(alpha / 2) E:
       the law of r^2 = R^2 (1 - U), a uniform point in the disc.

    The arithmetic runs once per pass of ``PASS`` drops: each block draws
    its uniforms and idle Exp(1)s into its rows of the pass's arrays, and,
    once the pass's counts are known, its station Exp(1)s into its span of
    the station buffer; each stream is its own, so the estimate does not
    depend on the pass size.  The nearest active station per (drop, level)
    is an indexed minimum over the pass's stations, and the far field one
    call of ``interference_factor``, elementwise at every alpha.

    The candidates for serving are, per level, the nearest active station
    and the nearest idle one; ties go to the lower level, and to the active
    station within a level.  Ranks and interference terms are taken on
    logarithms of the path gains, so no power overflows at large alpha.
    """
    if n_drops < 1:
        raise ValueError("need at least one drop")
    r_sim, omission = window(cfg, level_marginals, bias)
    pi = np.asarray(level_marginals, dtype=float)
    b = np.asarray(bias.values if hasattr(bias, "values") else bias, dtype=float)
    # An occupancy a rounding error above 1 would make the idle mean negative.
    occ = np.clip(np.asarray(p_occu, dtype=float), 0.0, 1.0)
    lam_area = cfg.lambda_b * math.pi * r_sim**2
    active_mean = lam_area * pi * occ
    idle_mean = lam_area * pi * (1.0 - occ)
    half_alpha = cfg.alpha / 2.0

    # A station at r carries g = log((r / R)^alpha); the serving one has the
    # smallest g - log B among the candidates, laid out level by level, the
    # active one first.
    log_bias = np.repeat(np.log(b), 2)
    no_idle = idle_mean <= 0.0
    log_idle_mean = np.log(np.where(no_idle, 1.0, idle_mean))
    log_tau = _log(cfg.tau)
    own_term = math.log1p(cfg.tau)  # the serving station's term, left out
    # log(tau sigma^2 R^alpha / P_t): the noise exponent is exp(noise_log + g_s).
    noise_log = (log_tau + _log(cfg.noise_power) - math.log(cfg.p_t)
                 + half_alpha * math.log(r_sim**2))
    far_mass = float(active_mean.sum())  # lambda_act pi R^2
    n_lev = pi.size

    table, table_start, guide = _poisson_table(active_mean)
    level_shift = np.arange(n_lev)
    # Arrays that every pass of this call reuses, so memory does not grow
    # with the number of drops: the uniforms and idle draws of a pass, its
    # candidates, and its stations with one pad slot, so the sum per drop is
    # a reduction over segments of ``buf``.
    rows = min(PASS, n_drops)
    u = np.empty((rows, n_lev))
    idle = np.empty((rows, n_lev))
    cand = np.empty((rows, n_lev, 2))
    buf = np.empty(0)

    def pass_values(first: int, m: int) -> np.ndarray:
        """Success probabilities of drops first .. first + m - 1, whole blocks of them."""
        nonlocal buf
        blocks = [(stream(seed, (first + a) // BLOCK), slice(a, min(a + BLOCK, m)))
                  for a in range(0, m, BLOCK)]
        for rng, drops in blocks:
            rng.random(out=u[drops])
            rng.standard_exponential(out=idle[drops])
        keys = u[:m]
        keys += level_shift
        counts = _search(table, guide, keys) - table_start
        seg = counts.ravel()
        per_drop = counts.sum(axis=1)
        bounds = np.concatenate(([0], np.cumsum(per_drop)))  # each drop's first station
        n = int(bounds[-1])
        if n >= buf.size:  # room for twice the stations: later passes rarely need more
            buf = np.empty(2 * n + 1)
        for rng, drops in blocks:
            rng.standard_exponential(out=buf[bounds[drops.start]:bounds[drops.stop]])
        g = buf[:n]
        g *= -half_alpha  # r^2 = R^2 exp(-E)

        # The nearest station per (drop, level), inf where there is none.
        nearest = np.full(seg.size, np.inf)
        np.minimum.at(nearest, np.repeat(np.arange(seg.size), seg), g)
        log_e = idle[:m]
        with np.errstate(divide="ignore"):  # E = 0 puts a station at the origin
            np.log(log_e, out=log_e)
        log_e -= log_idle_mean
        log_e[(log_e >= 0.0) | no_idle] = np.inf  # E >= m_i: no idle station in the window
        both = cand[:m]
        both[:, :, 0] = nearest.reshape(m, n_lev)
        np.multiply(log_e, half_alpha, out=both[:, :, 1])
        both = both.reshape(m, -1)
        best = (both - log_bias).argmin(axis=1)
        g_s = both[np.arange(m), best]
        served = g_s < np.inf
        g_s[~served] = 0.0

        # log(1 + tau (r_s / x_k)^alpha) over every active station, less the
        # serving station's own term.  A term past exp's range gives a drop
        # whose value is below 1e-308, i.e. 0.
        np.subtract(np.repeat(log_tau + g_s, per_drop), g, out=g)
        with np.errstate(over="ignore"):
            np.exp(g, out=g)
        np.log1p(g, out=g)
        buf[n] = 0.0  # the pad
        log_p = np.add.reduceat(buf[:n + 1], bounds[:-1])
        log_p[per_drop == 0] = 0.0  # as above, for a drop with no active station
        log_p[served & (best % 2 == 0)] -= own_term
        with np.errstate(over="ignore"):  # a huge exponent means a factor of 0
            log_p += np.exp(noise_log + g_s)
            far = interference_factor(cfg.tau, cfg.alpha, np.exp(-g_s))
            log_p += far_mass * np.exp(g_s / half_alpha) * far
        p = np.exp(-log_p)
        p[~served] = 0.0
        return p

    # Per-block moments pooled as they come (Chan, Golub & LeVeque, 1979).
    total, m2 = 0.0, 0.0
    for first in range(0, n_drops, PASS):
        p = pass_values(first, min(PASS, n_drops - first))
        for a in range(0, p.size, BLOCK):
            block, done = p[a:a + BLOCK], first + a
            m = block.size
            block_total = float(block.sum())
            block -= block_total / m
            if done:
                delta = block_total / m - total / done
                m2 += delta * delta * done * m / (done + m)
            total += block_total
            m2 += float(block @ block)

    std = math.sqrt(m2 / (n_drops - 1)) if n_drops > 1 else 0.0
    return McEstimate(
        mean=total / n_drops,
        half_width_95=1.96 * std / math.sqrt(n_drops),
        n_samples=n_drops,
        seed=seed,
        omission_bound=omission,
    )
