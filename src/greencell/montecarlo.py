"""Spatial Monte-Carlo oracle for the coverage (SINR) formulas.

Each drop samples the station pattern inside a disc window around the
typical user at the origin.  Drops are simulated in blocks of ``BLOCK``;
block k draws from the counter-based stream keyed (seed, k), so results are
reproducible and independent of evaluation order.  The block size is part
of that stream layout: changing it changes every estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import stream

BLOCK = 128


def default_window(cfg) -> float:
    """Simulation disc radius: 225 stations per drop in mean, whatever the config."""
    return 15.0 / math.sqrt(math.pi * cfg.lambda_b)


@dataclass
class McEstimate:
    mean: float
    half_width_95: float
    n_samples: int
    seed: int


def estimate_success(cfg, level_marginals, bias, p_occu, n_drops: int,
                     seed: int = 0) -> McEstimate:
    """Empirical success probability of the typical user at the origin.

    Serving station maximizes bias times long-term received power (the shared
    transmit power cancels); every other station interferes independently
    with its level's occupancy probability; all links fade exponentially.
    Only the station pattern matters here, so user processes are not drawn.
    A drop with an empty window counts as failure.

    Stations are drawn by independent thinning: per drop, one Poisson count
    for each (level, active/idle) class, with mean lambda_b * area * pi_i *
    p_occu_i for active and lambda_b * area * pi_i * (1 - p_occu_i) for idle
    stations.  That has the same law as marking each station of one Poisson
    pattern with a level and an activity.  Fading is drawn only for the
    links it enters: the active interferers and the serving station.
    """
    if n_drops < 1:
        raise ValueError("need at least one drop")
    r_sim = default_window(cfg)
    pi = np.asarray(level_marginals, dtype=float)
    b = np.asarray(bias.values if hasattr(bias, "values") else bias, dtype=float)
    # An occupancy a rounding error above 1 would make the idle mean negative.
    occ = np.clip(np.asarray(p_occu, dtype=float), 0.0, 1.0)
    lam_area = cfg.lambda_b * math.pi * r_sim**2
    half_alpha = cfg.alpha / 2.0

    # Class c = 2 * level + (0 active, 1 idle).  A block's stations are laid
    # out drop by drop and, within a drop, class by class, so every
    # (drop, class) pair is one contiguous segment.
    class_mean = (lam_area * pi[:, None] * np.column_stack((occ, 1.0 - occ))).ravel()
    class_bias = np.repeat(b, 2)
    class_active = np.tile([True, False], pi.size)
    n_class = class_mean.size

    # A block's station-sized arrays reuse buffers kept for the call: freed per
    # block, they were faulted in again or not depending on the heap's history.
    buffers = {}

    def buffer(name: str, size: int) -> np.ndarray:
        if name not in buffers or buffers[name].size < size:
            buffers[name] = np.empty(size + size // 4)
        return buffers[name][:size]

    def block_hits(rng: np.random.Generator, m: int) -> int:
        """Successes among ``m`` drops drawn from ``rng``.

        A function, so that one block's arrays are freed before the next
        block allocates its own.
        """
        counts = rng.poisson(class_mean, size=(m, n_class))
        seg = counts.ravel()
        r2 = rng.random(out=buffer("r2", int(seg.sum())))
        r2 *= r_sim**2
        served = np.flatnonzero(counts.sum(axis=1))
        if served.size == 0:
            return 0

        # Serving station: the largest bias * r2^(-alpha/2) of its drop.  A
        # class shares one bias, so only the nearest station of each segment
        # competes; ties between classes go to the first class.
        seg_start = np.cumsum(seg) - seg
        filled = seg > 0
        nearest = np.full(seg.size, np.inf)
        nearest[filled] = np.minimum.reduceat(r2, seg_start[filled])
        weight = class_bias * nearest.reshape(m, n_class) ** (-half_alpha)
        serv_seg = served * n_class + weight[served].argmax(axis=1)
        # Its index: the first station of its segment at that distance.
        lens = seg[serv_seg]
        offsets = np.cumsum(lens) - lens
        idx = np.arange(lens.sum()) + np.repeat(seg_start[serv_seg] - offsets, lens)
        match = idx[r2[idx] == np.repeat(nearest[serv_seg], lens)]
        serving = match[np.searchsorted(match, seg_start[serv_seg])]

        # Interferers: the active stations other than the serving one, kept
        # in drop order.  Only they and the serving link draw fading.
        interferer = np.repeat(np.tile(class_active, m), seg)
        interferer[serving] = False
        n_rec = int(np.count_nonzero(interferer))
        received = np.compress(interferer, r2, out=buffer("received", n_rec))
        np.power(received, -half_alpha, out=received)
        received *= rng.standard_exponential(out=buffer("fading", n_rec))
        n_int = counts[served][:, class_active].sum(axis=1) - class_active[serv_seg % n_class]
        some = n_int > 0
        interference = np.zeros(served.size)
        if some.any():
            interference[some] = np.add.reduceat(received, (np.cumsum(n_int) - n_int)[some])
        interference *= cfg.p_t
        signal = (cfg.p_t * rng.standard_exponential(served.size)
                  * nearest[serv_seg] ** (-half_alpha))
        return int(np.count_nonzero(signal > cfg.tau * (cfg.noise_power + interference)))

    hits = sum(block_hits(stream(seed, k), min(BLOCK, n_drops - first))
               for k, first in enumerate(range(0, n_drops, BLOCK)))

    mean = hits / n_drops
    # ddof=1 standard deviation of n_drops Bernoulli outcomes with hits ones.
    std = math.sqrt(n_drops * mean * (1.0 - mean) / (n_drops - 1)) if n_drops > 1 else 0.0
    return McEstimate(
        mean=mean,
        half_width_95=1.96 * std / math.sqrt(n_drops),
        n_samples=n_drops,
        seed=seed,
    )
