"""Coupling loop between battery statistics and cell loads.

The battery marginals pi fix the association split and hence the per-level
user counts, which feed back as the chain's arrival rates.  They reach the
arrivals only through the bias-weighted load s = sum_j w_j pi_j with
w = B^(2/alpha) (:func:`analytics.users_at_load`), so the loop is one scalar
equation, f(s) = sum_j w_j pi_j(s) - s = 0, with pi(s) the chain's
marginals at the arrivals of load s.  Newton's method solves it, with the
slope that each chain solve also returns (:func:`qbd.solve_steady_state`),
kept inside the sign bracket [min w, max w] by secant and bisection steps.

:func:`solve_batch` solves many bias vectors of one config in lockstep:
every step stacks the chains of the items still iterating into calls of
:func:`qbd.solve_steady_state` of at most ``CHAIN_ELEMENTS`` block entries
each, while each item keeps its own scalar arithmetic, so an item's result
does not depend on the batch it was solved in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytics, qbd
from .numerics import NumericError

EPS = 1e-8  # stop once the relative load residual |f(s)| / s is below this
MAX_CHAIN_SOLVES = 100  # or after this many chain solves, with converged false
CHAIN_ELEMENTS = 1 << 17  # block entries per stacked chain solve; bounds its memory


@dataclass
class FixedPointResult:
    """Self-consistent operating point (or the last iterate if not converged)."""

    level_marginals: np.ndarray
    users: np.ndarray
    iterations: int
    residual: float
    converged: bool
    chain_state: qbd.SteadyState
    chain_metrics: qbd.LevelMetrics


def solve(cfg, bias: analytics.BiasVector) -> FixedPointResult:
    """:func:`solve_batch` for one bias vector; a typed failure is raised."""
    (result,) = solve_batch(cfg, [bias])
    if isinstance(result, Exception):
        raise result
    return result


def solve_batch(cfg, biases) -> list[FixedPointResult | NumericError]:
    """Solve f(s) = 0 for the load s of every bias vector in ``biases``, in lockstep.

    When any item's weights are not all 1, step 0 solves the flat chain
    (weights 1 at load 1) once: that is the first chain solve of every flat
    item, and every other item starts at s = sum_j w_j pi_j of it, or at
    s = mean(w) if it failed.  Each step takes one chain solve per item.
    The next load is the Newton point; if that is not finite or leaves the
    bracket of the signs of f seen so far, the secant point through the last two loads
    (the plain step s + f(s) on the first); failing both, the bracket's
    midpoint.  An item stops once |f(s)| < ``EPS`` s, or after
    ``MAX_CHAIN_SOLVES`` chain solves with ``converged`` false, and its last
    chain solve is its result: the marginals and chain state at s, with the
    users recomputed from those marginals.  ``iterations`` counts its chain solves
    and ``residual`` is |f(s)| / s.  A typed numeric failure of one item is
    that item's entry in the returned list.
    """
    params = qbd.ChainParams.from_config(cfg)
    weights = [analytics.bias_weights(bias, cfg) for bias in biases]
    load = [float(w.mean()) for w in weights]
    bracket = [[float(w.min()), float(w.max())] for w in weights]
    # Constant weights are all 1 (B_0 = 1): the flat chain at load 1 is such
    # an item's first chain solve, and sum_j w_j pi_j of it starts the others.
    flat_items = [k for k, w in enumerate(weights) if (w == 1.0).all()]
    shared = {}  # item -> its first chain state, taken from the flat chain
    if len(flat_items) < len(biases):
        (flat,) = _chain_images(cfg, params, [np.ones(cfg.t_levels + 1)], [1.0])
        shared = dict.fromkeys(flat_items, flat)
        if not isinstance(flat, Exception):
            load = [load[k] if k in shared else float(w @ flat.level_marginals)
                    for k, w in enumerate(weights)]
    last: list = [None] * len(biases)  # (load, f) of each item's previous step
    outcome: list = [None] * len(biases)
    active = list(range(len(biases)))
    for sweep in range(1, MAX_CHAIN_SOLVES + 1):
        if not active:
            break
        still = []
        todo = [k for k in active if k not in shared]
        images = {**shared, **dict(zip(todo, _chain_images(
            cfg, params, [weights[k] for k in todo], [load[k] for k in todo])))}
        shared = {}
        for k in active:
            ss = images[k]
            if isinstance(ss, Exception):
                outcome[k] = ss
                continue
            s, w = load[k], weights[k]
            f = float((ss.level_marginals * w).sum()) - s
            if abs(f) < EPS * s or sweep == MAX_CHAIN_SOLVES:
                users = analytics.average_users(ss.level_marginals, biases[k], cfg)
                outcome[k] = FixedPointResult(
                    ss.level_marginals, users, sweep, abs(f) / s,
                    abs(f) < EPS * s, ss, qbd.level_metrics(ss, cfg.n_channels))
                continue
            bracket[k][f < 0] = s
            load[k] = _next_load(s, f, float(ss.marginal_slope @ w) - 1.0, last[k], bracket[k])
            last[k] = s, f
            still.append(k)
        active = still
    return outcome


def _next_load(s: float, f: float, slope: float, previous, bracket: list[float]) -> float:
    """Newton point from ``slope``, else secant point, else midpoint of ``bracket``."""
    lo, hi = bracket
    secant = -1.0 if previous is None or previous[0] == s else (f - previous[1]) / (s - previous[0])
    for d in (slope, secant):
        if d != 0.0 and lo < s - f / d < hi:
            return s - f / d
    return 0.5 * (lo + hi)


def _chain_images(cfg, params, weights, loads) -> list[qbd.SteadyState | NumericError]:
    """Chain state, with its marginals' slope in the load, at ``loads[k]`` under ``weights[k]``.

    Stacked solves of at most ``CHAIN_ELEMENTS`` block entries each; if one
    raises, its items are solved one at a time, so only the failing items
    fail, each with the error it gives on its own.
    """
    group = max(1, CHAIN_ELEMENTS // ((cfg.t_levels + 1) * (cfg.n_channels + 1) ** 2))
    if len(weights) > group:
        return [image for lo in range(0, len(weights), group)
                for image in _chain_images(cfg, params, weights[lo:lo + group], loads[lo:lo + group])]
    try:
        s = np.array(loads)[:, None]
        rho = analytics.users_at_load(s, np.stack(weights), cfg)
        ss = qbd.solve_steady_state(qbd.build_generator(params, rho), drho=-rho / s)
    except (NumericError, FloatingPointError) as exc:
        if len(weights) == 1:
            return [exc]
        return [_chain_images(cfg, params, [w], [x])[0] for w, x in zip(weights, loads)]
    return [qbd.SteadyState(pi, marginals, float(residual), slope) for pi, marginals, residual, slope
            in zip(ss.pi, ss.level_marginals, ss.residual, ss.marginal_slope)]
