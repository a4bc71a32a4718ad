"""Coupling loop between battery statistics and cell loads.

The battery marginals pi fix the association split and hence the per-level
user counts, which feed back as the chain's arrival rates.  They reach the
arrivals only through the bias-weighted load s = sum_j w_j pi_j with
w = B^(2/alpha) (:func:`analytics.users_at_load`), so the loop is one scalar
equation, f(s) = sum_j w_j pi_j(s) - s = 0, with pi(s) the chain's
marginals at the arrivals of load s.  Newton's method solves it, with the
slope that a chain solve also returns when its item steps again
(:func:`qbd.solve_steady_state`), kept inside the sign bracket
[min w, max w] by secant and bisection steps.  The first step is Halley's
(Gander, Amer. Math. Monthly 92(2), 1985), with the curvature that the
first chain solve also returns then: from the closed-form
start it lands below ``EPS`` where Newton's step leaves up to 2.4e-6 on the
baseline's power laws, so a biased point takes two chain solves, not three.

:func:`solve_batch` solves many bias vectors of one config in lockstep:
every step stacks the chains of the items still iterating into calls of
:func:`qbd.solve_steady_state` of at most ``CHAIN_ELEMENTS`` block entries
each, while each item keeps its own scalar arithmetic, so an item's result
does not depend on the batch it was solved in.
"""

from __future__ import annotations

import math
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

    An item with constant weights (all 1) starts at its root s = 1, the flat
    chain; every other item starts at s = sum_j w_j pi_j of the closed-form
    law pi of :func:`_battery_law`, or at s = mean(w) if the arrivals
    overflow.  Each step takes one chain solve per item, which returns the
    marginals' slope in s only for the items that step again
    (:func:`_chain_images`).
    The next load is the Newton point, and after the first chain solve,
    which also returns the marginals' curvature in s, the Halley point before
    it (:func:`_next_load`); if none is finite and inside the
    bracket of the signs of f seen so far, the secant point through the last two loads
    (the plain step s + f(s) on the first); failing that, the bracket's
    midpoint.  An item stops once |f(s)| < ``EPS`` s, or after
    ``MAX_CHAIN_SOLVES`` chain solves with ``converged`` false, and its last
    chain solve is its result: the marginals and chain state at s, with the
    users recomputed from those marginals.  ``iterations`` counts its chain solves
    and ``residual`` is |f(s)| / s.  A typed numeric failure of one item is
    that item's entry in the returned list.
    """
    params = qbd.ChainParams.from_config(cfg)
    weights = [analytics.bias_weights(bias, cfg) for bias in biases]
    law = _battery_law(cfg)
    load = [float(w.mean() if law is None or w.min() == w.max() else w @ law) for w in weights]
    bracket = [[float(w.min()), float(w.max())] for w in weights]
    last: list = [None] * len(biases)  # (load, f) of each item's previous step
    outcome: list = [None] * len(biases)
    active = list(range(len(biases)))
    for sweep in range(1, MAX_CHAIN_SOLVES + 1):
        if not active:
            break
        still = []
        images = _chain_images(cfg, params, [weights[k] for k in active], [load[k] for k in active], sweep)
        for k, ss in zip(active, images):
            if isinstance(ss, Exception):
                outcome[k] = ss
                continue
            s, w = load[k], weights[k]
            f, stops = _residual(ss.level_marginals, w, s, sweep)
            if stops:
                users = analytics.average_users(ss.level_marginals, biases[k], cfg)
                outcome[k] = FixedPointResult(
                    ss.level_marginals, users, sweep, abs(f) / s,
                    abs(f) < EPS * s, ss, qbd.level_metrics(ss, cfg.n_channels))
                continue
            bracket[k][f < 0] = s
            curvature = None if ss.marginal_curvature is None else float(ss.marginal_curvature @ w)
            load[k] = _next_load(s, f, float(ss.marginal_slope @ w) - 1.0, last[k], bracket[k], curvature)
            last[k] = s, f
            still.append(k)
        active = still
    return outcome


def _battery_law(cfg) -> np.ndarray | None:
    """Battery law of a birth-death chain, the start of every biased item's load.

    Up at nu below level T; down at d = static drain + omega times the
    Erlang carried load a (1 - B_N(a)) of a = (users at load 1) / mu on N
    channels, the flat chain's mean drain.  So pi_i is proportional to
    (nu / d)^i, taken in logs, and is the point mass at T if d = 0.  None
    if d is not finite (the arrivals overflow).
    """
    a, n = cfg.user_arrival_density / cfg.lambda_b / cfg.mu, cfg.n_channels
    blocked = 1.0  # B_{N-1}(a) by the stable recursion, so a (1 - B_N) = a N / (N + a B_{N-1})
    for k in range(1, n):
        blocked = a * blocked / (k + a * blocked)
    drain = cfg.static_drain + cfg.omega * (a * n / (n + a * blocked))
    if not np.isfinite(drain):
        return None
    if drain == 0.0:
        return np.eye(cfg.t_levels + 1)[-1]
    log_law = np.arange(cfg.t_levels + 1) * (np.log(cfg.nu) - np.log(drain))
    law = np.exp(log_law - log_law.max())
    return law / law.sum()


def _next_load(s: float, f: float, slope: float, previous, bracket: list[float],
               curvature: float | None = None) -> float:
    """Halley point from ``slope`` and ``curvature``, else Newton point, else
    secant point, each only if finite and inside ``bracket``, else its midpoint.

    Halley's step is Newton's times 1 / (1 - L), L = f f'' / (2 f'^2), tried
    only where |L| < 1, the radius of that factor's series in L: beyond it a
    large curvature far from the root cuts the step short.
    """
    lo, hi = bracket
    secant = -1.0 if previous is None or previous[0] == s else (f - previous[1]) / (s - previous[0])
    halley = math.nan
    if curvature is not None and abs(f * curvature) < 2.0 * slope * slope:
        halley = slope - f * curvature / (2.0 * slope)
    for d in (halley, slope, secant):
        if d != 0.0 and lo < s - f / d < hi:
            return s - f / d
    return 0.5 * (lo + hi)


def _residual(marginals, w, s: float, sweep: int) -> tuple[float, bool]:
    """f(s) = sum_j w_j pi_j - s for the chain's marginals pi at load s, and whether
    the item stops after chain solve ``sweep``: once |f| < EPS s, or out of solves."""
    f = float((marginals * w).sum()) - s
    return f, abs(f) < EPS * s or sweep == MAX_CHAIN_SOLVES


def _chain_images(cfg, params, weights, loads, sweep: int) -> list[qbd.SteadyState | NumericError]:
    """Chain state at ``loads[k]`` under ``weights[k]`` in chain solve ``sweep``,
    with its marginals' slope in the load (and their curvature on the first
    solve) if :func:`_residual` says the item steps again, NaN if it stops.

    Stacked solves of at most ``CHAIN_ELEMENTS`` block entries each, the
    stack's kept levels times states per level squared per chain
    (:func:`qbd.fold_plan`); if one raises, its items are solved one at a
    time, so only the failing items fail, each with the error it gives on
    its own.
    """
    s = np.array(loads)[:, None]
    try:
        rho = analytics.users_at_load(s, np.stack(weights), cfg)
        _, top, block = qbd.fold_plan(params, rho)
        group = max(1, CHAIN_ELEMENTS // ((int(np.max(top)) + 1) * block ** 2))
        if len(weights) > group:  # each part returns its own failures
            return [image for lo in range(0, len(weights), group) for image in
                    _chain_images(cfg, params, weights[lo:lo + group], loads[lo:lo + group], sweep)]

        def direction(marginals):  # rho' = -rho / s for the items that step again, NaN for the rest
            again = [not _residual(m, w, x, sweep)[1] for m, w, x in zip(marginals, weights, loads)]
            return np.where(np.array(again)[:, None], -rho / s, np.nan)

        # users_at_load is proportional to 1 / s, so rho'' = 2 rho / s^2.
        ss = qbd.solve_steady_state(qbd.build_generator(params, rho), drho=direction,
                                    ddrho=2.0 * rho / s**2 if sweep == 1 else None)
    except (NumericError, FloatingPointError) as exc:
        if len(weights) == 1:
            return [exc]
        return [_chain_images(cfg, params, [w], [x], sweep)[0] for w, x in zip(weights, loads)]
    curvatures = [None] * len(weights) if ss.marginal_curvature is None else ss.marginal_curvature
    items = zip(ss.pi, ss.level_marginals, ss.residual.tolist(), ss.marginal_slope, curvatures)
    # Each item owns copies of its rows, so a result kept in a memo does not pin its whole stack.
    return [qbd.SteadyState(*(row.copy() if isinstance(row, np.ndarray) else row for row in item)) for item in items]
