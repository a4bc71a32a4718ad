"""Coupling loop between battery statistics and cell loads.

The battery marginals fix the association split and hence the per-level user
counts; those user counts feed back as the chain's arrival rates.  The loop
is closed from a uniform start by Anderson mixing (Walker & Ni, SIAM J.
Numer. Anal. 2011): each step combines the last few chain solves so that
their residuals cancel, which needs about 40% fewer solves than plain Picard
iteration on the baseline sweep.

:func:`solve_batch` runs the loop for many bias vectors of one config in
lockstep: every step stacks the chains of the items still iterating into
calls of :func:`qbd.solve_steady_state` of at most ``CHAIN_ELEMENTS`` block
entries each, while each item keeps its own history and mixing arithmetic,
so an item's result does not depend on the batch it was solved in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytics, qbd
from .numerics import NumericError

DEFAULT_EPS = 1e-8
DEFAULT_MAX_SWEEPS = 100
ANDERSON_MEMORY = 3  # past differences mixed into each step
CHAIN_ELEMENTS = 1 << 17  # block entries per stacked chain solve; bounds its memory


def arrival_map(users, cfg) -> np.ndarray:
    """Per-level arrival rates from mean user counts.

    Identity by default; the affine knobs cover units where one user does
    not translate into exactly one call per unit time.  Rates that overflow
    raise :class:`NumericError`.
    """
    u = np.asarray(users, dtype=float)
    rho = cfg.arrival_scale * u + cfg.arrival_offset
    if not np.all(np.isfinite(rho)):
        raise NumericError("arrival rates are not finite")
    return rho


def _mixed_step(xs: list[np.ndarray], gs: list[np.ndarray]) -> np.ndarray:
    """Anderson step from iterates ``xs`` and their images ``gs`` = G(xs).

    With residuals f = G(x) - x and differences dF, dG over the history, the
    coefficients gamma solve the normal equations (dF^T dF) gamma = dF^T f_k
    and the candidate is G(x_k) - dG gamma, renormalized.  A singular system,
    or a candidate with a negative entry or no mass, falls back to the plain
    step G(x_k).
    """
    g = gs[-1]
    if len(xs) < 2:
        return g
    g_hist = np.array(gs)
    f = g_hist - np.array(xs)
    df, dg = np.diff(f, axis=0).T, np.diff(g_hist, axis=0).T
    with np.errstate(all="ignore"):  # a near-singular system may overflow; rejected below
        try:
            gamma = np.linalg.solve(df.T @ df, df.T @ f[-1])
        except np.linalg.LinAlgError:
            return g
        candidate = g - dg @ gamma
        total = candidate.sum()
    if np.all(candidate >= 0.0) and 0.0 < total < np.inf:
        return candidate / total
    return g


@dataclass
class FixedPointResult:
    """Self-consistent operating point (or the last iterate if not converged)."""

    level_marginals: np.ndarray
    users: np.ndarray
    rho: np.ndarray
    iterations: int
    residual: float
    converged: bool
    chain_state: qbd.SteadyState
    chain_metrics: qbd.LevelMetrics


def solve(cfg, bias: analytics.BiasVector, eps: float = DEFAULT_EPS,
          max_sweeps: int = DEFAULT_MAX_SWEEPS) -> FixedPointResult:
    """:func:`solve_batch` for one bias vector; a typed failure is raised."""
    (result,) = solve_batch(cfg, [bias], eps=eps, max_sweeps=max_sweeps)
    if isinstance(result, Exception):
        raise result
    return result


def solve_batch(cfg, biases, eps: float = DEFAULT_EPS,
                max_sweeps: int = DEFAULT_MAX_SWEEPS) -> list[FixedPointResult | NumericError]:
    """Iterate marginals -> users -> arrivals -> marginals until stationary,
    for every bias vector in ``biases``, in lockstep.

    Non-convergence within ``max_sweeps`` is reported through the flag, not
    raised, so parameter sweeps can record the point and move on.  A typed
    numeric failure of one item is that item's entry in the returned list.
    An item leaves the stacked chain solves when it converges, and then
    takes one settling sweep from the loop's last image ``pi``: the chain
    state is solved at the arrivals of ``pi``, the returned marginals are
    that state's, and users and ``rho`` are recomputed from them.
    ``residual`` is the max-norm change of the marginals under that final
    sweep, max |marginals - pi|; so ``rho`` comes from marginals that far
    from those the chain state was solved at.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    params = qbd.ChainParams.from_config(cfg)
    size = len(biases)
    outcome: list = [None] * size

    def images(keys, points) -> dict[int, qbd.SteadyState]:
        """Chain states of items ``keys`` at ``points``; a failure is the item's outcome."""
        states = {}
        for k, image in zip(keys, _chain_images(cfg, params, [biases[k] for k in keys], points)):
            if isinstance(image, Exception):
                outcome[k] = image
            else:
                states[k] = image
        return states

    x = [np.full(cfg.t_levels + 1, 1.0 / (cfg.t_levels + 1))] * size
    pi = [None] * size
    xs, gs = [[] for _ in range(size)], [[] for _ in range(size)]
    iterations, converged = [0] * size, [False] * size
    active = list(range(size))
    for sweep in range(1, max_sweeps + 1):
        if not active:
            break
        still = []
        for k, image in images(active, [x[k] for k in active]).items():
            pi[k] = image.level_marginals
            iterations[k] = sweep
            if float(np.abs(pi[k] - x[k]).max()) < eps:
                converged[k] = True
                continue
            xs[k], gs[k] = xs[k][-ANDERSON_MEMORY:] + [x[k]], gs[k][-ANDERSON_MEMORY:] + [pi[k]]
            x[k] = _mixed_step(xs[k], gs[k])
            still.append(k)
        active = still

    live = [k for k in range(size) if outcome[k] is None]
    for k, ss in images(live, [pi[k] for k in live]).items():
        users = analytics.average_users(ss.level_marginals, biases[k], cfg)
        outcome[k] = FixedPointResult(
            level_marginals=ss.level_marginals,
            users=users,
            rho=arrival_map(users, cfg),
            iterations=iterations[k],
            residual=float(np.abs(ss.level_marginals - pi[k]).max()),
            converged=converged[k],
            chain_state=ss,
            chain_metrics=qbd.level_metrics(ss, cfg.n_channels),
        )
    return outcome


def _chain_images(cfg, params, biases, xs) -> list[qbd.SteadyState | NumericError]:
    """Chain state at marginals ``xs[k]`` under ``biases[k]``, for every k.

    Stacked solves of at most ``CHAIN_ELEMENTS`` block entries each; if one
    raises, its items are solved one at a time, so only the failing items
    fail, each with the error it gives on its own.
    """
    group = max(1, CHAIN_ELEMENTS // ((cfg.t_levels + 1) * (cfg.n_channels + 1) ** 2))
    if len(biases) > group:
        return [image for lo in range(0, len(biases), group)
                for image in _chain_images(cfg, params, biases[lo:lo + group], xs[lo:lo + group])]
    if not biases:
        return []
    try:
        rho = arrival_map(analytics.average_users(
            np.stack(xs), np.array([bias.values for bias in biases]), cfg), cfg)
        if len(biases) == 1:  # unstacked: the batch axis adds ~10% to a small solve
            return [qbd.solve_steady_state(qbd.build_generator(params, rho[0]))]
        ss = qbd.solve_steady_state(qbd.build_generator(params, rho))
    except (NumericError, FloatingPointError) as exc:
        if len(biases) == 1:
            return [exc]
        return [_chain_images(cfg, params, [bias], [x])[0] for bias, x in zip(biases, xs)]
    return [qbd.SteadyState(pi, marginals, float(residual))
            for pi, marginals, residual in zip(ss.pi, ss.level_marginals, ss.residual)]
