"""Coupling loop between battery statistics and cell loads.

The battery marginals fix the association split and hence the per-level user
counts; those user counts feed back as the chain's arrival rates.  The loop
is closed by plain Picard iteration from a uniform start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytics, qbd
from .numerics import NumericError

DEFAULT_EPS = 1e-8
DEFAULT_MAX_SWEEPS = 100


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
    """Iterate marginals -> users -> arrivals -> marginals until stationary.

    Non-convergence within ``max_sweeps`` is reported through the flag, not
    raised, so parameter sweeps can record the point and move on.  The
    returned marginals come from one final chain solve at the returned
    arrival rates, so marginals, users, rho, and the chain state are mutually
    consistent by construction; ``residual`` is the max-norm change of the
    marginals under that final sweep.
    """
    if not (eps > 0):
        raise ValueError("eps must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")

    t = cfg.t_levels
    params = qbd.ChainParams.from_config(cfg)
    pi = np.full(t + 1, 1.0 / (t + 1))
    converged = False
    iterations = 0
    for sweep in range(1, max_sweeps + 1):
        users = analytics.average_users(pi, bias, cfg)
        rho = arrival_map(users, cfg)
        ss = qbd.solve_steady_state(qbd.build_generator(params, rho))
        diff = float(np.abs(ss.level_marginals - pi).max())
        pi = ss.level_marginals
        iterations = sweep
        if diff < eps:
            converged = True
            break

    # Settle onto one more chain solve so the returned marginals and chain
    # state agree exactly, then recompute users and arrivals from those
    # returned marginals.  The reported residual is how far one further
    # full sweep would still move the marginals.
    ss = qbd.solve_steady_state(
        qbd.build_generator(params, arrival_map(analytics.average_users(pi, bias, cfg), cfg))
    )
    pi = ss.level_marginals
    lm = qbd.level_metrics(ss, cfg.n_channels)
    users = analytics.average_users(pi, bias, cfg)
    rho = arrival_map(users, cfg)
    check = qbd.solve_steady_state(qbd.build_generator(params, rho))
    residual = float(np.abs(check.level_marginals - pi).max())

    return FixedPointResult(
        level_marginals=pi,
        users=users,
        rho=rho,
        iterations=iterations,
        residual=residual,
        converged=converged,
        chain_state=ss,
        chain_metrics=lm,
    )

