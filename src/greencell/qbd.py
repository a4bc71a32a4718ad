"""Battery/channel Markov chain per base station.

State (i, j): battery holds i of T energy units, j of N channels busy.
Within a battery level the channel count behaves like an Erlang loss system;
levels are coupled by recharge (up) and consumption (down) transitions, which
gives the generator a block-tridiagonal quasi-birth-death structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericError

ROW_SUM_TOL = 1e-12
RESIDUAL_TOL = 1e-10
DEGENERATE_LEVEL = 1e-14


class SolverError(NumericError):
    """Stationary solve failed: singular block or residual above tolerance."""


@dataclass(frozen=True)
class ChainParams:
    """Chain dimensions and rates, decoupled from the full network config.

    ``t_levels`` may be 0 here (battery dimension collapsed, pure loss
    system); the network-level config insists on t_levels >= 1.
    """

    n_channels: int
    t_levels: int
    mu: float
    omega: float
    nu: float
    static_drain: float

    @classmethod
    def from_config(cls, cfg) -> "ChainParams":
        return cls(
            n_channels=cfg.n_channels,
            t_levels=cfg.t_levels,
            mu=cfg.mu,
            omega=cfg.omega,
            nu=cfg.nu,
            static_drain=cfg.static_drain,
        )


@dataclass
class QbdGenerator:
    """Block-tridiagonal generator.

    d_blocks[i] holds the intra-level transitions plus the diagonal closing
    each global row to zero.  l_blocks[i] = nu * I moves level i -> i+1
    (defined for i < T; one read-only matrix seen at every level),
    m_blocks[i] moves level i -> i-1 (defined for i > 0; slot 0 is kept as
    zeros so that index == level).
    """

    params: ChainParams
    rho: np.ndarray
    d_blocks: np.ndarray
    l_blocks: np.ndarray
    m_blocks: np.ndarray


def build_generator(p: ChainParams, rho) -> QbdGenerator:
    """Assemble the generator blocks for arrival rates ``rho`` (one per level)."""
    rho = np.asarray(rho, dtype=float)
    t, nch = p.t_levels, p.n_channels
    if rho.shape != (t + 1,):
        raise ValueError(f"arrival vector has shape {rho.shape}, expected ({t + 1},)")
    if not np.all(np.isfinite(rho)) or np.any(rho < 0):
        raise ValueError("arrival rates must be finite and nonnegative")

    n = nch + 1
    j = np.arange(n, dtype=float)
    idx = np.arange(n)
    # Rates added term by term, so each diagonal rounds like the per-level
    # reference in the tests.
    out_rate = np.where(j < nch, rho[:, None], 0.0) + j * p.mu
    out_rate[:t] += p.nu
    out_rate[1:] += p.static_drain
    out_rate[1:] += j * p.omega
    d = np.zeros((t + 1, n, n))
    d[:, idx[:-1], idx[:-1] + 1] = rho[:, None]    # admit a call
    d[:, idx[1:], idx[1:] - 1] = j[1:] * p.mu      # complete one
    d[:, idx, idx] = -out_rate
    l = np.broadcast_to(p.nu * np.eye(n), (t, n, n))
    m = np.zeros((t + 1, n, n))
    m[1:, idx, idx] = p.static_drain + p.omega * j
    return QbdGenerator(params=p, rho=rho, d_blocks=d, l_blocks=l, m_blocks=m)


@dataclass
class SteadyState:
    """Stationary distribution of the chain.

    pi has shape (T+1, N+1) and sums to one; level_marginals is the battery
    marginal; residual is the max-norm of pi @ A over the flattened states.
    """

    pi: np.ndarray
    level_marginals: np.ndarray
    residual: float


def solve_steady_state(gen: QbdGenerator) -> SteadyState:
    """Stationary solve by backward block recursion.

    Folds levels T..1 into level 0 one inverse at a time, solves the reduced
    level-0 generator for its null vector, then unrolls the recursion to
    recover the remaining level slices.
    """
    p = gen.params
    t = p.t_levels
    n = p.n_channels + 1

    try:
        q = np.empty_like(gen.d_blocks)
        q[t] = gen.d_blocks[t]
        for i in range(t - 1, -1, -1):
            q[i] = gen.d_blocks[i] - gen.l_blocks[i] @ np.linalg.solve(q[i + 1], gen.m_blocks[i + 1])

        head = _null_row_vector(q[0])
        slices = [head]
        for i in range(t):
            # pi_{i+1} = -pi_i L_i inv(Q_{i+1})
            rhs = -(slices[i] @ gen.l_blocks[i])
            slices.append(np.linalg.solve(q[i + 1].T, rhs))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular block during stationary solve: {exc}") from exc

    pi = np.vstack(slices)
    if np.any(pi < -1e-9 * max(pi.max(), 1.0)):
        raise SolverError("stationary solve produced significantly negative mass")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()

    residual = float(np.abs(stationary_residual(gen, pi)).max())
    if not np.isfinite(residual) or residual > RESIDUAL_TOL:
        raise SolverError(f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return SteadyState(pi=pi, level_marginals=pi.sum(axis=1), residual=residual)


def stationary_residual(gen: QbdGenerator, pi: np.ndarray) -> np.ndarray:
    """``pi @ A`` as (T+1, N+1) level slices, without assembling A.

    Slice i is pi_i D_i + pi_{i-1} L_{i-1} + pi_{i+1} M_{i+1}: the dense
    generator of a large chain would cost (T+1)^2 (N+1)^2 floats per solve.
    """
    out = np.einsum("ij,ijk->ik", pi, gen.d_blocks)
    out[1:] += np.einsum("ij,ijk->ik", pi[:-1], gen.l_blocks)
    out[:-1] += np.einsum("ij,ijk->ik", pi[1:], gen.m_blocks[1:])
    return out


def _null_row_vector(q0: np.ndarray) -> np.ndarray:
    """Row vector x with x @ q0 = 0, first component pinned to 1."""
    a = q0.T
    n = a.shape[0]
    if n == 1:
        return np.ones(1)
    x = np.empty(n)
    x[0] = 1.0
    x[1:] = np.linalg.solve(a[1:, 1:], -a[1:, 0])
    return x


@dataclass
class LevelMetrics:
    """Per-battery-level service metrics conditioned on the level."""

    p_block: np.ndarray
    n_mean: np.ndarray
    p_occu: np.ndarray
    degenerate: np.ndarray  # levels with negligible mass; metrics zeroed there


def level_metrics(ss: SteadyState, n_channels: int) -> LevelMetrics:
    pi = ss.pi
    marg = ss.level_marginals
    j = np.arange(n_channels + 1, dtype=float)
    degenerate = marg < DEGENERATE_LEVEL
    safe = np.where(degenerate, 1.0, marg)
    p_block = np.where(degenerate, 0.0, pi[:, -1] / safe)
    n_mean = np.where(degenerate, 0.0, (pi * j).sum(axis=1) / safe)
    return LevelMetrics(
        p_block=p_block,
        n_mean=n_mean,
        p_occu=n_mean / n_channels,
        degenerate=degenerate,
    )
