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

    d_blocks[..., i, :, :] holds the intra-level transitions plus the
    diagonal closing each global row to zero; a leading batch axis carries
    one chain per row of ``rho``.  l_blocks[i] = nu * I moves level
    i -> i+1 (defined for i < T; one read-only matrix seen at every level),
    m_blocks[i] moves level i -> i-1 (defined for i > 0; slot 0 is kept as
    zeros so that index == level).  L and M do not depend on the arrival
    rates, so one copy serves the whole batch.
    """

    params: ChainParams
    rho: np.ndarray
    d_blocks: np.ndarray
    l_blocks: np.ndarray
    m_blocks: np.ndarray


def build_generator(p: ChainParams, rho) -> QbdGenerator:
    """Assemble the generator blocks for arrival rates ``rho`` (one per level).

    ``rho`` of shape (..., T+1) gives a stack of chains sharing ``p``.
    """
    rho = np.asarray(rho, dtype=float)
    t, nch = p.t_levels, p.n_channels
    if rho.shape[-1:] != (t + 1,):
        raise ValueError(f"arrival vector has shape {rho.shape}, expected (..., {t + 1})")
    if not np.all(np.isfinite(rho)) or np.any(rho < 0):
        raise ValueError("arrival rates must be finite and nonnegative")

    n = nch + 1
    j = np.arange(n, dtype=float)
    idx = np.arange(n)
    # Rates added term by term, so each diagonal rounds like the per-level
    # reference in the tests.
    out_rate = np.where(j < nch, rho[..., None], 0.0) + j * p.mu
    out_rate[..., :t, :] += p.nu
    out_rate[..., 1:, :] += p.static_drain
    out_rate[..., 1:, :] += j * p.omega
    d = np.zeros(rho.shape + (n, n))
    d[..., idx[:-1], idx[:-1] + 1] = rho[..., None]    # admit a call
    d[..., idx[1:], idx[1:] - 1] = j[1:] * p.mu        # complete one
    d[..., idx, idx] = -out_rate
    l = np.broadcast_to(p.nu * np.eye(n), (t, n, n))
    m = np.zeros((t + 1, n, n))
    m[1:, idx, idx] = p.static_drain + p.omega * j
    return QbdGenerator(params=p, rho=rho, d_blocks=d, l_blocks=l, m_blocks=m)


@dataclass
class SteadyState:
    """Stationary distribution of the chain.

    pi has shape (T+1, N+1) and sums to one; level_marginals is the battery
    marginal; residual is the max-norm of pi @ A over the flattened states.
    A stacked generator gives a leading batch axis on all three, with
    ``residual`` an array.
    """

    pi: np.ndarray
    level_marginals: np.ndarray
    residual: float | np.ndarray


def solve_steady_state(gen: QbdGenerator) -> SteadyState:
    """Stationary solve by backward block recursion, one inverse per level.

    Censoring levels i..T onto level i leaves the block
    Q_i = D_i + L_i (-Q_{i+1})^-1 M_{i+1}.  With L = nu I and M diagonal that
    is D_i - nu R_{i+1} diag(m_{i+1}) for R = Q^-1, so each level costs one
    explicit inverse and no solve.  R is entrywise nonpositive in exact
    arithmetic, so entries that rounding pushes above zero are clamped to
    zero; the off-diagonal entries of Q_i are then sums of nonnegative terms,
    and its diagonal is reset to minus the off-diagonal row sum and the
    downward rate, which keeps the censored generator conservative however
    small a level's mass is (Grassmann, Taksar & Heyman, Oper. Res. 1985).
    The head is the null vector of Q_0 normalized to sum one, from one solve
    with the last column of Q_0 replaced by ones; the levels above unroll as
    pi_{i+1} = -nu pi_i R_{i+1}.

    A stacked generator runs the recursion once for the whole stack: the
    inverses, the solve and the products broadcast over the batch axis and
    do per chain the arithmetic of an unstacked solve.  The checks hold per
    chain; if any chain fails one, the whole call raises, with the error of
    that check.
    """
    p = gen.params
    t = p.t_levels
    n = p.n_channels + 1
    d = gen.d_blocks
    batch = d.shape[:-3]
    m = np.diagonal(gen.m_blocks, axis1=1, axis2=2)
    nu_m, neg_m = p.nu * m, -m
    ones = np.ones(n)
    unit = np.zeros(batch + (n, 1))
    unit[..., -1, :] = 1.0

    with np.errstate(all="ignore"):  # a near-singular chain is caught by the checks below
        try:
            r = [None] * (t + 1)
            q = d[..., t, :, :]
            for i in range(t, 0, -1):
                r[i] = np.minimum(np.linalg.inv(q), 0.0)
                q = d[..., i - 1, :, :] - r[i] * nu_m[i]
                diag = q.reshape(batch + (n * n,))[..., :: n + 1]  # a writable view
                diag[...] = 0.0
                np.subtract(neg_m[i - 1], q @ ones, out=diag)
            head = q.copy()
            head[..., -1] = 1.0
            pi = np.empty(batch + (t + 1, n))
            pi[..., 0, :] = np.linalg.solve(np.swapaxes(head, -1, -2), unit)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular block during stationary solve: {exc}") from exc
        for i in range(1, t + 1):
            np.matmul(pi[..., i - 1, None, :], r[i], out=pi[..., i, None, :])
            pi[..., i, :] *= -p.nu

    chain_axes = (-2, -1)
    if not np.isfinite(pi).all():
        raise SolverError("stationary solve overflowed the float range")
    if np.any(pi < -1e-9 * np.maximum(pi.max(axis=chain_axes, keepdims=True), 1.0)):
        raise SolverError("stationary solve produced significantly negative mass")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum(axis=chain_axes, keepdims=True)

    residual = np.abs(stationary_residual(gen, pi)).max(axis=chain_axes)
    worst = residual.max()
    if not np.isfinite(worst) or worst > RESIDUAL_TOL:
        raise SolverError(f"stationary residual {worst:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return SteadyState(pi=pi, level_marginals=pi.sum(axis=-1),
                       residual=residual if batch else float(residual))


def stationary_residual(gen: QbdGenerator, pi: np.ndarray) -> np.ndarray:
    """``pi @ A`` as (T+1, N+1) level slices, without assembling A.

    Slice i is pi_i D_i + pi_{i-1} L_{i-1} + pi_{i+1} M_{i+1}: the dense
    generator of a large chain would cost (T+1)^2 (N+1)^2 floats per solve.
    """
    out = np.einsum("...ij,...ijk->...ik", pi, gen.d_blocks)
    out[..., 1:, :] += np.einsum("...ij,ijk->...ik", pi[..., :-1, :], gen.l_blocks)
    out[..., :-1, :] += np.einsum("...ij,ijk->...ik", pi[..., 1:, :], gen.m_blocks[1:])
    return out


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
