"""Battery/channel Markov chain per base station.

State (i, j): battery holds i of T energy units, j of N channels busy.
Within a battery level the channel count behaves like an Erlang loss system;
levels are coupled by recharge (up) and consumption (down) transitions, which
gives the generator a block-tridiagonal quasi-birth-death structure.  Each
level's block is tridiagonal and the couplings are diagonal, so the generator
is kept as rate vectors; only the stationary solve forms dense blocks, the
folded ones, one level at a time.  Grouped by channel count instead, the
chain has the same structure; :func:`fold_plan` picks the grouping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericError

RESIDUAL_TOL = 1e-10
DEGENERATE_LEVEL = 1e-14
SPLIT_ABOVE = 64  # states per block above which Schur halves beat np.linalg.inv
SLOPE_RTOL = 1e-6  # rounding a marginal slope may carry, relative to its largest entry
TAIL_MASS = 2.0**-64  # channel-count tail mass a fold along channel counts may leave out


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
    """Block-tridiagonal generator, stored as its rate vectors.

    Level i's block D_i admits calls at rate rho[..., i] (j -> j+1, j < N),
    completes them at j mu (j -> j-1) and has the diagonal diag[..., i, :]
    that closes each global row to zero; a leading batch axis carries one
    chain per row of ``rho``.  Level i moves to i+1 at rate nu (params.nu,
    for i < T) and to i-1 at rate m[i, j] (for i > 0; m[0] is zero so that
    index == level).  m does not depend on the arrival rates, so one copy
    serves the whole batch.  Read by channel count j, the same vectors give
    level j's block over the battery levels (nu up, m[:, j] down) and its
    couplings diag(rho) up (for j < N) and j mu down.
    """

    params: ChainParams
    rho: np.ndarray
    diag: np.ndarray
    m: np.ndarray


def build_generator(p: ChainParams, rho) -> QbdGenerator:
    """Assemble the generator's rate vectors for arrival rates ``rho`` (one per level).

    ``rho`` of shape (..., T+1) gives a stack of chains sharing ``p``.
    """
    rho = np.asarray(rho, dtype=float)
    t, nch = p.t_levels, p.n_channels
    if rho.shape[-1:] != (t + 1,):
        raise ValueError(f"arrival vector has shape {rho.shape}, expected (..., {t + 1})")
    if not np.all(np.isfinite(rho)) or np.any(rho < 0):
        raise ValueError("arrival rates must be finite and nonnegative")

    j = np.arange(nch + 1, dtype=float)
    # Rates added term by term, so each diagonal rounds like the per-level
    # reference in the tests.
    out_rate = np.where(j < nch, rho[..., None], 0.0) + j * p.mu
    out_rate[..., :t, :] += p.nu
    out_rate[..., 1:, :] += p.static_drain
    out_rate[..., 1:, :] += j * p.omega
    m = np.zeros((t + 1, nch + 1))
    m[1:] = p.static_drain + p.omega * j
    return QbdGenerator(params=p, rho=rho, diag=-out_rate, m=m)


@dataclass
class SteadyState:
    """Stationary distribution of the chain.

    pi has shape (T+1, N+1) and sums to one; level_marginals is the battery
    marginal; residual is the max-norm of pi @ A over the flattened states;
    marginal_slope, if asked for, is the derivative of level_marginals along
    a path of the arrival rates (NaN for a chain not asked for), and
    marginal_curvature its second derivative.  A stacked generator gives a
    leading batch axis on all of them, with ``residual`` an array.
    """

    pi: np.ndarray
    level_marginals: np.ndarray
    residual: float | np.ndarray
    marginal_slope: np.ndarray | None = None
    marginal_curvature: np.ndarray | None = None


def _inverse(q: np.ndarray) -> np.ndarray:
    """Inverse of each block of the stack ``q``, by 2x2 Schur halves above SPLIT_ABOVE.

    With q = [[A, B], [C, D]] and S = D - C A^-1 B, the inverse is
    [[A^-1 + A^-1 B S^-1 C A^-1, -A^-1 B S^-1], [-S^-1 C A^-1, S^-1]]: two
    half-size inverses (recursing the same way) and six matrix products,
    which run several times faster per flop than ``np.linalg.inv``.  -q is
    a nonsingular M-matrix, and so are its leading blocks and their Schur
    complements, so the split needs no pivoting.
    """
    n = q.shape[-1]
    if n <= SPLIT_ABOVE:
        return np.linalg.inv(q)
    h = n // 2
    a_inv = _inverse(q[..., :h, :h])
    a_inv_b = a_inv @ q[..., :h, h:]
    c_a_inv = q[..., h:, :h] @ a_inv
    out = np.empty_like(q)
    s_inv = out[..., h:, h:]
    s_inv[...] = _inverse(q[..., h:, h:] - q[..., h:, :h] @ a_inv_b)
    np.negative(a_inv_b @ s_inv, out=out[..., :h, h:])
    np.negative(s_inv @ c_a_inv, out=out[..., h:, :h])
    np.subtract(a_inv, out[..., :h, h:] @ c_a_inv, out=out[..., :h, :h])
    return out


def fold_plan(p: ChainParams, rho) -> tuple[bool, int | np.ndarray, int]:
    """(channel, top, states per level) of the fold of :func:`solve_steady_state`.

    The fold runs on battery levels, each a block of N+1 channel states, up to
    top = T; or, on channel counts (``channel`` true), each a block of T+1
    battery states, up to a top level per chain of ``rho`` (one entry per
    chain).  It takes channel counts once N+1 exceeds SPLIT_ABOVE and N > T,
    so that the cubic block inverses run on the smaller side, and for a stack
    of absorbed chains: T > 0, no static drain, and omega = 0 or rho_T = 0 in
    every chain, so that the battery can never leave level T.  Their head
    level j = 0 holds the absorbing state (T, 0).

    The count J moves up at some rho_i <= max rho and down at j mu, whatever
    the battery does, so an M/M/inf queue of load a = max rho / mu dominates
    it: P(J >= c) <= P(Poisson(a) >= c).  Past c + 1 > a the Poisson terms
    fall by at least a / (c + 1) per count, so that tail is at most
    pmf(c) (c + 1) / (c + 1 - a), with log pmf(c) = c ln a - a - ln c!.  A
    chain's top count is the first c >= 1 with c + 1 > a whose bound is below
    TAIL_MASS, or N (c = 0, whose tail is 1, never is).  The bound is above
    the exact tail, so the top is never below the exact tail's first count
    under TAIL_MASS and can be one count higher, leaving out even less mass.
    """
    t, n = p.t_levels + 1, p.n_channels + 1
    absorbed = p.t_levels and p.static_drain == 0.0 and (p.omega == 0.0 or not np.any(rho[..., -1]))
    if not (absorbed or n > SPLIT_ABOVE and n > t):
        return False, p.t_levels, n
    a, c = np.max(rho, axis=-1)[..., None] / p.mu, np.arange(1, n)
    with np.errstate(all="ignore"):  # a = 0 gives log 0; counts with c + 1 <= a are masked
        log_bound = c * np.log(a) - a - np.cumsum(np.log(c)) + np.log((c + 1) / (c + 1 - a))
        below = (c + 1 > a) & (log_bound < np.log(TAIL_MASS))
    below[..., -1] = True
    return True, below.argmax(axis=-1) + 1, t


def solve_steady_state(gen: QbdGenerator, drho=None, ddrho=None) -> SteadyState:
    """Stationary solve by backward block recursion, one inverse per level.

    The levels are those of :func:`fold_plan`, battery levels (couplings
    U = nu I up, W_i = diag(m_i) down) or channel counts (U = diag(rho) up,
    W_j = j mu I down; see :class:`QbdGenerator`), each with a tridiagonal
    block D_k.  Censoring levels k..K onto level k leaves the block
    Q_k = D_k + U (-Q_{k+1})^-1 W_{k+1} = D_k - U R_{k+1} W_{k+1} for
    R = Q^-1 (the off-diagonals of D_k added through strided views), so
    each level costs one explicit inverse (:func:`_inverse`), the only dense
    blocks kept.  R is entrywise nonpositive in exact arithmetic, so entries
    that rounding pushes above zero are clamped to zero; the off-diagonal
    entries of Q_k are then sums of nonnegative terms, and its diagonal is
    reset to minus the off-diagonal row sum and the downward rate, which
    keeps the censored generator conservative however small a level's mass
    is (Grassmann, Taksar & Heyman, Oper. Res. 1985).  The head is the null
    vector of Q_0 normalized to sum one, from one solve with the last column
    of Q_0 replaced by ones; the levels above unroll as
    pi_{k+1} = (pi_k (-U)) R_{k+1} (:func:`_unroll`).
    Channel levels are transposed back, so pi is (T+1, N+1) on either axis.

    R is zero above a chain's top level, so its fold starts there from
    Q = 0, its states at higher counts are zero in pi and in the slope, and a
    stacked chain does the arithmetic of its lone solve.  On channel counts
    this solves the chain with calls blocked at the top level: it leaves out
    less than TAIL_MASS of the mass, and the residual check, run on the whole
    chain, sees the blocked inflow, at most TAIL_MASS max rho.  On battery
    levels a stack that mixes absorbed chains with others raises.

    A stacked generator runs the recursion once for the whole stack: the
    inverses, the solve and the products broadcast over the batch axis and
    do per chain the arithmetic of an unstacked solve.  The checks hold per
    chain; if any chain fails one, the whole call raises, with the error of
    that check.

    With ``drho`` (shaped like ``gen.rho``) the state also carries the slope
    of the level marginals along ``drho``.  The slope x of pi solves
    x A = b = -pi A' with sum(x) = 0, by the same recursion through the
    inverses already held: c_K = b_K and c_k = b_k - (c_{k+1} R_{k+1}) W_{k+1}
    down, the head solve with sum(x_0) = 0, x_k = (c_k - x_{k-1} U) R_k up,
    then the multiple of pi that zeroes the sum is taken out
    (:func:`_solve_through`).  Where the level masses span many
    decades, the rounding of that multiple alone exceeds SLOPE_RTOL of the
    slope, and the chain's slope is NaN.  With ``ddrho`` as well, the second
    derivative of the rates along the path, the state also carries the
    marginals' second derivative: with x' that slope of pi, x2 solves
    x2 A = -2 x' A' - pi A'' with sum(x2) = 0, one more pass through the same
    inverses.  It is NaN wherever the slope is.

    A chain whose row of ``drho`` holds a NaN runs neither pass, and its rows
    are NaN.  ``drho`` may be a function of the (batch, T+1) marginals, called
    once pi is known, so a caller can leave out the chains whose derivatives
    it will not read.  The others' inverses form a smaller stack, so each
    still does the arithmetic of its lone solve.
    """
    p = gen.params
    channel, top, n = fold_plan(p, gen.rho)
    levels = int(np.max(top)) + 1
    batch = gen.rho.shape[:-1]
    if channel:
        swap, up, down = (-2, -1), gen.rho, np.arange(levels) * p.mu
        sup = np.full((levels, 1), p.nu)                                # recharge
        sub = gen.m[1:].T                                               # drain
    else:
        swap, up, down = (-1, -1), np.full(n, p.nu), gen.m
        sup = np.moveaxis(gen.rho, -1, 0)[..., None]                    # admit a call
        sub = np.broadcast_to(np.arange(1, n) * p.mu, (levels, n - 1))  # complete one
    neg_down = -down
    ones = np.ones(n)
    row = np.empty(batch + (1, n))

    with np.errstate(all="ignore"):  # a near-singular chain is caught by the checks below
        try:
            r = [None] * levels
            q = np.zeros(batch + (n, n))
            for k in range(levels - 1, -1, -1):
                flat = q.reshape(batch + (n * n,))  # writable views of the diagonals
                flat[..., 1::n + 1] += sup[k]
                flat[..., n::n + 1] += sub[k]
                flat[..., ::n + 1] = 0.0
                np.subtract(neg_down[k], q @ ones, out=flat[..., ::n + 1])
                if k:
                    r[k] = _inverse(q)
                    np.minimum(r[k], 0.0, out=r[k])
                    r[k][k > top] = 0.0  # no mass above a chain's top level
                    np.multiply(r[k], up[..., :, None] * neg_down[k], out=q)
            q[..., -1] = 1.0
            head = np.swapaxes(q, -1, -2)
            pi = np.zeros(batch + (p.t_levels + 1, p.n_channels + 1))
            lev = np.swapaxes(pi, *swap)  # pi by fold level
            lev[..., 0, -1] = 1.0
            _unroll(lev, head, r, up, row)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular block during stationary solve: {exc}") from exc

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
    marginals, slope, curvature = pi.sum(axis=-1), None, None
    if drho is not None:
        drho = np.asarray(drho(marginals) if callable(drho) else drho, dtype=float)
        keep = ~np.isnan(drho).any(axis=-1)
        slope = np.full(marginals.shape, np.nan)
        curvature = None if ddrho is None else slope.copy()
        if keep.any():
            k = ... if keep.all() else keep  # every chain as a view, or a copy of the kept ones
            held = swap, [None] + [q[k] for q in r[1:]], head[k], up[k] if channel else up, down, row[k]
            with np.errstate(all="ignore"):  # a slope lost to rounding is flagged below
                x = _solve_through(pi[k] * drho[k][..., None], *held)
                shift = x.sum(axis=chain_axes)
                part = x.sum(axis=-1) - shift[..., None] * marginals[k]
                lost = np.abs(shift) * np.finfo(float).eps > SLOPE_RTOL * np.abs(part).max(axis=-1)
                part[lost] = np.nan
                slope[k] = part
                if ddrho is not None:
                    x -= shift[..., None, None] * pi[k]  # the slope of pi itself
                    x = _solve_through(2.0 * x * drho[k][..., None]
                                       + pi[k] * np.asarray(ddrho, dtype=float)[k][..., None], *held)
                    part = x.sum(axis=-1) - x.sum(axis=chain_axes)[..., None] * marginals[k]
                    part[lost] = np.nan
                    curvature[k] = part
    return SteadyState(pi=pi, level_marginals=marginals, residual=residual if batch else float(residual),
                       marginal_slope=slope, marginal_curvature=curvature)


def _solve_through(v, swap, r, head, up, down, row) -> np.ndarray:
    """x A = b with sum(x_0) = 0 by the recursion of :func:`solve_steady_state`, through the held ``r``.

    b_ij = v_ij [j < N] - v_i,j-1, so b = -pi A' for v = pi drho; b and x
    are (..., T+1, N+1), read by fold level through ``swap``, and ``row``
    is scratch space for one level.  b is folded into c and c into x in place.
    """
    x = np.diff(v[..., :-1], axis=-1, prepend=0.0, append=0.0)
    c = np.swapaxes(x, *swap)
    c[..., len(r):, :] = 0.0  # no mass above the kept levels
    for k in range(len(r) - 2, -1, -1):
        np.matmul(c[..., k + 1, None, :], r[k + 1], out=row)
        row *= down[k + 1]
        c[..., k, :] -= row[..., 0, :]
    c[..., 0, -1] = 0.0
    _unroll(c, head, r, up, row)
    return x


def _unroll(c, head, r, up, row) -> None:
    """x_0 from the head solve, then x_k = (c_k - x_{k-1} U) R_k, over c by fold level in place."""
    c[..., 0, :] = np.linalg.solve(head, c[..., 0, :, None])[..., 0]
    for k in range(1, len(r)):
        np.multiply(up, c[..., k - 1, :], out=row[..., 0, :])
        np.subtract(c[..., k, :], row[..., 0, :], out=row[..., 0, :])
        np.matmul(row, r[k], out=c[..., k, None, :])


def stationary_residual(gen: QbdGenerator, pi: np.ndarray) -> np.ndarray:
    """``pi @ A`` as (T+1, N+1) level slices, elementwise from the rate vectors."""
    p = gen.params
    out = pi * gen.diag
    out[..., 1:] += pi[..., :-1] * gen.rho[..., None]                # admitted calls
    out[..., :-1] += pi[..., 1:] * (np.arange(1, p.n_channels + 1) * p.mu)  # completions
    out[..., 1:, :] += p.nu * pi[..., :-1, :]                          # recharge
    out[..., :-1, :] += pi[..., 1:, :] * gen.m[1:]                     # drain
    return out


@dataclass
class LevelMetrics:
    """Per-battery-level service metrics conditioned on the level."""

    p_block: np.ndarray
    n_mean: np.ndarray
    p_occu: np.ndarray


def level_metrics(ss: SteadyState, n_channels: int) -> LevelMetrics:
    pi = ss.pi
    marg = ss.level_marginals
    j = np.arange(n_channels + 1, dtype=float)
    degenerate = marg < DEGENERATE_LEVEL
    safe = np.where(degenerate, 1.0, marg)
    p_block = np.where(degenerate, 0.0, pi[:, -1] / safe)
    n_mean = np.where(degenerate, 0.0, (pi * j).sum(axis=1) / safe)
    return LevelMetrics(p_block=p_block, n_mean=n_mean, p_occu=n_mean / n_channels)
