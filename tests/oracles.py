"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written from first principles (recursions,
dense linear algebra, brute-force quadrature) without importing the package
under test, so agreement is meaningful.  The one exception is
:func:`success_probability`, which reads the package's own success grid at a
single threshold so that tests can pin it against closed forms.  The helpers
at the end (:func:`flat_bias`, :func:`save_config`, :func:`read_csv`) are
test plumbing rather than oracles: the package itself has no use for them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np


def erlang_b(offered_load: float, n_servers: int) -> float:
    """Blocking probability of an M/M/N/N loss system, by the stable recursion."""
    b = 1.0
    for n in range(1, n_servers + 1):
        b = offered_load * b / (n + offered_load * b)
    return b


def poisson_tail(a: float, c: int) -> float:
    """P(X >= c) for X ~ Poisson(a): the ``math.fsum`` of the pmf from c on.

    Each term is taken in logs, and the sum runs 60 + 20 sqrt(a) counts past
    max(c, a), where the terms have fallen below e^-200 of the mode's.
    """
    if a == 0.0:
        return float(c == 0)
    stop = max(c, math.ceil(a)) + 60 + math.ceil(20.0 * math.sqrt(a))
    return math.fsum(math.exp(k * math.log(a) - a - math.lgamma(k + 1.0)) for k in range(c, stop))


def dense_null_pi(a: np.ndarray) -> np.ndarray:
    """Stationary row vector of generator `a` via SVD null space, normalized."""
    _, s, vt = np.linalg.svd(a.T)
    null = vt[np.argmin(s)]
    pi = null / null.sum()
    return np.where(np.abs(pi) < 1e-15, 0.0, pi)


def gth_stationary(a: np.ndarray) -> np.ndarray:
    """Stationary row vector of an irreducible generator by GTH state reduction.

    Grassmann, Taksar & Heyman (Oper. Res. 1985): states are censored out
    one at a time from the last, each exit rate taken as the sum of the
    off-diagonal rates to the states left, so no step subtracts and every
    entry keeps its relative accuracy however small it is.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ a[:k, k]
    return pi / pi.sum()


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


def interference_weight(tau: float, alpha: float, b_ratio: float) -> float:
    """:func:`z_defining_integral` at n = 2e4 and 4e4, Richardson-extrapolated.

    The midpoint error is a series in even powers of the step, so the
    combination (4 Z_2n - Z_n) / 3 cancels its leading term: about 1e-15
    relative at alpha = 4, tau = 1.
    """
    coarse = z_defining_integral(tau, alpha, b_ratio, n=20_000)
    fine = z_defining_integral(tau, alpha, b_ratio, n=40_000)
    return (4.0 * fine - coarse) / 3.0


def simpson_adaptive(f, a: float, b: float, tol: float, max_depth: int = 18) -> float:
    """Composite Simpson on [a, b], doubling the node count until converged.

    ``f`` must accept a numpy array of abscissae.  Refinement stops when the
    usual |S_fine - S_coarse| < 15 tol estimate holds; the Richardson-
    corrected fine value is returned.
    """
    x = np.linspace(a, b, 5)
    fx = f(x)
    s_prev = _composite_simpson(fx[::2], (b - a) / 2.0)
    s = _composite_simpson(fx, (b - a) / 4.0)
    for _ in range(max_depth):
        if abs(s - s_prev) < 15.0 * tol:
            return s + (s - s_prev) / 15.0
        mid = 0.5 * (x[:-1] + x[1:])
        fmid = f(mid)
        x_new = np.empty(x.size + mid.size)
        f_new = np.empty_like(x_new)
        x_new[0::2], x_new[1::2] = x, mid
        f_new[0::2], f_new[1::2] = fx, fmid
        x, fx = x_new, f_new
        s_prev, s = s, _composite_simpson(fx, x[1] - x[0])
    return s


def _composite_simpson(values: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()))


def integrate_decaying(f, scale: float, tol: float, tail_frac: float = 1e-12, max_panels: int = 80) -> float:
    """Integral of a nonnegative decaying ``f`` over [0, inf).

    Panels start at width ``scale`` (roughly the decay length) and double;
    integration stops once a panel contributes less than ``tail_frac`` of the
    running total, which for an exponentially decaying integrand bounds the
    discarded tail by a comparable fraction.
    """
    if not (scale > 0 and np.isfinite(scale)):
        raise ValueError("decay scale must be positive and finite")
    total = 0.0
    a, width = 0.0, scale
    for k in range(max_panels):
        part = simpson_adaptive(f, a, a + width, tol)
        total += part
        if k >= 1 and abs(part) < tail_frac * abs(total):
            return total
        a += width
        if k >= 1:
            width *= 2.0
    raise RuntimeError("semi-infinite integral failed to wind down")


def fading_integral(kappa: float, power: float) -> float:
    """G(kappa) = Int_0^inf exp(-kappa v^power - v) dv by adaptive Simpson.

    Past kappa = 1 the integral is taken in u = v / s with s = kappa^(-1/power),
    G = s Int exp(-u^power - s u) du, whose integral is of order 1: the
    absolute tolerance then stays relative out to kappa = 1e12.
    """
    if kappa <= 1.0:
        return integrate_decaying(lambda v: np.exp(-kappa * v**power - v), scale=1.0, tol=1e-15)
    s = kappa ** (-1.0 / power)
    return s * integrate_decaying(lambda u: np.exp(-(u**power) - s * u), scale=1.0, tol=1e-15)


SUCCESS_TOL = 1e-9        # absolute tolerance of the success-probability integral


def _bias_array(bias) -> np.ndarray:
    return np.asarray(bias.values if hasattr(bias, "values") else bias, dtype=float)


def interference_coefficient(i: int, level_marginals, bias, p_occu, cfg, tau: float | None = None) -> float:
    """Effective interferer density seen by a user served at level i.

    The geometric term counts every station of each class inside the serving
    class's distance scale; the fading term adds the classes' active-channel
    interference weighted by their occupancy.
    """
    if tau is None:
        tau = cfg.tau
    b = _bias_array(bias)
    lam = cfg.lambda_b * np.asarray(level_marginals, dtype=float)
    ratios = b / b[i]
    z = np.array([interference_weight(tau, cfg.alpha, r) for r in ratios])
    return float((lam * (ratios ** (2.0 / cfg.alpha) + np.asarray(p_occu, float) * z)).sum())


def success_probability_tier(i: int, level_marginals, bias, p_occu, cfg, tau: float | None = None) -> float:
    """Success probability conditioned on being served by a level-i station.

    Direct adaptive quadrature of the noise-and-interference integral after
    the u = x^2 substitution.  Empty tiers (no stations at level i) have no
    conditional distribution; the probability is defined as 0 there.
    """
    if tau is None:
        tau = cfg.tau
    pi = np.asarray(level_marginals, dtype=float)
    if pi[i] == 0.0:
        return 0.0
    b = _bias_array(bias)
    lam = cfg.lambda_b * pi
    ratios = b / b[i]
    scale_i = float((lam * ratios ** (2.0 / cfg.alpha)).sum())
    c_i = interference_coefficient(i, level_marginals, bias, p_occu, cfg, tau)
    noise_coef = tau * cfg.noise_power / cfg.p_t
    decay = math.pi * c_i
    if noise_coef == 0.0:
        return min(1.0, scale_i / c_i)
    half_alpha = cfg.alpha / 2.0
    u_scale = min(1.0 / decay, noise_coef ** (-1.0 / half_alpha))
    integral = integrate_decaying(
        lambda u: np.exp(-noise_coef * u**half_alpha - decay * u),
        scale=u_scale,
        tol=SUCCESS_TOL,
    )
    return float(np.clip(math.pi * scale_i * integral, 0.0, 1.0))


def throughput_time_integral(p_succ_fn, tol: float = 1e-7, t_cap: float = 128.0,
                             tail_frac: float = 1e-6) -> float:
    """Integral of P_succ(2^t - 1) over t in [0, t_cap] with early truncation."""

    def integrand(ts: np.ndarray) -> np.ndarray:
        return np.array([p_succ_fn(2.0**t - 1.0) for t in np.atleast_1d(ts)])

    total = 0.0
    edge, width = 0.0, 2.0
    while edge < t_cap:
        part = simpson_adaptive(integrand, edge, min(edge + width, t_cap), tol)
        total += part
        edge += width
        if part < tail_frac * total:
            break
    return total


def expected_rate_tier(i: int, p_block_i: float, p_succ_fn, cfg) -> float:
    """Expected per-user throughput at tier i, single-tier quadrature path."""
    admitted = 1.0 - p_block_i
    if admitted <= 0.0:
        return 0.0
    base = p_succ_fn(cfg.tau)
    if base == 0.0:
        return 0.0
    return cfg.rate_scale * admitted * base * throughput_time_integral(p_succ_fn)


def success_probability(level_marginals, bias, p_occu, cfg, tau: float | None = None):
    """Per-tier success probabilities at one threshold and their association mixture.

    A one-row call of the package's success grid, mixed by its association
    split; the package itself evaluates the threshold inside the rate grid.
    """
    from greencell.analytics import _success_grid, association_split

    if tau is None:
        tau = cfg.tau
    tier = _success_grid(np.array([tau]), level_marginals, bias, p_occu, cfg)[0]
    return tier, float((tier * association_split(level_marginals, bias, cfg)).sum())


def success_grid_per_pair(taus, level_marginals, bias, p_occu, cfg) -> np.ndarray:
    """The package's success grid with one hypergeometric element per (tau, i, j).

    The same arithmetic as ``analytics._success_grid``, but with the
    interference weight evaluated for every bias-ratio pair rather than once
    per distinct ratio, so that the package's sharing can be pinned bit for bit.
    """
    from greencell.analytics import exp_power_integral_vec, interference_factor

    taus = np.asarray(taus, dtype=float)
    pi = np.asarray(level_marginals, dtype=float)
    b = bias.as_array()
    lam = cfg.lambda_b * pi
    ratios = b[None, :] / b[:, None]
    scale = ratios ** (2.0 / cfg.alpha) @ lam
    z = interference_factor(taus[:, None, None], cfg.alpha, ratios[None])
    c = scale[None, :] + z @ (lam * np.asarray(p_occu, dtype=float))
    with np.errstate(over="ignore"):
        kappa = (taus * cfg.noise_power / cfg.p_t)[:, None] / (math.pi * c) ** (cfg.alpha / 2.0)
    g = exp_power_integral_vec(kappa.reshape(-1), cfg.alpha / 2.0).reshape(kappa.shape)
    p = np.clip(scale[None, :] * g / c, 0.0, 1.0)
    p[:, pi == 0.0] = 0.0
    return p


def success_probability_curve(i: int, level_marginals, bias, p_occu, cfg, taus) -> np.ndarray:
    """P_succ of tier i at every threshold in ``taus``, elementwise.

    The interference weights come from the hypergeometric closed form
    (:func:`hyp_from_series`).  The fading integral
    Int_0^inf exp(-kappa v^(alpha/2) - v) dv becomes, with v = s u^2, the
    smooth s Int_0^inf 2u exp(-kappa s^(alpha/2) u^alpha - s u^2) du, taken
    by a 16-point Gauss-Legendre rule on panels of width 0.4 over [0, 6.4].
    The scale is s = 1 while kappa <= 1 and s = kappa^(-2/alpha) past it, so
    one of the two coefficients is 1 and neither exceeds it; that resolves
    the integral to about 1e-14 at any kappa, past a noise cliff too.
    """
    pi = np.asarray(level_marginals, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if pi[i] == 0.0:
        return np.zeros(taus.shape)
    b = _bias_array(bias)
    lam = cfg.lambda_b * pi
    ratios = b / b[i]
    delta = 2.0 / cfg.alpha
    scale = float((lam * ratios**delta).sum())
    z = (2.0 * taus[:, None] / (cfg.alpha - 2.0) * ratios ** (delta - 1.0)
         * hyp_from_series(cfg.alpha, taus[:, None] / ratios))
    c = scale + z @ (lam * np.asarray(p_occu, dtype=float))
    kappa = taus * cfg.noise_power / cfg.p_t / (math.pi * c) ** (cfg.alpha / 2.0)
    s = np.maximum(kappa, 1.0) ** -delta
    x, w = np.polynomial.legendre.leggauss(16)
    u = (np.arange(0.0, 6.4, 0.4)[:, None] + 0.2 * (1.0 + x)).ravel()
    g = s * (np.exp(-np.minimum(kappa, 1.0)[:, None] * u**cfg.alpha - s[:, None] * u * u)
             @ (np.tile(0.2 * w, 16) * 2.0 * u))
    return np.clip(scale * g / c, 0.0, 1.0)


def rate_tier_untruncated(i: int, level_marginals, bias, p_occu, p_block_i: float, cfg,
                          t_max: float = 200.0) -> float:
    """Per-user rate of tier i with no tail stop, the integral taken to ``t_max``.

    rate_scale (1 - p_block_i) P_i(tau) Int_0^t_max P_i(2^t - 1) dt, by a
    16-point Gauss-Legendre rule on 409 panels: eleven graded geometrically
    from 4^-10 up to 1, where P_i(2^t - 1) can behave like 1 - c sqrt(t),
    then 398 of width 0.5.
    """
    edges = np.concatenate([[0.0], 4.0 ** np.arange(-10, 0), np.linspace(1.0, t_max, 399)])
    x, w = np.polynomial.legendre.leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    ts = (edges[:-1, None] + half * (1.0 + x)).ravel()
    curve = success_probability_curve(i, level_marginals, bias, p_occu, cfg,
                                      np.concatenate([[cfg.tau], 2.0**ts - 1.0]))
    return cfg.rate_scale * (1.0 - p_block_i) * curve[0] * float((half * w).ravel() @ curve[1:])


def picard_fixed_point(image, x0, eps: float, max_sweeps: int):
    """Plain Picard iteration x <- G(x) for the chain/load coupling.

    Stops once max |G(x) - x| < eps and takes the image; then applies G once
    more to settle, and reports how far that settling application moved the
    marginals.  Returns (marginals, iterations, converged, residual).
    """
    x = np.asarray(x0, dtype=float)
    converged = False
    iterations = 0
    for sweep in range(1, max_sweeps + 1):
        g = image(x)
        diff = float(np.abs(g - x).max())
        x = g
        iterations = sweep
        if diff < eps:
            converged = True
            break
    pi = image(x)
    return pi, iterations, converged, float(np.abs(pi - x).max())


def series_one_one(c: float, x: np.ndarray, tol: float = 1e-16, cap: int = 400) -> np.ndarray:
    """Gauss series for F(1, 1; c; x), summed term by term until every element converged."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(cap):
        term = term * ((n + 1.0) / (n + c)) * x
        total += term
        if not (term > tol * total).any():
            return total
    raise RuntimeError("hypergeometric series failed to converge")


def hyp_from_series(alpha: float, y):
    """F(1, 1 - 2/alpha; 2 - 2/alpha; -y) from :func:`series_one_one`.

    Same transforms as the package: w = y/(1+y) and a 1/(1+y) prefactor; for
    w > 0.5 the connection formula in 1 - w = 1/(1+y).  Elementwise over an
    array ``y``; a scalar ``y`` gives a float.
    """
    c = 2.0 - 2.0 / alpha
    y = np.asarray(y, dtype=float)
    om = 1.0 / (1.0 + y.reshape(-1))
    w = y.reshape(-1) * om
    low = w <= 0.5
    coef_a = math.gamma(c) * math.gamma(c - 2.0) / math.gamma(c - 1.0) ** 2
    coef_b = math.gamma(c) * math.gamma(2.0 - c)
    f = np.empty_like(w)
    f[low] = series_one_one(c, w[low])
    high = ~low
    f[high] = (coef_a * series_one_one(3.0 - c, om[high])
               + coef_b * om[high] ** (c - 2.0) * w[high] ** (1.0 - c))
    out = (f * om).reshape(y.shape)
    return out if out.ndim else float(out)


def build_blocks_per_level(params, rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generator blocks (d, l, m) of the battery/channel chain, one level at a time."""
    t, nch = params.t_levels, params.n_channels
    n = nch + 1
    j = np.arange(n, dtype=float)
    d = np.zeros((t + 1, n, n))
    l = np.zeros((t, n, n))
    m = np.zeros((t + 1, n, n))
    idx = np.arange(n)
    for i in range(t + 1):
        blk = np.zeros((n, n))
        blk[idx[:-1], idx[:-1] + 1] = rho[i]
        blk[idx[1:], idx[1:] - 1] = j[1:] * params.mu
        out_rate = np.where(j < nch, rho[i], 0.0) + j * params.mu
        if i < t:
            out_rate = out_rate + params.nu
        if i > 0:
            out_rate = out_rate + params.static_drain + j * params.omega
        blk[idx, idx] = -out_rate
        d[i] = blk
        if i < t:
            l[i] = params.nu * np.eye(n)
        if i > 0:
            m[i] = np.diag(params.static_drain + params.omega * j)
    return d, l, m


def assemble(gen) -> np.ndarray:
    """Dense generator of a block QBD with states ordered (i, j) -> i * (N + 1) + j.

    Reads the generator's rate vectors: rho admits a call, j mu completes one,
    nu moves a level up and m[i] moves level i down; ``diag`` is the diagonal.
    """
    p = gen.params
    n = p.n_channels + 1
    size = (p.t_levels + 1) * n
    idx = np.arange(n)
    full = np.zeros((size, size))
    for i in range(p.t_levels + 1):
        s = i * n
        blk = full[s : s + n, s : s + n]
        blk[idx[:-1], idx[:-1] + 1] = gen.rho[i]
        blk[idx[1:], idx[1:] - 1] = idx[1:].astype(float) * p.mu
        blk[idx, idx] = gen.diag[i]
        if i < p.t_levels:
            full[s + idx, s + n + idx] = p.nu
        if i > 0:
            full[s + idx, s - n + idx] = gen.m[i]
    return full


def simulate_trajectory(params, rho, n_events: int, seed: int = 0) -> np.ndarray:
    """Time-weighted state occupancy over ``n_events`` simulated transitions.

    Straight event-by-event simulation of the battery/channel chain of
    ``params`` (anything with n_channels, t_levels, mu, omega, nu and
    static_drain), an independent check on the stationary distribution.
    Returns a (T+1, N+1) matrix of occupancy fractions.  Deterministic for a
    fixed seed.  If the chain hits an absorbing state the time average is a
    point mass there, which is what the long-run limit gives.
    """
    p = params
    rho = np.asarray(rho, dtype=float)
    t, nch = p.t_levels, p.n_channels
    if rho.shape != (t + 1,):
        raise ValueError(f"arrival vector has shape {rho.shape}, expected ({t + 1},)")
    n = nch + 1
    n_states = (t + 1) * n

    # Per-state transition table: up to four moves (recharge, discharge,
    # admit, complete), folded into cumulative probability thresholds.
    thresholds = []
    targets = []
    inv_rate = []
    for i in range(t + 1):
        for j in range(n):
            moves = []
            if i < t and p.nu > 0:
                moves.append((p.nu, (i + 1) * n + j))
            if i > 0 and p.static_drain + j * p.omega > 0:
                moves.append((p.static_drain + j * p.omega, (i - 1) * n + j))
            if j < nch and rho[i] > 0:
                moves.append((rho[i], i * n + j + 1))
            if j > 0 and p.mu > 0:
                moves.append((j * p.mu, i * n + j - 1))
            total = sum(r for r, _ in moves)
            if total == 0:
                thresholds.append(())
                targets.append(())
                inv_rate.append(0.0)
                continue
            acc, cum = 0.0, []
            for r, _ in moves:
                acc += r
                cum.append(acc / total)
            thresholds.append(tuple(cum[:-1]))
            targets.append(tuple(tgt for _, tgt in moves))
            inv_rate.append(1.0 / total)

    rng = np.random.Generator(np.random.Philox(key=seed))
    occ = [0.0] * n_states
    state = 0
    done = 0
    block = 1 << 15
    while done < n_events:
        todo = min(block, n_events - done)
        exps = rng.standard_exponential(todo).tolist()
        uans = rng.random(todo).tolist()
        for k in range(todo):
            inv = inv_rate[state]
            if inv == 0.0:
                # Absorbing: the long-run average collapses onto this state.
                occ = [0.0] * n_states
                occ[state] = 1.0
                return np.array(occ).reshape(t + 1, n)
            occ[state] += exps[k] * inv
            u = uans[k]
            thr = thresholds[state]
            idx = 0
            for c in thr:
                if u >= c:
                    idx += 1
                else:
                    break
            state = targets[state][idx]
        done += todo

    out = np.array(occ)
    out /= out.sum()
    return out.reshape(t + 1, n)


def _philox(*words: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=list(words)))


def _window(cfg, r_sim: float | None) -> float:
    """A disc of 225 stations in mean, or ``r_sim`` past an edge-effect guard.

    The oracles that call this leave out everything beyond the disc, so it
    must be wide; the blockwise oracle carries the far field and sizes its own.
    """
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
    b = _bias_array(bias)
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


def poisson_inverse(u: float, mean: float) -> int:
    """Smallest count c with Poisson(mean) CDF F(c) > u, by the pmf recurrence.

    Stops where the pmf underflows, should the summed CDF round below u.
    """
    c, pmf = 0, math.exp(-mean)
    cdf = pmf
    while cdf <= u and pmf > 0.0:
        c += 1
        pmf *= mean / c
        cdf += pmf
    return c


def estimate_success_blockwise(cfg, level_marginals, bias, p_occu, n_drops: int,
                               seed: int = 0, r_sim: float | None = None,
                               block: int = 256) -> float:
    """Mean conditional success probability from the batched estimator's draws.

    Block k draws from Philox (seed, k), in this order: one uniform per
    (drop, level), turned into a Poisson count of active stations of mean
    lambda_b * area * pi_level * p_occu by a sequential search of the CDF
    (:func:`poisson_inverse`); one Exp(1) per (drop, level), the nearest idle
    station of the level at r^2 = R^2 E / m (none if E >= m), m the level's
    idle mean; one Exp(1) E per active station, laid out by drop then level,
    at r^2 = R^2 exp(-E).  Each drop then takes a plain argmin of r^2 B^(-2/alpha)
    over the (level, active/idle) candidates and multiplies its success
    probability out: noise, one 1 / (1 + tau (r_s/x)^alpha) per other active
    station, and the active stations beyond R by the far-field weight.

    The default R holds K^2 = min(53 ln 2 / Sigma, 225) stations in mean,
    Sigma = sum over levels with pi_i > 0 of pi_i (B_i / B_max)^(2/alpha) and
    B_max the largest of their biases: the package's association certificate,
    restated.  The far field is exact at any R, so no edge guard applies.
    """
    pi = np.asarray(level_marginals, dtype=float)
    b = _bias_array(bias)
    if r_sim is None:
        present = [i for i in range(pi.size) if pi[i] > 0.0]
        b_max = max(b[i] for i in present)
        sigma = sum(pi[i] * (b[i] / b_max) ** (2.0 / cfg.alpha) for i in present)
        r_sim = math.sqrt(min(53.0 * math.log(2.0) / sigma, 225.0) / (math.pi * cfg.lambda_b))
    occ = np.clip(np.asarray(p_occu, dtype=float), 0.0, 1.0)
    area = cfg.lambda_b * math.pi * r_sim**2
    active_mean, idle_mean = area * pi * occ, area * pi * (1.0 - occ)
    lam_act = cfg.lambda_b * float(pi @ occ)
    tau, alpha = cfg.tau, cfg.alpha

    def far_weight(ratio: float) -> float:
        if alpha == 4.0:
            return math.sqrt(tau) * math.atan(math.sqrt(tau / ratio))
        return interference_weight(tau, alpha, ratio)

    total = 0.0
    for k, first in enumerate(range(0, n_drops, block)):
        rng = _philox(seed, k)
        m = min(block, n_drops - first)
        counts = [[poisson_inverse(u, mean) for u, mean in zip(row, active_mean)]
                  for row in rng.random((m, pi.size))]
        idle_e = rng.standard_exponential((m, pi.size))
        e = iter(rng.standard_exponential(sum(map(sum, counts))))
        for d in range(m):
            active = [[r_sim**2 * math.exp(-next(e)) for _ in range(c)] for c in counts[d]]
            candidates = []  # (rank, r^2, level, is_active)
            for level in range(pi.size):
                shrink = b[level] ** (-2.0 / alpha)
                if active[level]:
                    r2 = min(active[level])
                    candidates.append((r2 * shrink, r2, level, True))
                if idle_e[d, level] < idle_mean[level]:
                    r2 = r_sim**2 * idle_e[d, level] / idle_mean[level]
                    candidates.append((r2 * shrink, r2, level, False))
            if not candidates:
                continue
            _, r2_s, level_s, active_s = min(candidates, key=lambda c: c[0])
            value = math.exp(-tau * r2_s ** (alpha / 2.0) * cfg.noise_power / cfg.p_t)
            for level, stations in enumerate(active):
                skip = active_s and level == level_s
                for r2 in stations:
                    if skip and r2 == r2_s:
                        skip = False
                        continue
                    value /= 1.0 + tau * (r2_s / r2) ** (alpha / 2.0)
            value *= math.exp(-lam_act * math.pi * r2_s * far_weight((r_sim**2 / r2_s) ** (alpha / 2.0)))
            total += value
    return total / n_drops


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
    b = _bias_array(bias)
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


def flat_bias(t_levels: int):
    """The flat bias vector B_0 = ... = B_T = 1 as a package BiasVector."""
    from greencell.analytics import BiasVector

    return BiasVector((1.0,) * (t_levels + 1))


def save_config(cfg, path) -> None:
    """Write ``cfg`` as the JSON object that ``greencell.config.load_config`` reads back."""
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_csv(path) -> tuple[dict, list[str], list[dict]]:
    """Parse a file written by ``csvio.write_csv``: (header metadata, fieldnames, rows).

    Row values come back as strings; callers convert.
    """
    meta: dict[str, str] = {}
    fieldnames: list[str] = []
    rows: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            if not fieldnames:
                fieldnames = line.split(",")
                continue
            rows.append(dict(zip(fieldnames, line.split(","))))
    return meta, fieldnames, rows
