"""Quadrature and special-function kernels used by the analytic pipeline.

Everything here is plain numpy so that array-valued inputs vectorize; the
callers in :mod:`greencell.analytics` lean on that to evaluate whole grids of
interference terms in one shot.  :func:`stream` is the one maker of
counter-based random streams for the samplers (Monte-Carlo drops, GA
generations, chain trajectories).
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_TOL = 1e-16
_SERIES_CAP = 400
_KEY_MASK = (1 << 64) - 1


class NumericError(RuntimeError):
    """A numeric kernel or solver failed on an input that passed validation."""


def stream(*words: int) -> np.random.Generator:
    """Philox generator keyed by one or two integers, e.g. (seed, block).

    The key is the words reduced mod 2**64, padded with zeros to Philox's two
    key words, so ``stream(s)`` draws what ``Philox(key=s)`` draws.  Distinct
    keys give independent streams whatever order they are used in, which is
    what keeps parallel runs identical to serial ones (Salmon et al., SC'11).
    """
    key = [w & _KEY_MASK for w in words] + [0] * (2 - len(words))
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _series_one_one(c: float, x: np.ndarray) -> np.ndarray:
    """Gauss series for F(1, 1; c; x) with 0 <= x <= 0.5 and c > 0.

    Terms are n! / (c)_n * x^n; successive ratios are (n+1) x / (n+c), so on
    this range the series behaves like a geometric tail and a few dozen terms
    reach full double precision.
    """
    term = np.ones_like(x)
    total = np.ones_like(x)
    for n in range(_SERIES_CAP):
        term = term * ((n + 1.0) / (n + c)) * x
        total += term
        if not (term > _SERIES_TOL * total).any():
            return total
    raise NumericError("hypergeometric series failed to converge")


def hyp_one_one_neg(alpha: float, y) -> np.ndarray | float:
    """F(1, 1 - 2/alpha; 2 - 2/alpha; -y) for y >= 0, alpha > 2.

    A fractional-linear transform maps the argument to w = y/(1+y) in [0, 1)
    at the price of a 1/(1+y) prefactor and parameters (1, 1; 2 - 2/alpha).
    The series in w stalls as w -> 1, so past w = 0.5 the value is assembled
    from the complementary-argument connection: two gamma-weighted pieces in
    1 - w = 1/(1+y), both of which converge as fast as the small-w branch.
    """
    y_arr = np.asarray(y, dtype=float)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    if np.any(y_arr < 0) or not np.all(np.isfinite(y_arr)):
        raise ValueError("argument must be finite and nonnegative")
    c = 2.0 - 2.0 / alpha
    om = 1.0 / (1.0 + y_arr)   # 1 - w, computed without cancellation
    w = y_arr * om
    out = np.empty_like(w)

    lo = w <= 0.5
    if lo.any():
        out[lo] = _series_one_one(c, w[lo])
    hi = ~lo
    if hi.any():
        coef_a = math.gamma(c) * math.gamma(c - 2.0) / math.gamma(c - 1.0) ** 2
        coef_b = math.gamma(c) * math.gamma(2.0 - c)
        out[hi] = coef_a * _series_one_one(3.0 - c, om[hi]) + coef_b * om[hi] ** (
            c - 2.0
        ) * w[hi] ** (1.0 - c)

    out *= om
    return float(out[0]) if scalar else out


def interference_factor(tau: float, alpha: float, bias_ratio) -> np.ndarray | float:
    """Normalized interference weight of one base-station class.

    For SINR threshold ``tau`` and a class whose bias exceeds the serving
    one's by ``bias_ratio``, this is the extra interference mass the class
    contributes per unit density, relative to the serving-class distance
    scale.  Vectorizes over ``bias_ratio``.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    r = np.asarray(bias_ratio, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("bias_ratio must be positive")
    if tau == 0.0:
        return 0.0 if r.ndim == 0 else np.zeros_like(r)
    f = hyp_one_one_neg(alpha, tau / r)
    return 2.0 * tau / (alpha - 2.0) * r ** (2.0 / alpha - 1.0) * f


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
    raise NumericError("semi-infinite integral failed to wind down")


# Moments of Exp(1) needed by the small-kappa expansion of the fading
# integral; cached per exponent because math.gamma is not free.
_MOMENT_CACHE: dict[float, tuple[float, float, float]] = {}


def _exp_moments(power: float) -> tuple[float, float, float]:
    got = _MOMENT_CACHE.get(power)
    if got is None:
        got = (
            math.gamma(1.0 + power),
            math.gamma(1.0 + 2.0 * power),
            math.gamma(1.0 + 3.0 * power),
        )
        _MOMENT_CACHE[power] = got
    return got


def exp_power_integral(kappa: float, power: float, tol_rel: float = 1e-12) -> float:
    """G(kappa) = integral of exp(-kappa v^power - v) over v in [0, inf).

    For small kappa the expansion of exp(-kappa v^power) under the Exp(1)
    measure gives G = 1 - kappa m1 + kappa^2 m2 / 2 with remainder bounded by
    kappa^3 m3 / 6 (m_k the k-th moment of V^power); the fast path is taken
    only when that rigorous bound is below ``tol_rel`` of the value.
    Otherwise the integral is done by panel-wise adaptive Simpson.
    """
    if kappa < 0 or not np.isfinite(kappa):
        raise ValueError("kappa must be finite and nonnegative")
    if kappa == 0.0:
        return 1.0
    m1, m2, m3 = _exp_moments(power)
    approx = 1.0 - kappa * m1 + 0.5 * kappa * kappa * m2
    bound = kappa**3 * m3 / 6.0
    if approx > 0.5 and bound < tol_rel * approx:
        return approx
    scale = min(1.0, kappa ** (-1.0 / power)) if power > 0 else 1.0
    return integrate_decaying(
        lambda v: np.exp(-kappa * v**power - v), scale=scale, tol=tol_rel * 0.1
    )


def exp_power_integral_vec(kappa: np.ndarray, power: float, tol_rel: float = 1e-12) -> np.ndarray:
    """Vectorized :func:`exp_power_integral` with the same error control."""
    kappa = np.asarray(kappa, dtype=float)
    m1, m2, m3 = _exp_moments(power)
    approx = 1.0 - kappa * m1 + 0.5 * kappa * kappa * m2
    bound = kappa**3 * m3 / 6.0
    fast = (approx > 0.5) & (bound < tol_rel * approx)
    out = np.where(fast, approx, 0.0)
    slow = ~fast
    if slow.any():
        out[slow] = [exp_power_integral(float(k), power, tol_rel) for k in kappa[slow]]
    return out
