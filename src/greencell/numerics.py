"""Quadrature and special-function kernels used by the analytic pipeline.

Everything here is plain numpy so that array-valued inputs vectorize; the
callers in :mod:`greencell.analytics` lean on that to evaluate whole grids of
interference terms in one shot.  The interference kernel is a Gauss series
evaluated by Horner's rule (the arctan closed form at alpha = 4 lives in
:func:`greencell.analytics.interference_factor`).  Every
integral is done by one fixed 12-point Gauss-Legendre rule on fixed panels
(:func:`gauss_legendre_panels`); the fading integral takes a rigorous
small-kappa series instead where its remainder bound allows.  :func:`stream`
is the one maker of counter-based random streams for the samplers
(Monte-Carlo drops, GA generations).
"""

from __future__ import annotations

import math

import numpy as np

_SERIES_TOL = 1e-16
_SERIES_CAP = 400
_KEY_MASK = (1 << 64) - 1
_FADING_TOL = 1e-12   # relative remainder bound that admits the small-kappa series

# 12-point Gauss-Legendre rule on [-1, 1]: repr of numpy's leggauss(12),
# written out because importing numpy.polynomial costs about 1.8 MB of RSS.
_GL_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047, -0.5873179542866175,
    -0.3678314989981802, -0.1252334085114689, 0.1252334085114689, 0.3678314989981802,
    0.5873179542866175, 0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642, 0.20316742672306573,
    0.2334925365383546, 0.2491470458134027, 0.2491470458134027, 0.2334925365383546,
    0.20316742672306573, 0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])


def gauss_legendre_panels(edges) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 12-point rule on each panel between ``edges``.

    Both arrays have shape (panels, 12); ``(weights * f(nodes)).sum()``
    integrates f over [edges[0], edges[-1]].
    """
    edges = np.asarray(edges, dtype=float)
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    return lo + half * (1.0 + _GL_NODES), half * _GL_WEIGHTS


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
    """Gauss series for F(1, 1; c; x) with 0 <= x <= 0.5 and c >= 1.

    The coefficients a_n = n! / (c)_n do not increase for c >= 1, so the tail
    after degree N is at most a_N xmax^N / (1 - xmax), and the sum is at
    least 1.  The degree is the first N where that bound, at the domain bound
    xmax = 0.5 (or a larger argument, for which the cap may bind), falls below
    ``_SERIES_TOL``; the polynomial is then evaluated by Horner's rule, two
    array passes per degree and no convergence test.  So for arguments in the
    domain the degree depends on c alone, and each element's value does not
    depend on the other elements of its batch.
    """
    xmax = max(0.5, float(x.max(initial=0.0)))
    coefs = [1.0]
    while coefs[-1] * xmax ** (len(coefs) - 1) > _SERIES_TOL * (1.0 - xmax):
        if len(coefs) > _SERIES_CAP:
            raise NumericError("hypergeometric series failed to converge")
        n = len(coefs) - 1
        coefs.append(coefs[-1] * (n + 1.0) / (n + c))
    total = np.full_like(x, coefs[-1])
    for a in reversed(coefs[:-1]):
        total *= x
        total += a
    return total


def hyp_one_one_neg(alpha: float, y) -> np.ndarray:
    """F(1, 1 - 2/alpha; 2 - 2/alpha; -y) for y >= 0, alpha > 2.

    A fractional-linear transform maps the argument to w = y/(1+y) in [0, 1)
    at the price of a 1/(1+y) prefactor and parameters (1, 1; 2 - 2/alpha).
    The series in w stalls as w -> 1, so past w = 0.5 the value is assembled
    from the complementary-argument connection: two gamma-weighted pieces in
    1 - w = 1/(1+y), both of which converge as fast as the small-w branch.
    This holds for every alpha; at alpha = 4 the success grid takes the
    arctan closed form in :func:`greencell.analytics.interference_factor`
    instead.
    """
    y_arr = np.asarray(y, dtype=float)
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
    return out


# Panels [0, 2^-10], [2^-10, 2^-9], ..., [32, 64] for the scaled fading
# integrand: fine near u = 0, where u^power is not smooth, and wide where it
# has decayed.
_FADING_NODES, _FADING_WEIGHTS = (
    a.reshape(-1) for a in gauss_legendre_panels(np.concatenate([[0.0], 2.0 ** np.arange(-10, 7)]))
)


def exp_power_integral(kappa: float, power: float) -> float:
    """G(kappa) = integral of exp(-kappa v^power - v) over v in [0, inf).

    Scalar view of :func:`exp_power_integral_vec`.
    """
    if not kappa >= 0:
        raise ValueError("kappa must be nonnegative")
    return float(exp_power_integral_vec(np.array([kappa]), power)[0])


def exp_power_integral_vec(kappa: np.ndarray, power: float) -> np.ndarray:
    """G(kappa) elementwise; kappa = inf gives 0.

    For small kappa the expansion of exp(-kappa v^power) under the Exp(1)
    measure gives G = 1 - kappa m1 + kappa^2 m2 / 2 with remainder bounded by
    kappa^3 m3 / 6 (m_k the k-th moment of V^power); the series is taken
    only when that rigorous bound is below ``_FADING_TOL`` of the value, which
    needs kappa < 1.  Otherwise v = s u with s = min(1, kappa^(-1/power))
    turns the integrand into exp(-min(kappa, 1) u^power - s u), which has
    decayed below e^-64 by u = 64, and the fixed rule on ``_FADING_NODES``
    integrates it.  Moments past the float range (power above about 57)
    admit the series only at kappa = 0, where G = 1; node powers past it
    (power above about 170) are inf, and the integrand there is 0.
    """
    k = np.asarray(kappa, dtype=float)
    k1 = np.minimum(k, 1.0)
    try:
        m1, m2, m3 = (math.gamma(1.0 + j * power) for j in (1.0, 2.0, 3.0))
    except OverflowError:
        approx, fast = 1.0, k == 0.0
    else:
        approx = 1.0 - k1 * m1 + 0.5 * k1 * k1 * m2
        bound = k1**3 * m3 / 6.0
        fast = (approx > 0.5) & (bound < _FADING_TOL * approx)
    out = np.where(fast, approx, 0.0)
    slow = ~fast
    if slow.any():
        s = np.minimum(k[slow] ** (-1.0 / power), 1.0)
        with np.errstate(over="ignore"):
            nodes = _FADING_NODES**power
        e = np.exp(-k1[slow, None] * nodes - s[:, None] * _FADING_NODES)
        out[slow] = s * (e @ _FADING_WEIGHTS)
    return out
