import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from greencell import analytics, numerics
from greencell.analytics import interference_factor
from greencell.numerics import (
    NumericError,
    _series_one_one,
    exp_power_integral,
    exp_power_integral_vec,
    gauss_legendre_panels,
    hyp_one_one_neg,
    stream,
)

from oracles import (
    fading_integral,
    hyp_from_series,
    integrate_decaying,
    interference_weight,
    midpoint,
    simpson_adaptive,
    z_defining_integral,
)


# F(1, 1/2; 3/2; -y) = arctan(sqrt(y)) / sqrt(y), the alpha=4 reduction.
def arctan_form(y):
    return math.atan(math.sqrt(y)) / math.sqrt(y) if y > 0 else 1.0


# The weight at alpha = 4 is tau F(-tau / r) r^(-1/2) with F the arctan
# reduction; at r = 1 and tau = y it is y arctan_form(y).
@pytest.mark.parametrize("y", [1e-12, 1e-6, 0.3, 0.5, 0.9, 1.0, 7.0, 1e3, 1e8, 6.4e13])
def test_hyp_matches_arctan_reduction(y):
    assert interference_factor(y, 4.0, 1.0) == pytest.approx(y * arctan_form(y), rel=5e-15)
    assert interference_factor(4.0 * y, 4.0, 4.0) == pytest.approx(2.0 * y * arctan_form(y), rel=5e-15)


# alpha = 4 takes the closed form; it must agree with the general weight
# 2 tau / (alpha - 2) r^(2/alpha - 1) F(-tau / r), F from the series oracle,
# over the whole float range of tau / r, the subnormals included, and raise
# no warning.
def test_hyp_closed_form_matches_series_oracle_over_float_range():
    ys = np.concatenate([[0.0, 5e-324, 1e-300], np.geomspace(1e-12, 1e300, 4001)])
    for taus, r in [(ys, 1.0), (1e-3 * ys, 1e-3), (64.0 * np.minimum(ys, 1e306), 64.0)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got = interference_factor(taus, 4.0, r)
        assert got[0] == 0.0
        ref = 2.0 * taus / (4.0 - 2.0) * r ** (2.0 / 4.0 - 1.0) * hyp_from_series(4.0, taus / r)
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)


# The branch is taken at alpha == 4 exactly; its neighbours take the series,
# so the interference weight must not jump there: at the rate rule's 132
# thresholds and the baseline's tau = 0.1, over the bias ratios of power laws
# of exponent up to 4 on 11 levels (11^4 = 14641).
@pytest.mark.parametrize("step", [-4e-12, 4e-12])
def test_interference_factor_continuous_across_closed_form(step):
    taus = np.append(2.0**analytics._RATE_NODES - 1.0, 0.1)[:, None]
    ratios = np.geomspace(1.0 / 14641.0, 14641.0, 161)[None, :]
    at_four = interference_factor(taus, 4.0, ratios)
    near = interference_factor(taus, 4.0 + step, ratios)
    assert taus.size == 133
    np.testing.assert_allclose(near, at_four, rtol=1e-9, atol=0)


def test_hyp_at_zero_and_array_input():
    assert hyp_one_one_neg(3.7, 0.0) == 1.0
    assert interference_factor(0.0, 4.0, 3.0) == 0.0
    ys = np.array([0.0, 0.2, 2.0, 50.0])
    out = interference_factor(ys[:, None], 4.0, np.array([[0.5, 1.0]]))
    ref = np.array([[v * arctan_form(v / r) / math.sqrt(r) for r in (0.5, 1.0)] for v in ys])
    assert out.shape == (4, 2)
    np.testing.assert_allclose(out, ref, rtol=1e-14)


# y = 1 is w = 0.5, where the direct and the connection branch meet; mixing
# arguments checks that the one degree serves them all.
@given(alpha=st.floats(2.2, 8.0),
       ys=st.lists(st.one_of(st.sampled_from([0.0, 1e-12, 1.0]), st.floats(1e-12, 1e14)),
                   min_size=1, max_size=6))
@example(alpha=4.0, ys=[0.0, 1e-12, 1.0, 1e14])
@example(alpha=2.2, ys=[1.0])
@example(alpha=8.0, ys=[1.0])
def test_hyp_matches_series_oracle(alpha, ys):
    got = hyp_one_one_neg(alpha, np.array(ys))
    ref = [hyp_from_series(alpha, y) for y in ys]
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0)


# The series degree comes from the domain bound w <= 0.5, not from the batch,
# so an element's value does not depend on what is evaluated with it.  Sized
# by the batch maximum, appending y = 0.99 moved 38 of these 10 000 values.
def test_hyp_value_does_not_depend_on_its_batch():
    rng = np.random.default_rng(0)
    for _ in range(200):
        ys = rng.uniform(0.0, 0.3, 50)
        np.testing.assert_array_equal(hyp_one_one_neg(2.5, np.append(ys, 0.99))[:-1],
                                      hyp_one_one_neg(2.5, ys))


@pytest.mark.parametrize("alpha", [2.05, 2.5, 3.5, 8.0])
def test_hyp_batch_equals_lone_evaluations(alpha):
    # Both branches and the w = 0.5 seam between them (y = 1).
    ys = np.concatenate([[0.0, 5e-324, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)],
                         np.geomspace(1e-12, 1e14, 261)])
    lone = [hyp_one_one_neg(alpha, np.array([y]))[0] for y in ys]
    np.testing.assert_array_equal(hyp_one_one_neg(alpha, ys), lone)


@given(alpha=st.floats(2.2, 8.0), y=st.floats(0, 1e6))
def test_hyp_bounded_unit_interval(alpha, y):
    v = hyp_one_one_neg(alpha, y)
    assert 0.0 < v <= 1.0


@given(alpha=st.floats(2.5, 6.0), y=st.floats(1e-6, 1e4))
def test_hyp_decreasing_in_argument(alpha, y):
    assert hyp_one_one_neg(alpha, y * 1.5) < hyp_one_one_neg(alpha, y)


class TestInterferenceFactor:
    def test_closed_form_alpha_four(self):
        for tau, b in [(1.0, 1.0), (0.1, 1.0), (0.1, 4.0), (2.0, 0.3), (0.5, 121.0)]:
            expected = math.sqrt(tau) * math.atan(math.sqrt(tau / b))
            assert interference_factor(tau, 4.0, b) == pytest.approx(expected, rel=1e-13)

    def test_reference_values(self):
        assert interference_factor(1.0, 4.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-13)
        assert interference_factor(0.1, 4.0, 1.0) == pytest.approx(
            0.09685340823403893, rel=1e-13
        )

    def test_defining_integral_spot_check(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tau = float(np.exp(rng.uniform(math.log(0.05), math.log(5))))
            alpha = float(rng.uniform(3.0, 6.0))
            b = float(np.exp(rng.uniform(math.log(0.1), math.log(10))))
            ref = z_defining_integral(tau, alpha, b, n=20_000)
            assert interference_factor(tau, alpha, b) == pytest.approx(ref, rel=1e-6)

    def test_zero_threshold(self):
        assert interference_factor(0.0, 4.0, 2.0) == 0.0
        np.testing.assert_array_equal(
            interference_factor(0.0, 4.0, np.array([0.5, 2.0])), np.zeros(2)
        )

    def test_vector_matches_scalars(self):
        ratios = np.array([0.2, 1.0, 3.0, 50.0])
        vec = interference_factor(0.7, 3.6, ratios)
        ref = [interference_factor(0.7, 3.6, r) for r in ratios]
        np.testing.assert_allclose(vec, ref, rtol=1e-15)
        taus = np.array([0.0, 0.1, 2.0])
        grid = interference_factor(taus[:, None], 3.6, ratios[None, :])
        ref = [[interference_factor(t, 3.6, r) for r in ratios] for t in taus]
        np.testing.assert_allclose(grid, ref, rtol=1e-15)

    def test_extrapolated_oracle(self):
        assert interference_weight(1.0, 4.0, 1.0) == pytest.approx(math.pi / 4, rel=1e-13)
        assert interference_weight(0.7, 3.6, 3.0) == pytest.approx(
            interference_factor(0.7, 3.6, 3.0), rel=1e-12
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            interference_factor(-0.1, 4.0, 1.0)
        with pytest.raises(ValueError):
            interference_factor(0.1, 4.0, 0.0)
        with pytest.raises(ValueError):
            interference_factor(0.1, 4.0, np.array([1.0, -2.0]))


# A typo in the written-out table would shift every reported number.
def test_gauss_legendre_table_is_leggauss_12():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    np.testing.assert_array_max_ulp(numerics._GL_NODES, nodes, maxulp=1)
    np.testing.assert_array_max_ulp(numerics._GL_WEIGHTS, weights, maxulp=1)


def test_gauss_legendre_panels_exact_to_degree_23():
    edges = [-1.0, -0.35, 0.1, 1.25, 1.3]
    x, w = gauss_legendre_panels(edges)
    assert x.shape == w.shape == (4, 12)
    poly = np.polynomial.Polynomial(np.random.default_rng(23).uniform(-1.0, 1.0, 24))
    exact = poly.integ()(edges[-1]) - poly.integ()(edges[0])
    assert (w * poly(x)).sum() == pytest.approx(exact, rel=1e-14)


# The adaptive Simpson oracle of tests/oracles.py.
def test_simpson_known_integrals():
    assert simpson_adaptive(np.sin, 0.0, math.pi, 1e-11) == pytest.approx(2.0, abs=1e-10)
    assert simpson_adaptive(lambda x: 4.0 / (1.0 + x**2), 0.0, 1.0, 1e-11) == pytest.approx(
        math.pi, abs=1e-10
    )
    assert simpson_adaptive(lambda x: x**3, 0.0, 1.0, 1e-8) == pytest.approx(0.25, abs=1e-12)


def test_integrate_decaying_exponentials():
    assert integrate_decaying(lambda u: np.exp(-u), scale=1.0, tol=1e-11) == pytest.approx(
        1.0, abs=1e-10
    )
    assert integrate_decaying(lambda u: np.exp(-3 * u), scale=1.0 / 3, tol=1e-11) == pytest.approx(
        1.0 / 3.0, abs=1e-10
    )
    assert integrate_decaying(lambda u: u * np.exp(-u), scale=1.0, tol=1e-11) == pytest.approx(
        1.0, abs=1e-9
    )
    with pytest.raises(RuntimeError, match="failed to wind down"):
        integrate_decaying(lambda u: np.ones_like(u), scale=1.0, tol=1e-6, max_panels=4)


def test_kernel_failures_are_typed():
    with pytest.raises(NumericError, match="failed to converge"):
        _series_one_one(1.0, np.array([0.999]))


def test_exp_power_integral_closed_forms():
    # power = 1: Int exp(-(1+kappa) v) dv = 1 / (1 + kappa)
    for kappa in (0.0, 0.05, 1.0, 40.0):
        assert exp_power_integral(kappa, 1.0) == pytest.approx(1.0 / (1.0 + kappa), rel=1e-10)
    # power = 2: expressible through erfc
    for kappa in (1e-3, 0.02, 0.5, 9.0):
        z = 1.0 / (2.0 * math.sqrt(kappa))
        expected = math.sqrt(math.pi / (4.0 * kappa)) * math.exp(z * z) * math.erfc(z)
        assert exp_power_integral(kappa, 2.0) == pytest.approx(expected, rel=1e-8)


def test_exp_power_integral_certificate():
    # Relative accuracy out to kappa = 1e12, where G at power 1 is down to 1e-12.
    kappas = np.geomspace(1e-3, 1e12, 61)
    np.testing.assert_allclose(exp_power_integral_vec(kappas, 1.0), 1.0 / (1.0 + kappas),
                               rtol=1e-12)
    z = 1.0 / (2.0 * np.sqrt(kappas))
    # z <= 16 here, so exp(z^2) erfc(z) neither overflows nor underflows.
    expected = [math.sqrt(math.pi / (4.0 * k)) * math.exp(w * w) * math.erfc(w)
                for k, w in zip(kappas, z)]
    np.testing.assert_allclose(exp_power_integral_vec(kappas, 2.0), expected, rtol=1e-12)


def test_exp_power_integral_limits():
    np.testing.assert_array_equal(exp_power_integral_vec(np.array([0.0, np.inf]), 1.7), [1.0, 0.0])
    for bad in (-1e-3, math.nan):
        with pytest.raises(ValueError):
            exp_power_integral(bad, 2.0)


def test_exp_power_integral_small_kappa_series():
    # G = 1 - kappa m1 + kappa^2 m2 / 2 + O(kappa^3), m_k = Gamma(1 + k p)
    kappa, p = 1e-8, 2.0
    series = 1.0 - kappa * math.gamma(3.0) + kappa**2 * math.gamma(5.0) / 2.0
    assert exp_power_integral(kappa, p) == pytest.approx(series, abs=1e-12)


@given(kappa=st.floats(0, 1e3), power=st.floats(1.0, 4.0))
def test_exp_power_integral_in_unit_interval(kappa, power):
    v = exp_power_integral(kappa, power)
    assert 0.0 < v <= 1.0


@given(kappa=st.floats(1e-6, 1e2), power=st.floats(1.0, 3.0))
def test_exp_power_integral_decreasing(kappa, power):
    assert exp_power_integral(2.0 * kappa, power) < exp_power_integral(kappa, power)


def test_exp_power_integral_vec_matches_scalar():
    kappas = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 40)])
    vec = exp_power_integral_vec(kappas, 2.0)
    ref = np.array([fading_integral(k, 2.0) for k in kappas])
    np.testing.assert_allclose(vec, ref, rtol=1e-12)


# Every kappa here is past the series' certified reach at these powers
# (alpha = 2.5 ... 8), so this pins the fixed rule on _FADING_NODES.
@pytest.mark.parametrize("power", [1.25, 1.5, 2.0, 3.0, 4.0])
def test_exp_power_integral_quadrature_against_oracle(power):
    kappas = np.logspace(-3, 12, 31)
    ref = [fading_integral(k, power) for k in kappas]
    np.testing.assert_allclose(exp_power_integral_vec(kappas, power), ref, rtol=1e-10, atol=0)


def test_exp_power_integral_against_midpoint():
    for kappa, p in [(0.3, 2.0), (2.0, 1.7), (15.0, 2.0)]:
        hi = 60.0 / (1.0 + kappa) ** (1.0 / p)
        ref = midpoint(lambda v: np.exp(-kappa * v**p - v), 0.0, max(hi, 60.0), 400_000)
        assert exp_power_integral(kappa, p) == pytest.approx(ref, rel=1e-7)


def test_stream_keys():
    def philox(key):
        return np.random.Generator(np.random.Philox(key=key)).random(4)

    # One word keys like Philox(key=seed); words wrap mod 2**64.
    np.testing.assert_array_equal(stream(7).random(4), philox(np.uint64(7)))
    np.testing.assert_array_equal(stream(7, 3).random(4), philox([7, 3]))
    np.testing.assert_array_equal(stream(-1, 2**64 + 5).random(4), philox(np.array([2**64 - 1, 5], dtype=np.uint64)))
    assert not np.array_equal(stream(7, 3).random(4), stream(7, 4).random(4))
