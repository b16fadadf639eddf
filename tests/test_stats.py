import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from irredtest import (
    BinomialModel,
    OrderOverflow,
    RangeError,
    TooLarge,
    brute_force_distribution,
    det_expectation,
    gamma_model,
    intersection_expectation,
    intersection_model,
    inverse_tail_quantile,
    product_model,
    substitution_model,
    wald_interval,
)


def gauss_upper_tail(s, steps=400_000, span=40.0):
    """Simpson quadrature of the standard normal upper tail, no erfc."""
    h = span / steps
    total = 0.0
    f = lambda x: math.exp(-0.5 * x * x)
    for i in range(steps):
        a = s + i * h
        total += f(a) + 4.0 * f(a + 0.5 * h) + f(a + h)
    return total * h / 6.0 / math.sqrt(2.0 * math.pi)


def test_binomial_pmf_is_exact():
    m = BinomialModel(trials=3, success_p=Fraction(1, 3))
    assert m.pmf_vector() == [
        Fraction(8, 27),
        Fraction(12, 27),
        Fraction(6, 27),
        Fraction(1, 27),
    ]
    assert sum(m.pmf_vector()) == 1
    assert m.pmf(-1) == 0 and m.pmf(4) == 0
    assert m.mean_fraction() == Fraction(1, 3)


def test_binomial_pmf_float_matches_exact():
    # below the smallest normal float a relative error says nothing
    for trials in (1, 10, 81, 1000):
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 49), Fraction(1, 13)):
            m = BinomialModel(trials=trials, success_p=p)
            for k in range(trials + 1):
                assert math.isclose(
                    m.pmf_float(k),
                    float(m.pmf(k)),
                    rel_tol=1e-9,
                    abs_tol=sys.float_info.min,
                ), (trials, p, k)
            assert m.pmf_float(-1) == 0.0 and m.pmf_float(trials + 1) == 0.0
    zero = BinomialModel(trials=5, success_p=Fraction(0))
    assert [zero.pmf_float(k) for k in range(6)] == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    one = BinomialModel(trials=5, success_p=Fraction(1))
    assert [one.pmf_float(k) for k in range(6)] == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def test_gamma_model_parameters():
    m = gamma_model(11, 4)
    assert m.trials == 14641
    assert m.success_p == Fraction(1, 11)
    assert gamma_model(2, 1).trials == 2
    with pytest.raises(RangeError):
        gamma_model(1, 4)
    with pytest.raises(RangeError):
        gamma_model(3, 0)
    with pytest.raises(OrderOverflow):
        gamma_model(2, 64)
    with pytest.raises(OrderOverflow):
        gamma_model(3, 10**12)  # rejected by the exponent, never built
    # past 20 digits a refusal names q by its bit length: 5,001 digits are
    # more than str() converts by default
    with pytest.raises(OrderOverflow, match=r"^<16610-bit integer>\^1 points"):
        gamma_model(10**5000, 1)


def test_gamma_normal_approx_published_values():
    approx = gamma_model(11, 4).normal_approx()
    assert abs(approx.mean - 0.0909) <= 1e-4
    assert abs(approx.sd - 0.0024) <= 1e-4
    interval = approx.central_interval(0.005)
    assert abs(interval.lo - 0.0847) <= 1e-4
    assert abs(interval.hi - 0.0971) <= 1e-4
    for bad in (-2.58, 0.0, math.inf):
        with pytest.raises(RangeError, match="quantile s must be finite and > 0"):
            approx.central_interval(0.005, s=bad)


def test_product_model_parameters():
    m = product_model(11, 4)
    assert m.success_p == Fraction(21, 121)
    approx = m.normal_approx()
    assert abs(approx.mean - 0.1736) <= 1e-4
    assert abs(approx.sd - 0.0031) <= 1e-4
    interval = approx.central_interval(0.005)
    assert abs(interval.lo - 0.1655) <= 1e-4
    assert abs(interval.hi - 0.1816) <= 1e-4
    assert product_model(2, 1).success_p == Fraction(3, 4)


def test_intersection_model_and_expectation():
    m = intersection_model(3, 2, 4)
    assert m.trials == 4 and m.success_p == Fraction(1, 3)
    assert intersection_model(3, 2, 0).pmf_vector() == [Fraction(1)]
    with pytest.raises(RangeError):
        intersection_model(3, 2, 10)
    assert intersection_expectation(5, 1) == Fraction(1, 5)
    assert intersection_expectation(5, 3) == Fraction(1, 125)
    assert intersection_expectation(5, 0) == 1


def test_substitution_model():
    m = substitution_model(2, 1, Fraction(1, 4))
    assert m.trials == 2 and m.success_p == Fraction(1, 4)
    assert substitution_model(3, 1, 0).pmf(0) == 1
    assert substitution_model(3, 1, 1).pmf(3) == 1
    with pytest.raises(RangeError):
        substitution_model(3, 1, Fraction(5, 4))


def test_det_expectation_values():
    assert det_expectation(2, 2, 2) == Fraction(5, 8)
    assert det_expectation(3, 1, 1) == Fraction(1, 3)
    assert det_expectation(2, 2, 3) == 1 - Fraction(7, 8) * Fraction(3, 4)
    with pytest.raises(RangeError):
        det_expectation(5, 3, 2)


def test_det_expectation_monotonicity_and_range():
    for q in (2, 3, 5):
        for c in range(1, 6):
            for r in range(1, c + 1):
                val = det_expectation(q, r, c)
                assert 0 < val < 1
                if r > 1:
                    assert val > det_expectation(q, r - 1, c)
                if c > r:
                    assert val < det_expectation(q, r, c - 1)


def test_det_expectation_series_bound():
    # dominant terms: q^-(c-r+1) + q^-(c-r+2) truncates with error < q^-(c-r+3)
    for q in (2, 3, 5, 7, 11, 13, 17):
        r, c = 3, 5
        approx = Fraction(1, q**3) + Fraction(1, q**4)
        assert abs(det_expectation(q, r, c) - approx) < Fraction(1, q**5)


def test_inverse_tail_quantile_against_quadrature():
    for eps in (0.25, 0.05, 0.005, 0.0013499):
        s = inverse_tail_quantile(eps)
        assert abs(gauss_upper_tail(s) - eps) < 1e-7
    assert abs(inverse_tail_quantile(0.5)) <= 1e-9
    assert abs(inverse_tail_quantile(0.005) - 2.5758293) <= 1e-6
    assert abs(inverse_tail_quantile(0.0013499) - 3.0) <= 1e-5
    assert 37.0 < inverse_tail_quantile(1e-300) < 37.1
    with pytest.raises(RangeError):
        inverse_tail_quantile(0.0)
    with pytest.raises(RangeError):
        inverse_tail_quantile(0.7)


def test_wald_interval_published_rounding():
    w = wald_interval(567, 1000, 0.005)
    assert round(100 * w.estimate, 1) == 56.7
    assert round(100 * w.half_width, 1) == 4.0
    w = wald_interval(93, 1000, 0.005)
    assert round(100 * w.estimate, 1) == 9.3
    assert round(100 * w.half_width, 1) == 2.4


def test_wald_interval_edges():
    w = wald_interval(0, 50, 0.005)
    assert w.degenerate and w.lo == w.hi == 0.0
    w = wald_interval(50, 50, 0.005)
    assert w.degenerate and w.lo == w.hi == 1.0
    w = wald_interval(1, 4, 0.005)
    assert w.lo == 0.0  # clamped at the boundary
    assert w.contains(0.0) and not w.contains(0.9)
    with pytest.raises(RangeError):
        wald_interval(5, 4, 0.005)
    with pytest.raises(RangeError):
        wald_interval(-1, 4, 0.005)


def test_wald_width_scales_inverse_sqrt():
    a = wald_interval(100, 400, 0.005)
    b = wald_interval(400, 1600, 0.005)
    assert abs(a.half_width / b.half_width - 2.0) < 1e-12


def test_interval_level():
    w = wald_interval(10, 100, 0.005)
    assert abs(w.level - 0.99) < 1e-12


# ---------------------------------------------------------------------------
# brute force ground truth

def test_brute_force_single_matches_model():
    for q, n in ((2, 1), (2, 2), (3, 1)):
        assert brute_force_distribution(q, n, "single") == gamma_model(q, n).pmf_vector()


def test_brute_force_product_matches_model():
    for q, n in ((2, 1), (3, 1)):
        assert brute_force_distribution(q, n, "product") == product_model(q, n).pmf_vector()


def test_brute_force_intersection_matches_model():
    got = brute_force_distribution(3, 1, "intersection", x_points=[(0,), (2,)])
    model = intersection_model(3, 1, 2)
    assert got[:3] == model.pmf_vector()
    assert got[3] == 0
    empty = brute_force_distribution(2, 1, "intersection", x_points=[])
    assert empty[0] == 1


def test_brute_force_substitution_matches_model():
    got = brute_force_distribution(
        2, 1, "substitution", x_points=[(0, 0)], m=2
    )
    model = substitution_model(2, 1, Fraction(1, 4))
    assert got == model.pmf_vector()
    # duplicated points in X count once
    dup = brute_force_distribution(
        2, 1, "substitution", x_points=[(0, 0), (0, 0)], m=2
    )
    assert dup == got


def test_brute_force_limits_and_errors():
    with pytest.raises(TooLarge):
        brute_force_distribution(5, 2, "single")
    with pytest.raises(TooLarge):
        brute_force_distribution(2, 2, "single", limit=10)
    # rejected by the exponent, before q^domain or the count table is built
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"3\^43046721 functions"):
        brute_force_distribution(3, 16, "single")
    with pytest.raises(TooLarge, match=r"2\^8192 function pairs"):
        brute_force_distribution(2, 12, "product")
    with pytest.raises(TooLarge, match=r"2\^40960 maps"):
        brute_force_distribution(2, 12, "substitution", x_points=[(0,) * 10], m=10)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(RangeError):
        brute_force_distribution(2, 1, "nonsense")
    with pytest.raises(RangeError):
        brute_force_distribution(2, 1, "intersection", x_points=[(9,)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_wald_interval_properties(nk):
    n, k = nk
    iv = wald_interval(k, n, 0.005)
    assert 0.0 <= iv.lo <= iv.estimate <= iv.hi <= 1.0
    assert iv.contains(k / n)
    assert iv.degenerate == (k == 0 or k == n)
    # interval for the complementary count is the mirror image
    other = wald_interval(n - k, n, 0.005)
    assert math.isclose(other.half_width, iv.half_width, abs_tol=1e-12)
    assert math.isclose(other.estimate, 1 - iv.estimate, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 60), st.fractions(0, 1))
def test_binomial_pmf_is_a_distribution(trials, p):
    model = BinomialModel(trials=trials, success_p=p)
    vec = model.pmf_vector()
    assert sum(vec) == 1
    assert all(v >= 0 for v in vec)
    assert sum(k * v for k, v in enumerate(vec)) == trials * p
