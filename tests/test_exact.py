"""Scalar, polynomial and rational-function arithmetic, packed kernels, and series coefficients."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from gaussdet import exact
from gaussdet.exact import (
    EtaPoly,
    EtaRatFunc,
    poly_gcd,
    poly_h,
    series_one_minus_exp,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.builds(EtaPoly, st.lists(rationals, max_size=31))
nonzero_polys = polys.filter(lambda p: not p.is_zero)


H1 = poly_h(1)  # 1 - eta^2
ETA = EtaPoly.monomial(1)


# -- poly_h ------------------------------------------------------------------


def test_poly_h_small_cases():
    assert poly_h(1) == EtaPoly((1, 0, -1))
    assert poly_h(2) == EtaPoly((1, 0, 0, 0, -1))
    assert poly_h(3) == EtaPoly((1, 0, 0, 0, 0, 0, -1))


@pytest.mark.parametrize("q", range(1, 9))
def test_poly_h_shape(q):
    h = poly_h(q)
    assert h.degree == 2 * q
    nonzero = list(h.terms())
    assert nonzero == [(0, 1), (2 * q, -1)]


@pytest.mark.parametrize("q", [0, -1, -7])
def test_poly_h_rejects_nonpositive(q):
    with pytest.raises(ValueError):
        poly_h(q)


# -- ring arithmetic ---------------------------------------------------------


def test_difference_of_squares():
    assert H1 * EtaPoly((1, 0, 1)) == poly_h(2)


def test_addition_cancels_to_constant():
    assert H1 + EtaPoly((0, 0, 1)) == EtaPoly.one()


def test_multiplication_by_zero_absorbs():
    assert H1 * EtaPoly.zero() == EtaPoly.zero()
    assert not (H1 * 0)


def test_scalar_and_power_arithmetic():
    assert 2 * ETA == EtaPoly((0, 2))
    assert ETA ** 3 == EtaPoly.monomial(3)
    assert (H1 ** 2) == H1 * H1
    assert H1 ** 0 == EtaPoly.one()


def test_canonical_form_strips_trailing_zeros():
    assert EtaPoly((1, 2, 0, 0)) == EtaPoly((1, 2))
    assert EtaPoly((0, 0)).is_zero
    assert EtaPoly((1, 2)).degree == 1
    assert EtaPoly().degree == -1


@given(polys, polys)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys, polys)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(nonzero_polys, nonzero_polys)
def test_degree_is_additive_on_products(a, b):
    assert (a * b).degree == a.degree + b.degree


# -- division ----------------------------------------------------------------


def test_divmod_exact_case():
    q, r = divmod(poly_h(2), H1)
    assert q == EtaPoly((1, 0, 1))
    assert r.is_zero


def test_divmod_low_degree_numerator():
    q, r = divmod(H1, poly_h(2))
    assert q.is_zero
    assert r == H1


def test_divmod_eta_minus_eta5():
    a = ETA - EtaPoly.monomial(5)  # eta - eta^5
    q, r = divmod(a, H1)
    assert r.is_zero
    assert q * H1 + r == a  # re-multiplication oracle
    assert q == EtaPoly((0, 1, 0, 1))  # eta + eta^3


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(H1, EtaPoly.zero())


@given(polys, nonzero_polys)
def test_divmod_invariant(a, b):
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


# -- packed integer kernels ----------------------------------------------------


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# small coefficients and interior zeros, alone or with values past a 64-bit slot
small_coeffs = st.one_of(st.integers(-3, 3), st.just(0), st.integers(-2 ** 20, 2 ** 20))
wide_coeffs = st.one_of(small_coeffs, st.integers(-2 ** 100, 2 ** 100))
int_lists = st.one_of(st.lists(small_coeffs, max_size=40), st.lists(wide_coeffs, max_size=40))
int_seqs = int_lists.filter(any)
int_polys = st.builds(EtaPoly, int_lists)
nonzero_int_polys = int_polys.filter(lambda p: not p.is_zero)


def fits_slots(*polys):
    return all(abs(c) < 2 ** 63 for p in polys for c in p.coefficients)


def packed_product_expected(a, b):
    """The schoolbook product, or None when a product coefficient could reach 2^63."""
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    return schoolbook(a, b) if bound < 2 ** 63 else None


def exact_quotient_expected(a, b):
    """divmod's quotient when it is exact and integral and every coefficient fits a slot."""
    q, r = divmod(a, b)
    if not r.is_zero or any(c.denominator != 1 for c in q.coefficients):
        return None
    return q if a.is_zero or fits_slots(a, b, q) else None


@given(int_seqs, int_seqs)
def test_packed_product_is_the_schoolbook_product(a, b):
    assert exact._packed_product(a, b) == packed_product_expected(a, b)
    assert EtaPoly(a) * EtaPoly(b) == EtaPoly(schoolbook(a, b))


def test_packed_product_fills_a_slot():
    top = 2 ** 63 - 1
    assert exact._packed_product([-top], [1, -1, 0, 1]) == [-top, top, 0, -top]
    assert exact._packed_product([top, 0, 1], [1, 1]) is None


@pytest.mark.parametrize("bits", [3, 29, 30, 62, 130])
@pytest.mark.parametrize("terms", [1, exact._PACKED_MIN_TERMS - 1, exact._PACKED_MIN_TERMS, 25])
def test_poly_product_on_both_sides_of_the_term_threshold(terms, bits):
    # signs alternate, zeros sit between the terms, and the top coefficient is the widest
    a = [0] * (2 * terms - 1)
    for k in range(terms):
        a[2 * k] = (-1) ** k * (2 ** bits - k)
    b = [2 ** bits - 1, 0, -1, 5] * 4
    assert EtaPoly(a) * EtaPoly(b) == EtaPoly(schoolbook(a, b))
    assert exact._packed_product(a, b) == packed_product_expected(a, b)


@given(int_polys, nonzero_int_polys)
def test_exact_quotient_is_the_divmod_quotient(a, b):
    # an exact case built from the pair, and the pair itself, usually inexact
    assert exact._exact_quotient(a * b, b) == exact_quotient_expected(a * b, b)
    assert EtaRatFunc(a * b) / EtaRatFunc(b) == a
    assert exact._exact_quotient(a, b) == exact_quotient_expected(a, b)


def test_exact_quotient_refuses_a_quotient_too_wide():
    # (1 + eta)^k has binomial coefficients wider than its product with 1 - eta:
    # 63 against 60 bits fits a slot, 64 against 61 bits does not
    a = EtaPoly((1, 1)) ** 66 * EtaPoly((1, -1))
    assert exact._exact_quotient(a, EtaPoly((1, -1))) == EtaPoly((1, 1)) ** 66
    a = EtaPoly((1, 1)) ** 67 * EtaPoly((1, -1))
    assert exact._exact_quotient(a, EtaPoly((1, -1))) is None
    assert EtaRatFunc(a) / EtaRatFunc(EtaPoly((1, -1))) == EtaPoly((1, 1)) ** 67


@given(st.one_of(int_polys, polys), st.one_of(nonzero_int_polys, nonzero_polys))
def test_polynomial_division_is_the_reduced_quotient(a, b):
    # exact, inexact, non-unit leading coefficients and Fraction operands alike
    quotient = EtaRatFunc(a) / EtaRatFunc(b)
    assert quotient == EtaRatFunc(a, b)
    assert str(quotient) == str(EtaRatFunc(a, b))


def test_division_by_a_non_unit_leading_coefficient():
    assert EtaRatFunc(EtaPoly((0, 4))) / EtaRatFunc(EtaPoly((0, 2))) == 2
    quotient = EtaRatFunc(EtaPoly((1, 1))) / EtaRatFunc(EtaPoly((0, 2)))
    assert quotient.num == EtaPoly((Fraction(1, 2), Fraction(1, 2)))
    assert quotient.den == ETA


def test_poly_gcd_is_monic():
    g = poly_gcd(ETA - EtaPoly.monomial(5), H1)
    assert g == EtaPoly((-1, 0, 1))  # monic form of 1 - eta^2
    assert poly_gcd(EtaPoly.zero(), EtaPoly.zero()).is_zero


# -- rational functions -------------------------------------------------------


def test_ratfunc_reduces_to_polynomial():
    rf = EtaRatFunc(ETA - EtaPoly.monomial(5), H1)
    assert rf.is_polynomial
    assert rf.as_poly() == EtaPoly((0, 1, 0, 1))
    assert rf.den == EtaPoly.one()


def test_ratfunc_zero_numerator():
    rf = EtaRatFunc(EtaPoly.zero(), H1)
    assert rf.num.is_zero and rf.den == EtaPoly.one()


def test_ratfunc_equal_num_den():
    rf = EtaRatFunc(H1, H1)
    assert rf == 1


def test_ratfunc_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        EtaRatFunc(H1, EtaPoly.zero())


def test_ratfunc_denominator_is_monic():
    rf = EtaRatFunc(EtaPoly.one(), EtaPoly((0, 2)))  # 1 / (2*eta)
    assert rf.den == ETA
    assert rf.num == EtaPoly((Fraction(1, 2),))


def test_ratfunc_field_ops():
    f = EtaRatFunc(EtaPoly.one(), H1)
    g = EtaRatFunc(H1)
    assert f * g == 1
    assert g / g == 1
    assert f - f == 0
    assert (f + f) == EtaRatFunc(EtaPoly((2,)), H1)
    with pytest.raises(ZeroDivisionError):
        f / EtaRatFunc(EtaPoly.zero())


def test_ratfunc_mixed_comparisons():
    assert EtaRatFunc(H1) == H1
    assert EtaRatFunc(EtaPoly.one()) == 1
    assert hash(EtaRatFunc(H1)) == hash(H1)


points = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100)


@given(polys, nonzero_polys, polys, nonzero_polys, points)
def test_ratfunc_arithmetic_agrees_with_evaluation(an, ad, bn, bd, x):
    assume(ad(x) != 0 and bd(x) != 0)
    f = EtaRatFunc(an, ad)
    g = EtaRatFunc(bn, bd)
    assert (f + g)(x) == f(x) + g(x)
    assert (f - g)(x) == f(x) - g(x)
    assert (f * g)(x) == f(x) * g(x)
    if g(x) != 0 and not g.is_zero:
        assert (f / g)(x) == f(x) / g(x)


def test_ratfunc_evaluation_at_denominator_root_raises():
    f = EtaRatFunc(EtaPoly.one(), ETA)
    with pytest.raises(ZeroDivisionError):
        f(0)


# -- truncated series ---------------------------------------------------------


def test_series_one_minus_exp_order_three():
    s = series_one_minus_exp(1, 3)
    assert s == (0, 2, -2, Fraction(4, 3))


def test_series_one_minus_exp_linear_truncations():
    assert series_one_minus_exp(1, 1) == (0, 2)
    assert series_one_minus_exp(3, 1) == (0, 6)


@pytest.mark.parametrize("x, order", [(0, 3), (-1, 3), (1, 0), (2, -2)])
def test_series_one_minus_exp_rejects_bad_arguments(x, order):
    with pytest.raises(ValueError):
        series_one_minus_exp(x, order)


@pytest.mark.parametrize("x", range(1, 11))
@pytest.mark.parametrize("order", range(1, 9))
def test_series_head_shape(x, order):
    s = series_one_minus_exp(x, order)
    assert len(s) == order + 1
    assert s[0] == 0
    assert s[1] == 2 * x


@given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 8))
def test_series_exponent_addition_law(x, y, order):
    # 1 - e^{-2(x+y)t} = s_x + s_y - s_x * s_y, coefficient by coefficient up to t^order
    sx = series_one_minus_exp(x, order)
    sy = series_one_minus_exp(y, order)
    product = [sum(sx[i] * sy[m - i] for i in range(m + 1)) for m in range(order + 1)]
    expected = tuple(sx[m] + sy[m] - product[m] for m in range(order + 1))
    assert series_one_minus_exp(x + y, order) == expected


# -- canonical text rendering --------------------------------------------------


def test_poly_rendering_golden():
    assert str(EtaPoly((1, 0, -2, 0, 0, 0, 2, 0, -1))) == "1 - 2*eta^2 + 2*eta^6 - eta^8"
    assert str(EtaPoly.zero()) == "0"
    assert str(ETA) == "eta"
    assert str(EtaPoly((0, 0, -1))) == "-eta^2"
    assert str(EtaPoly((Fraction(1, 2),))) == "1/2"
    assert str(EtaPoly((0, Fraction(3, 2)))) == "3/2*eta"
    assert str(ETA - EtaPoly.monomial(5)) == "eta - eta^5"


def test_ratfunc_rendering():
    assert str(EtaRatFunc(H1)) == "1 - eta^2"
    assert str(EtaRatFunc(EtaPoly.one(), ETA)) == "(1) / (eta)"


def test_coefficients_are_fractions():
    assert all(isinstance(c, Fraction) for c in poly_h(2).coefficients)
    assert all(isinstance(c, Fraction) for c in series_one_minus_exp(1, 3))
