"""Integer polynomial arithmetic, exact division, packed kernels, stage entries, and series coefficients."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gaussdet import exact
from gaussdet.exact import EtaPoly, poly_h
from matrix_elimination import monomial

polys = st.builds(EtaPoly, st.lists(st.integers(-30, 30), max_size=31))
nonzero_polys = polys.filter(bool)


H1 = poly_h(1)  # 1 - eta^2
ETA = monomial(1)


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
    assert not (EtaPoly.zero() * H1)


def test_scalar_and_power_arithmetic():
    # a power is a repeated product; there is no ** operator
    assert EtaPoly((2,)) * ETA == EtaPoly((0, 2))
    assert ETA * ETA * ETA == monomial(3)
    assert H1 * H1 == EtaPoly((1, 0, -2, 0, 1))
    with pytest.raises(TypeError):
        H1 ** 2


@given(polys, st.integers(0, 40), st.integers(-30, 30))
def test_monomial_and_constant_operands_shift_and_scale(p, k, c):
    assert monomial(k) * p == p._shifted(k) == p * monomial(k)
    assert EtaPoly((c,)) * p == p * EtaPoly((c,)) == EtaPoly([c * x for x in p.coefficients])


def test_int_operands_are_refused():
    p = EtaPoly((1, 1))
    for operation in (lambda: 1 - p, lambda: p + 1, lambda: 2 * p, lambda: p / 1):
        with pytest.raises(TypeError):
            operation()
    assert (p == 1) is False
    assert (EtaPoly.one() == 1) is False and (EtaPoly.zero() == 0) is False


@pytest.mark.parametrize("shift", [True, 1.0, Fraction(1)])
def test_in_eta_refuses_a_non_int_shift(shift):
    with pytest.raises(ValueError, match="eta shift"):
        EtaPoly((1, 1)).in_eta(shift)


@pytest.mark.parametrize("point", [0.1, 0.5, 1.0, True])
def test_evaluation_refuses_a_float_or_bool_point(point):
    # Fraction(0.1) is the binary value of the float, not 1/10
    with pytest.raises(TypeError, match="Fraction or int"):
        EtaPoly((1, 1))(point)


def test_evaluation_takes_ints_and_fractions():
    assert EtaPoly((1, 1))(Fraction(1, 10)) == Fraction(11, 10)
    assert EtaPoly((1, 0, 2))(3) == 19


def test_canonical_form_strips_trailing_zeros():
    assert EtaPoly((1, 2, 0, 0)) == EtaPoly((1, 2))
    assert EtaPoly((0, 0)) == EtaPoly.zero()
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


# -- integer coefficients only ---------------------------------------------------


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, 2.0, True, False])
def test_non_int_coefficients_raise_type_error(bad):
    with pytest.raises(TypeError):
        EtaPoly((1, bad))
    with pytest.raises(TypeError):
        H1 / bad
    with pytest.raises(TypeError):
        H1 * bad
    with pytest.raises(TypeError):
        bad * H1


def test_coefficients_are_the_stored_ints():
    assert poly_h(2).coefficients == (1, 0, 0, 0, -1)
    assert all(type(c) is int for c in (H1 * EtaPoly((3,))).coefficients)
    assert EtaPoly.one() != Fraction(1)


def test_in_eta_reads_a_z_polynomial_in_eta():
    q = EtaPoly((1, -2, 0, 3))  # 1 - 2z + 3z^3
    assert q.in_eta() == EtaPoly((1, 0, -2, 0, 0, 0, 3))
    assert q.in_eta(3) == monomial(3) * q.in_eta()
    # h_q read in z is poly_h(q)
    assert (EtaPoly.one() - monomial(2)).in_eta() == poly_h(2)
    assert EtaPoly.zero().in_eta(5) == EtaPoly.zero()
    with pytest.raises(ValueError):
        q.in_eta(-1)


@given(polys, st.integers(0, 9), st.fractions(-3, 3))
def test_in_eta_is_evaluation_at_eta_squared(q, shift, x):
    assert q.in_eta(shift)(x) == x ** shift * q(x * x)


@given(polys, st.integers(0, 9))
def test_shifted_is_the_monomial_product(p, places):
    assert p._shifted(places) == monomial(places) * p


# -- exact division ------------------------------------------------------------


def test_divmod_exact_case():
    assert exact._exact_quotient(poly_h(2), H1) == EtaPoly((1, 0, 1))
    assert poly_h(2) / H1 == EtaPoly((1, 0, 1))
    assert poly_h(3) / EtaPoly.one() == poly_h(3)


def test_divmod_eta_minus_eta5():
    a = ETA - monomial(5)  # eta - eta^5
    q = exact._exact_quotient(a, H1)
    assert q * H1 == a  # re-multiplication oracle
    assert q == EtaPoly((0, 1, 0, 1))  # eta + eta^3
    assert a / H1 == q


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        exact._exact_quotient(H1, EtaPoly.zero())


def test_inexact_division_raises():
    wide = 2 ** 70
    for a, b in [
        (H1, poly_h(2)),  # a lower degree than b
        (ETA, EtaPoly((1, 1))),  # a remainder
        (EtaPoly((1, 1)), EtaPoly((2,))),  # a rational quotient
        (EtaPoly((1, 1)), EtaPoly((0, 2))),  # a rational function
        (EtaPoly((wide, 1)), EtaPoly((1, 1))),  # a remainder, past a slot
        (EtaPoly((wide, wide + 1)), EtaPoly((0, 2))),  # a rational quotient, past a slot
    ]:
        with pytest.raises(ArithmeticError, match="does not divide"):
            a / b


def test_division_by_a_non_unit_leading_coefficient():
    assert EtaPoly((0, 4)) / EtaPoly((0, 2)) == EtaPoly((2,))
    divisor = EtaPoly((2, 0, -3))
    assert EtaPoly((1, 3)) * divisor / divisor == EtaPoly((1, 3))


# -- packed integer kernels ----------------------------------------------------


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def rational_divmod(a, b):
    """Quotient and remainder of two coefficient lists by long division over the rationals."""
    rem = [Fraction(c) for c in a]
    db = len(b) - 1
    quot = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(rem) - 1, db - 1, -1):
        qc = rem[k] / b[-1]
        quot[k - db] = qc
        for m, c in enumerate(b):
            rem[k - db + m] -= qc * c
    return quot, rem[:db]


# small coefficients and interior zeros, alone or with values past a 64-bit slot
small_coeffs = st.one_of(st.integers(-3, 3), st.just(0), st.integers(-2 ** 20, 2 ** 20))
wide_coeffs = st.one_of(small_coeffs, st.integers(-2 ** 100, 2 ** 100))
int_lists = st.one_of(st.lists(small_coeffs, max_size=40), st.lists(wide_coeffs, max_size=40))
int_seqs = int_lists.filter(any)
int_polys = st.builds(EtaPoly, int_lists)
nonzero_int_polys = int_polys.filter(bool)


def packed_product_expected(a, b):
    """The schoolbook product, or None when a product coefficient could reach 2^63."""
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    return schoolbook(a, b) if bound < 2 ** 63 else None


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


@given(int_seqs, int_seqs)
def test_wide_product_is_the_schoolbook_product(a, b):
    assert exact._wide_product(a, b) == schoolbook(a, b)


@pytest.mark.parametrize("bits", [60, 63, 64, 100, 200])
@pytest.mark.parametrize("terms", [exact._PACKED_MIN_TERMS - 1, exact._PACKED_MIN_TERMS, 25])
def test_wide_product_on_both_sides_of_the_term_threshold(terms, bits):
    # every slot of a factor is nonzero and the sign alternates, so the product's
    # middle coefficients reach the bound's magnitude
    a = [(-1) ** k * (2 ** bits - k) for k in range(terms)]
    b = [2 ** bits - 1, -(2 ** bits - 1), 1, -5] * 4
    expected = schoolbook(a, b)
    assert exact._wide_product(a, b) == expected
    assert EtaPoly(a) * EtaPoly(b) == EtaPoly(expected)


def test_wide_product_fills_its_slots():
    # a one-byte slot holds magnitudes below 2^7: a bound of 127 fits one byte,
    # 128 takes two, and 2^64 takes nine
    assert exact._wide_product([-127], [1, -1, 0, 1]) == [-127, 127, 0, -127]
    assert exact._wide_product([128], [-1, 1]) == [-128, 128]
    top = 2 ** 63
    assert exact._wide_product([top, 0, -1], [1, -1]) == [top, -top, -1, 1]


@given(int_polys, nonzero_int_polys)
def test_exact_quotient_is_the_divmod_quotient(a, b):
    # an exact case built from the pair, and the pair itself, usually inexact;
    # coefficients past a 64-bit slot send both through long division
    for dividend in (a * b, a):
        quot, rem = rational_divmod(dividend.coefficients, b.coefficients)
        if any(rem) or any(q.denominator != 1 for q in quot):
            with pytest.raises(ArithmeticError):
                exact._exact_quotient(dividend, b)
        else:
            assert exact._exact_quotient(dividend, b) == EtaPoly(map(int, quot))
    assert a * b / b == a


def test_exact_quotient_wider_than_a_slot_takes_long_division():
    # (1 + eta)^k has binomial coefficients wider than its product with 1 - eta:
    # 63 against 60 bits fits a slot, 64 against 61 bits does not
    divisor = EtaPoly((1, -1))
    for k in (66, 67):
        binomial = EtaPoly([math.comb(k, m) for m in range(k + 1)])
        a = binomial * divisor
        assert max(map(abs, a.coefficients)) < 2 ** 63
        assert a / divisor == binomial
    # the packed quotient of the wider one does not read back as its coefficients
    packed = exact._pack(a.coefficients) // exact._pack(divisor.coefficients)
    assert exact._unpack(packed, 68) != list(binomial.coefficients)


def assert_canonical(p):
    """p is the polynomial the checked public constructor builds from its coefficients."""
    rebuilt = EtaPoly(list(p.coefficients))
    assert p.coefficients == rebuilt.coefficients
    assert p == rebuilt and hash(p) == hash(rebuilt)


def test_kernel_results_are_canonical():
    schoolbook_factor = EtaPoly((1, 0, -2, 3))
    packed_factor = EtaPoly(range(-4, 6))  # nine nonzero terms
    wide_factor = EtaPoly([(-1) ** k * (2 ** 70 - k) for k in range(exact._PACKED_MIN_TERMS)])
    slot_wide = EtaPoly([math.comb(67, m) for m in range(68)])  # (1 + eta)^67
    results = [
        H1 + ETA, H1 - ETA, H1 + EtaPoly.one(), EtaPoly.one() - H1, -H1,
        packed_factor * EtaPoly((3,)), packed_factor * EtaPoly((-1,)),
        EtaPoly((-2,)) * packed_factor, packed_factor * EtaPoly.one(),
        EtaPoly((0, 0, 0, -2)) * packed_factor,
        packed_factor * packed_factor,
        wide_factor * packed_factor,
        schoolbook_factor * H1,
        (packed_factor * H1) / H1,
        (slot_wide * EtaPoly((1, -1))) / EtaPoly((1, -1)),
        H1.in_eta(), H1.in_eta(3),
    ]
    for result in results:
        assert_canonical(result)


def test_kernel_results_cancel_to_the_zero_polynomial():
    p = EtaPoly((1, 1))
    for zero in (p - p, p + -p, p * EtaPoly.zero(), EtaPoly.zero() * p, EtaPoly.zero() / p,
                 EtaPoly.zero().in_eta(2)):
        assert_canonical(zero)
        assert zero.coefficients == () and zero.degree == -1 and zero == EtaPoly.zero()
    # the top terms cancel, leaving no trailing zero
    top_cancelled = EtaPoly((1, 0, 1)) - monomial(2)
    assert_canonical(top_cancelled)
    assert top_cancelled.coefficients == (1,)


# -- stage entries --------------------------------------------------------------


def test_ratfunc_reduces_to_polynomial():
    # an exact quotient is the polynomial itself
    rf = (ETA - monomial(5)) / H1
    assert type(rf) is EtaPoly
    assert rf == EtaPoly((0, 1, 0, 1))


def test_ratfunc_zero_denominator_raises():
    # an entry over a zero denominator
    with pytest.raises(ZeroDivisionError):
        H1 / EtaPoly.zero()


def test_ratfunc_zero_numerator():
    rf = EtaPoly.zero() / H1
    assert type(rf) is EtaPoly and rf == EtaPoly.zero()


def test_ratfunc_equal_num_den():
    assert H1 / H1 == EtaPoly.one()


def test_ratfunc_ring_ops_and_exact_division():
    assert H1 + H1 == EtaPoly((2,)) * H1
    assert H1 - H1 == EtaPoly.zero()
    assert H1 * ETA / H1 == ETA
    assert type(H1 / H1) is EtaPoly


points = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100)


@given(polys, polys, nonzero_polys, points)
def test_ratfunc_arithmetic_agrees_with_evaluation(a, b, c, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a - b)(x) == a(x) - b(x)
    assert (a * b)(x) == a(x) * b(x)
    assert (a * c / c)(x) == a(x)


# -- truncated series ---------------------------------------------------------


def series_one_minus_exp(x: int, order: int) -> tuple[Fraction, ...]:
    """Coefficients of 1 - exp(-2*x*t) up to t^order (index = power of t).

    The constant term is zero and the coefficient of t^m is -(-2x)^m / m!,
    so the linear term is 2x*t.  This is the ``Fraction`` oracle that
    ``closedform.series_determinant`` is checked against.
    """
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"x must be an integer >= 1, got {x!r}")
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    coeffs = [Fraction(0)]
    power = 1
    for m in range(1, order + 1):
        power *= -2 * x
        coeffs.append(Fraction(-power, math.factorial(m)))
    return tuple(coeffs)


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
    assert str(EtaPoly((0, 3))) == "3*eta"
    assert str(ETA - monomial(5)) == "eta - eta^5"


def test_ratfunc_rendering():
    assert str(H1 * ETA / ETA) == "1 - eta^2"
    assert repr(ETA) == "EtaPoly(eta)"


def test_coefficients_are_fractions():
    assert all(isinstance(c, Fraction) for c in series_one_minus_exp(1, 3))
