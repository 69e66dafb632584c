"""Closed-form stage entries, the h-factor determinant, and its leading term."""

import functools
import operator
from fractions import Fraction

import pytest

from gaussdet import closedform, multisets
from gaussdet.closedform import (
    AgreementReport,
    _closed_form_rows,
    _times_h,
    _u_value,
    ai1_grid_holds,
    ai2_grid_holds,
    check_ai1,
    check_ai2,
    closed_form_u,
    factored_determinant,
    leading_term,
    series_determinant,
    superfactorial,
    verify_closed_form,
)
from gaussdet.exact import EtaPoly, poly_h
from gaussdet.neville import (
    brute_force_det,
    diagonal_product,
    neville_eliminate,
)
from gaussdet.tpprobe import MinorIndex
from matrix_elimination import bareiss_det, monomial
from test_exact import series_one_minus_exp


def reference_verify_closed_form(n, blocks) -> AgreementReport:
    """verify_closed_form as one multiset closed form per entry, for all n^3 entries.

    Every entry of every stage is read off the blocks (a frozen row from the
    pivot row it froze with, an entry left of the stage as zero) and
    compared, in (stage, row, column) order, with ``_u_value``.
    """
    zero = EtaPoly.zero()
    pivot_rows = []
    checked = 0
    for s, block in zip(range(1, n + 1), blocks):
        pivot_rows.append(block[0])
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i < s:
                    actual = pivot_rows[i - 1][j - i] if j >= i else zero
                elif j < s:
                    actual = zero
                else:
                    actual = block[i - s][j - i] if j >= i else block[j - s][i - j]
                expected = _u_value(s, i, j)
                checked += 1
                if actual != expected:
                    shift = (i - j) ** 2
                    return AgreementReport(n, checked, False, (s, i, j),
                                           str(expected.in_eta(shift)), str(actual.in_eta(shift)))
    return AgreementReport(n, checked, True)


# -- superfactorial ----------------------------------------------------------------


def test_superfactorial_values():
    assert superfactorial(1) == 1
    assert superfactorial(2) == 2
    assert superfactorial(3) == 12
    assert superfactorial(4) == 288


@pytest.mark.parametrize("n", [0, -3])
def test_superfactorial_rejects_nonpositive(n):
    with pytest.raises(ValueError):
        superfactorial(n)


# -- algebraic identities ------------------------------------------------------------


def test_ai1_spot_values():
    assert check_ai1(1, 1, 1)
    assert check_ai1(3, 2, 1)
    assert check_ai1(7, 4, 2)


def test_ai1_full_grid():
    assert ai1_grid_holds()


def test_ai2_spot_values():
    assert check_ai2(2, 2)  # (1 - eta^2) * 1
    assert check_ai2(3, 2)  # (1 - eta^2)(1 + eta^2) = 1 - eta^4
    assert check_ai2(5, 4)  # both sides 1 - eta^24


def test_ai2_j_one_edge_is_zero_equals_zero():
    assert check_ai2(2, 1)
    assert check_ai2(9, 1)


def test_ai2_full_grid():
    assert ai2_grid_holds()


def test_ai2_rejects_out_of_range():
    with pytest.raises(ValueError):
        check_ai2(1, 2)
    with pytest.raises(ValueError):
        check_ai2(3, 0)


# -- closed-form stage entries ---------------------------------------------------------


def test_closed_form_first_stage_is_plain_power():
    assert closed_form_u(1, 2, 3, 4) == monomial(1)
    assert closed_form_u(1, 1, 4, 4) == monomial(9)


def test_closed_form_matches_hand_elimination():
    # stage 2, entry (3, 2): eta * (1 - eta^2) * (1 + eta^2) = eta - eta^5
    assert closed_form_u(2, 3, 2, 3) == EtaPoly((0, 1, 0, 0, 0, -1))


def test_closed_form_zero_block():
    assert closed_form_u(3, 4, 2, 4) == EtaPoly.zero()


def test_closed_form_diagonal_is_h_product():
    assert closed_form_u(3, 3, 3, 3) == poly_h(1) * poly_h(2)


def test_closed_form_frozen_rows():
    # row 1 froze at stage 1, row 2 at stage 2
    assert closed_form_u(3, 1, 3, 3) == monomial(4)
    assert closed_form_u(3, 2, 1, 3) == EtaPoly.zero()
    assert closed_form_u(4, 2, 3, 4) == closed_form_u(2, 2, 3, 4)


def test_closed_form_index_validation():
    with pytest.raises(IndexError):
        closed_form_u(0, 1, 1, 2)
    with pytest.raises(IndexError):
        closed_form_u(3, 1, 1, 2)
    with pytest.raises(IndexError):
        closed_form_u(1, 1, 5, 4)


@pytest.mark.parametrize(
    "args, error",
    [
        ((True, 1, 1, 2), IndexError),
        ((1.0, 1, 1, 2), IndexError),
        ((2, 2, 2.0, 3), IndexError),
        ((2, True, 2, 3), IndexError),
        ((1, 1, 1, 2.0), ValueError),
        ((1, 1, 1, True), ValueError),
    ],
)
def test_closed_form_refuses_non_int_indices(args, error):
    # closed_form_u(True, 1, 1, 2) used to return 1, and a float j failed inside range()
    with pytest.raises(error, match=repr([a for a in args if type(a) is not int][0])):
        closed_form_u(*args)


def test_closed_form_stage_two_row_matches_geometric_display():
    # the dedicated stage-2 form: eta^((i-j)^2) h_{j-1} sum_k eta^(2[k(j-2)+k])
    for n in (4, 5):
        for i in range(2, n + 1):
            for j in range(2, n + 1):
                direct = EtaPoly.zero()
                for k in range(i - 1):
                    direct = direct + monomial(2 * (k * (j - 2) + k))
                direct = monomial((i - j) ** 2) * poly_h(j - 1) * direct
                assert closed_form_u(2, i, j, n) == direct


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_closed_form_agrees(n):
    report = verify_closed_form(n)
    assert report.agree
    assert report.entries_checked == n ** 3
    assert report.first_mismatch is None


def test_verify_closed_form_accepts_precomputed_trace():
    assert verify_closed_form(4, blocks=neville_eliminate(4)).agree
    # a larger elimination's first n blocks, read within rows and columns <= n
    report = verify_closed_form(4, blocks=tuple(neville_eliminate(6)))
    assert report.agree and report.entries_checked == 4 ** 3
    # too few points, or too few stages
    with pytest.raises(ValueError, match="stage 1 block has 4 rows, expected 5"):
        verify_closed_form(5, blocks=neville_eliminate(4))
    with pytest.raises(ValueError, match="blocks hold 2 stages, expected 3"):
        verify_closed_form(3, blocks=tuple(neville_eliminate(3))[:2])


def test_verify_closed_form_reports_first_mismatch():
    # blocks whose input has eta^3 for eta at the first off-diagonal entry:
    # Q(1, 1, 2) is z, not 1
    one, z = EtaPoly.one(), monomial(1)
    wrong = (((one, z), (one,)), ((EtaPoly((1, 0, -1)),),))
    report = verify_closed_form(2, blocks=wrong)
    assert not report.agree
    assert report.first_mismatch == (1, 1, 2)
    assert report.expected == "eta"
    assert report.actual == "eta^3"


@pytest.mark.parametrize("streamed", [False, True], ids=["table", "streamed"])
@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_rows_equal_the_multiset_sums(n, streamed, monkeypatch):
    # every active Q(s, i, j), built as a running sum, against enumerate_simplex's multiset
    if streamed:
        monkeypatch.setattr(multisets, "_ROWS_MAX_COUNTS", 0)
        monkeypatch.setattr(multisets, "_ROWS", {})
    for s in range(1, n + 1):
        rows = list(_closed_form_rows(s, n))
        assert len(rows) == n - s + 1
        for i, row in enumerate(rows, s):
            assert len(row) == n - s + 1
            for j, q in enumerate(row, s):
                assert q == _u_value(s, i, j), (s, i, j)
    if streamed:
        assert multisets._ROWS == {}
        assert verify_closed_form(n).agree


def test_verify_closed_form_enumerates_no_multiset(monkeypatch):
    calls = []
    enumerate_simplex = multisets.enumerate_simplex

    def counted(spec):
        calls.append(spec)
        return enumerate_simplex(spec)

    monkeypatch.setattr(multisets, "enumerate_simplex", counted)
    monkeypatch.setattr(closedform, "enumerate_simplex", counted)
    assert verify_closed_form(10).agree
    assert calls == []
    # the oracle still counts its multiset through the patched name
    closed_form_u(3, 4, 5, 6)
    assert len(calls) == 1


@pytest.mark.parametrize("eta", [Fraction(1, 2), Fraction(2, 3)])
@pytest.mark.parametrize("n", range(1, 8))
def test_closed_forms_satisfy_sylvesters_identity(n, eta):
    # U(s,i,j) * det V_(s-1) = det V[{1..s-1, i}, {1..s-1, j}], from the covariance
    # alone: neither the elimination nor the multisets enter
    def minor(rows, cols):
        if not rows:
            return Fraction(1)
        return bareiss_det([[eta ** ((a - b) ** 2) for b in cols] for a in rows])

    for s in range(1, n + 1):
        leading = list(range(1, s))
        pivots = minor(leading, leading)
        for i, row in enumerate(_closed_form_rows(s, n), s):
            for j, q in enumerate(row, s):
                u = eta ** ((i - j) ** 2) * q(eta * eta)
                assert u * pivots == minor(leading + [i], leading + [j]), (s, i, j)


def test_the_lower_half_is_compared_with_its_own_closed_form(monkeypatch):
    # closed forms wrong only below the diagonal, at Q(3, 5, 4): the block holds
    # Q(3, 4, 5) there, and only the mirrored comparison reads it
    rows = closedform._closed_form_rows

    def skewed(s, n):
        for i, row in enumerate(rows(s, n), s):
            if (s, i) == (3, 5):
                row = row[:1] + [row[1] + EtaPoly.one()] + row[2:]
            yield row

    monkeypatch.setattr(closedform, "_closed_form_rows", skewed)
    report = verify_closed_form(5)
    assert report.first_mismatch == (3, 5, 4)
    assert report.actual == str(closed_form_u(3, 4, 5, 5))
    assert report.expected == str(closed_form_u(3, 5, 4, 5) + monomial(1))


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_closed_form_equals_the_reference_on_the_elimination(n):
    blocks = tuple(neville_eliminate(n))
    assert verify_closed_form(n, blocks) == reference_verify_closed_form(n, blocks)


def _planted(blocks, *plants):
    """The blocks with each (stage, row, index) entry replaced by itself plus its value."""
    out = [[list(row) for row in block] for block in blocks]
    for s, r, c, value in plants:
        out[s - 1][r][c] = out[s - 1][r][c] + value
    return tuple(tuple(map(tuple, block)) for block in out)


@pytest.mark.parametrize(
    "plants, mismatch",
    [
        # a pivot row at stage 3 (row 3, column 5), read as a frozen row by stages 4..6
        (((3, 0, 2, monomial(2)),), (3, 3, 5)),
        # the pivot row's diagonal at stage 4
        (((4, 0, 0, EtaPoly.one()),), (4, 4, 4)),
        # an upper off-diagonal entry, also read mirrored at (2, 5, 3)
        (((2, 1, 2, -monomial(1)),), (2, 3, 5)),
        # the last stage
        (((6, 0, 0, EtaPoly((0, 3))),), (6, 6, 6)),
        # two plants: the first in (stage, row, column) order is reported
        (((5, 0, 1, EtaPoly.one()), (3, 2, 1, EtaPoly.one())), (3, 5, 6)),
        (((2, 4, 0, EtaPoly.one()), (2, 0, 3, EtaPoly.one())), (2, 2, 5)),
    ],
)
def test_a_planted_mismatch_gives_the_reference_report(plants, mismatch):
    n = 6
    blocks = _planted(tuple(neville_eliminate(n)), *plants)
    report = verify_closed_form(n, blocks)
    assert report == reference_verify_closed_form(n, blocks)
    s, i, j = mismatch
    assert report.first_mismatch == mismatch
    assert report.entries_checked == (s - 1) * n * n + (i - 1) * n + j
    assert not report.agree and report.expected != report.actual


# -- factored determinant ----------------------------------------------------------------


def test_factored_determinant_structure():
    assert factored_determinant(1).factors == ()
    assert factored_determinant(3).factors == ((1, 2), (2, 1))
    assert factored_determinant(4).factors == ((1, 3), (2, 2), (3, 1))


def test_factored_determinant_rendering():
    assert str(factored_determinant(1)) == "1"
    assert str(factored_determinant(3)) == "h1^2 * h2"
    assert str(factored_determinant(4)) == "h1^3 * h2^2 * h3"


def test_factored_determinant_expansion_golden():
    assert str(factored_determinant(3).expand()) == "1 - 2*eta^2 + 2*eta^6 - eta^8"
    assert factored_determinant(1).expand() == EtaPoly.one()


def test_expansion_is_the_product_of_its_h_factors():
    # det(n) = det(n - 1) * h_1 * ... * h_(n-1), each factor multiplied in
    product = EtaPoly.one()
    for n in range(1, 31):
        product = functools.reduce(operator.mul, map(poly_h, range(1, n)), product)
        assert factored_determinant(n).expand() == product


def test_times_h_is_the_product_of_its_h_factors():
    # in z = eta^2, h_q is 1 - z^q; each prefix h_(j-1)...h_(j-s+1) of a column,
    # applied to a sum with a negative coefficient and zeros inside
    coeffs = [3, 0, -1, 2]
    total = EtaPoly(coeffs)
    for j in range(1, 31):
        for s in range(1, j + 1):
            qs = range(j - s + 1, j)
            factors = (EtaPoly((1,) + (0,) * (q - 1) + (-1,)) for q in qs)
            assert _times_h(coeffs, qs) == functools.reduce(operator.mul, factors, total)
    # the input list is left as it was: _closed_form_rows keeps extending it
    assert coeffs == [3, 0, -1, 2]
    assert _times_h(coeffs, ()) == total
    # h_0 = 1 - z^0 is zero, alone or among other factors
    assert _times_h(coeffs, (0,)) == EtaPoly.zero()
    assert _times_h(coeffs, (2, 0, 5)) == EtaPoly.zero()
    assert _times_h([], (3,)) == EtaPoly.zero()


def test_closedform_multiplies_no_polynomial(monkeypatch):
    # every h-factor in closedform is a shift and a subtraction
    blocks = tuple(neville_eliminate(12))

    def refused(self, other):
        raise AssertionError(f"EtaPoly product {self} * {other}")

    monkeypatch.setattr(EtaPoly, "__mul__", refused)
    for n in range(1, 13):
        assert verify_closed_form(n, blocks).agree, n
    factored_determinant(12).expand()
    leading_term(12)
    closed_form_u(4, 6, 5, 7)
    assert ai2_grid_holds()


def test_factored_determinant_rejects_bad_n():
    with pytest.raises(ValueError):
        factored_determinant(0)


@pytest.mark.parametrize("n", range(1, 11))
def test_three_equivalent_factor_products(n):
    # statement form, proof form, and the reindexed form all expand identically
    statement = EtaPoly.one()
    proof = EtaPoly.one()
    for s in range(2, n + 1):
        for x in range(1, s):
            statement = statement * poly_h(x)
            proof = proof * poly_h(s - x)
    assert factored_determinant(n).expand() == statement == proof


@pytest.mark.parametrize("n", range(1, 7))
def test_factored_equals_leibniz_and_diagonal(n):
    expansion = factored_determinant(n).expand()
    points = range(1, n + 1)
    assert brute_force_det(MinorIndex(points, points)) == expansion
    assert diagonal_product(neville_eliminate(n)) == expansion


@pytest.mark.parametrize("n", range(2, 11))
def test_adding_a_point_multiplies_in_all_new_pairs(n):
    # det grows by h_1 * h_2 * ... * h_{n-1} when the n-th point is added
    growth = EtaPoly.one()
    for q in range(1, n):
        growth = growth * poly_h(q)
    assert factored_determinant(n).expand() == factored_determinant(n - 1).expand() * growth


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("eta", [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
def test_factored_determinant_positive_on_unit_interval(n, eta):
    assert factored_determinant(n).evaluate(eta) > 0


@pytest.mark.parametrize("eta", [0.5, 0.1, True])
def test_factored_evaluate_refuses_a_float_or_bool(eta):
    with pytest.raises(TypeError, match="Fraction or int"):
        factored_determinant(3).evaluate(eta)


def test_factored_evaluate_takes_an_int():
    assert factored_determinant(3).evaluate(0) == 1
    assert factored_determinant(2).evaluate(2) == -3


def test_factored_evaluate_matches_expansion():
    eta = Fraction(1, 2)
    assert factored_determinant(3).evaluate(eta) == Fraction(135, 256)
    assert factored_determinant(5).evaluate(eta) == factored_determinant(5).expand()(eta)


# -- leading term ----------------------------------------------------------------------


def test_leading_term_values():
    assert (leading_term(2).coefficient, leading_term(2).theta_power, leading_term(2).delta_power) == (2, 1, 2)
    assert leading_term(3).coefficient == 16
    assert leading_term(4).coefficient == 768


def test_leading_term_rendering():
    assert str(leading_term(4)) == "768 * theta^6 * delta^12"
    assert str(leading_term(2)) == "2 * theta^1 * delta^2"


def test_leading_term_at_the_cli_limit():
    assert leading_term(30).coefficient == superfactorial(29) * 2**435


def test_leading_term_rejects_small_n_and_order():
    with pytest.raises(ValueError):
        leading_term(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_series_product_confirms_leading_term(n):
    target = n * (n - 1) // 2
    series = series_determinant(n, target + 2)
    assert len(series) == target + 3
    for m in range(target):
        assert series[m] == 0
    assert series[target] == superfactorial(n - 1) * 2 ** target


def test_series_determinant_n_one_is_one():
    assert series_determinant(1, 4) == (1, 0, 0, 0, 0)
    assert all(isinstance(c, Fraction) for c in series_determinant(3, 4))


@pytest.mark.parametrize(
    "n, order",
    # four small cases, the leading-term sweep at N + 2 (n = 3 is already there) and
    # n = 12 at N, with N = n(n-1)/2
    [(2, 1), (3, 5), (4, 9), (5, 4)]
    + [(n, n * (n - 1) // 2 + 2) for n in (2, 4, 5, 6, 7, 8)]
    + [(12, 66)],
)
def test_series_determinant_is_the_truncated_polynomial_product(n, order):
    # the same series as a Fraction product of the factor series, each product cut
    # at t^order, which keeps every coefficient up to t^order exact
    product = (Fraction(1),) + (Fraction(0),) * order
    for q in range(1, n):
        factor = series_one_minus_exp(q, order)
        for _ in range(n - q):
            product = tuple(
                sum((product[k] * factor[m - k] for k in range(m + 1)), Fraction(0))
                for m in range(order + 1)
            )
    assert series_determinant(n, order) == product
