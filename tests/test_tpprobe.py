"""Exhaustive minor evaluation and the strict-total-positivity probe."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from gaussdet.closedform import (
    factored_determinant,
    leading_term,
    series_determinant,
    superfactorial,
    verify_closed_form,
)
from gaussdet.exact import poly_h
from gaussdet.neville import brute_force_det, neville_eliminate
from gaussdet.tpprobe import MinorIndex, _laplace_minors, all_minors_positive
from matrix_elimination import bareiss_det, minor_value

HALF = Fraction(1, 2)
# the tp-check sweep's eta values, plus two where p or q is large
ORACLE_ETAS = [Fraction(e) for e in ("1/10", "1/4", "1/2", "3/4", "9/10", "1/99", "99/100")]


# -- index validation -------------------------------------------------------------


def test_minor_index_accepts_valid_sets():
    idx = MinorIndex((1, 3), (2, 4))
    assert (idx.rows, idx.cols) == ((1, 3), (2, 4))
    assert minor_value(4, HALF, idx) == Fraction(1, 4) - Fraction(1, 1024)


@pytest.mark.parametrize(
    "rows, cols",
    [
        ((), ()),
        ((1, 2), (1,)),
        ((2, 1), (1, 2)),
        ((1, 1), (1, 2)),
        ((0, 1), (1, 2)),
        # True would pass as the index 1
        ((True,), (1,)),
        ((1.0,), (1,)),
        ((1, 2), (1, 2.0)),
        ((1,), (True,)),
    ],
)
def test_minor_index_rejects_bad_sets(rows, cols):
    with pytest.raises(ValueError):
        MinorIndex(rows, cols)


def test_minor_index_range_check():
    with pytest.raises(ValueError, match="exceed matrix size 3"):
        minor_value(3, HALF, MinorIndex((1, 4), (2, 3)))
    with pytest.raises(ValueError, match="exceed matrix size 3"):
        minor_value(3, HALF, MinorIndex((1, 2), (2, 4)))


# -- single minors ----------------------------------------------------------------


def test_two_by_two_minor_by_hand():
    # rows {1,2}, cols {2,3}: det [[1/2, 1/16], [1, 1/2]] = 1/4 - 1/16
    assert minor_value(3, HALF, MinorIndex((1, 2), (2, 3))) == Fraction(3, 16)


def test_diagonal_entry_minor():
    assert minor_value(3, HALF, MinorIndex((2,), (2,))) == 1


def test_full_minor_matches_factored_determinant():
    idx = MinorIndex((1, 2, 3), (1, 2, 3))
    assert minor_value(3, HALF, idx) == Fraction(135, 256)
    assert minor_value(3, HALF, idx) == factored_determinant(3).evaluate(HALF)


def test_minor_value_validates_eta_and_method():
    idx = MinorIndex((1,), (1,))
    with pytest.raises(ValueError):
        minor_value(2, Fraction(3, 2), idx)
    with pytest.raises(ValueError):
        minor_value(2, Fraction(0), idx)
    # only exact inputs: no float's binary value, no parsed string
    for eta in (0.5, "1/2"):
        with pytest.raises(TypeError, match=type(eta).__name__):
            minor_value(2, eta, idx)


def leibniz_minor(eta, idx):
    """The minor by neville's Leibniz walk over its index sets, evaluated at eta."""
    return brute_force_det(idx)(eta)


@pytest.mark.parametrize("eta", [Fraction(1, 10), HALF, Fraction(9, 10)])
def test_leibniz_and_bareiss_agree_on_all_minors_up_to_five(eta):
    n = 5
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), k):
            for cols in itertools.combinations(range(1, n + 1), k):
                idx = MinorIndex(rows, cols)
                assert minor_value(n, eta, idx) == leibniz_minor(eta, idx)


def test_leibniz_and_bareiss_agree_on_larger_spot_checks():
    for idx in (
        MinorIndex((1, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7)),
        MinorIndex((1, 2, 4, 5, 6, 7), (2, 3, 4, 5, 6, 7)),
    ):
        assert minor_value(7, HALF, idx) == leibniz_minor(HALF, idx)


def test_bareiss_handles_a_zero_leading_pivot():
    # not a covariance matrix; exercises the row-swap path through minor internals
    assert bareiss_det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert bareiss_det([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]) == 0


# -- exhaustive sweeps ---------------------------------------------------------------


def test_two_point_report():
    report = all_minors_positive(2, HALF)
    assert report.all_positive
    assert report.minors_checked == 5  # four 1x1, one 2x2
    assert minor_value(2, HALF, MinorIndex((1, 2), (1, 2))) == Fraction(3, 4)
    idx, value = report.min_minor
    assert (idx.rows, idx.cols, value) == ((1,), (2,), HALF)


def test_three_point_report():
    report = all_minors_positive(3, HALF)
    assert report.all_positive
    assert report.minors_checked == 19
    idx, value = report.min_minor
    assert (idx.rows, idx.cols, value) == ((1,), (3,), Fraction(1, 16))


def test_single_point_report():
    report = all_minors_positive(1, HALF)
    assert report.all_positive
    assert report.minors_checked == 1
    assert report.min_minor[1] == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_minor_count_formula(n):
    report = all_minors_positive(n, HALF)
    assert report.minors_checked == sum(comb(n, k) ** 2 for k in range(1, n + 1))


def test_transpose_symmetry():
    n = 4
    eta = Fraction(1, 3)
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), k):
            for cols in itertools.combinations(range(1, n + 1), k):
                assert minor_value(n, eta, MinorIndex(rows, cols)) == leibniz_minor(
                    eta, MinorIndex(cols, rows)
                )


@pytest.mark.parametrize("eta", [HALF, Fraction(9, 10)])
def test_principal_minors_match_factored_truncations(eta):
    for n in range(1, 8):
        for m in range(1, n + 1):
            idx = MinorIndex(tuple(range(1, m + 1)), tuple(range(1, m + 1)))
            assert minor_value(n, eta, idx) == factored_determinant(m).evaluate(eta)


def test_count_in_the_size_refusal_is_exact_to_n_64_and_a_lower_bound_beyond():
    # above n = 64 C(2n, n) is neither computed nor printed
    limit = "; the all-minors probe is limited to n <= 8"
    for n, count in [(64, f"= {comb(128, 64) - 1:,}"), (65, ">= 2^65")]:
        with pytest.raises(ValueError) as refused:
            all_minors_positive(n, HALF)
        assert str(refused.value) == f"n = {n} would evaluate C({2 * n}, {n}) - 1 {count} minors{limit}"
    assert all(comb(2 * n, n) - 1 >= 2 ** n for n in range(9, 200))


def test_all_minors_positive_validation():
    with pytest.raises(ValueError):
        all_minors_positive(0, HALF)
    with pytest.raises(ValueError):
        all_minors_positive(9, HALF)  # MAX_N is 8
    with pytest.raises(ValueError):
        all_minors_positive(3, Fraction(7, 5))
    # only exact inputs: no float's binary value, no parsed string
    for eta in (0.1, "1/2"):
        with pytest.raises(TypeError, match=type(eta).__name__):
            all_minors_positive(3, eta)


BOOL_N_GUARDS = {
    "all_minors_positive": lambda n: all_minors_positive(n, HALF),
    "superfactorial": superfactorial,
    "factored_determinant": factored_determinant,
    "series_determinant-n": lambda n: series_determinant(n, 3),
    "series_determinant-order": lambda n: series_determinant(2, n),
    "leading_term": leading_term,
    "verify_closed_form": verify_closed_form,
    "neville_eliminate": lambda n: next(neville_eliminate(n)),
    "poly_h": poly_h,
}


@pytest.mark.parametrize("guard", BOOL_N_GUARDS)
def test_bool_n_is_refused(guard):
    # bool is a subclass of int, and True would pass every n >= 1 check
    with pytest.raises(ValueError, match="True"):
        BOOL_N_GUARDS[guard](True)


# -- Laplace kernel against the Bareiss oracle ------------------------------------


def _every_minor(matrix):
    return {
        (rows, cols): det
        for order in _laplace_minors(matrix)
        for rows, dets in order.items()
        for cols, det in dets.items()
    }


@pytest.mark.parametrize(
    "matrix",
    [
        # negative minors of orders 1-3 and zero minors of orders 1 and 3
        [[2, -1, 0, 3], [1, 0, -2, 1], [0, 4, 1, -1], [3, 3, -2, 4]],
        [[0, 1], [1, 0]],
    ],
)
def test_laplace_kernel_matches_bareiss_on_signed_matrices(matrix):
    n = len(matrix)
    minors = _every_minor(matrix)
    assert len(minors) == sum(comb(n, k) ** 2 for k in range(1, n + 1))
    for (rows, cols), det in minors.items():
        sub = [[Fraction(matrix[i][j]) for j in cols] for i in rows]
        assert det == bareiss_det(sub), (rows, cols)
    assert any(det < 0 for det in minors.values())
    assert any(det == 0 for det in minors.values())


def test_laplace_kernel_swap_matrix():
    minors = _every_minor([[0, 1], [1, 0]])
    assert minors[(0, 1), (0, 1)] == -1
    assert [minors[(i,), (j,)] for i in range(2) for j in range(2)] == [0, 1, 1, 0]


# -- the sweep against a from-scratch oracle ---------------------------------------


@pytest.mark.parametrize("eta", ORACLE_ETAS)
@pytest.mark.parametrize("n", range(1, 7))
def test_sweep_matches_bareiss_on_every_minor(n, eta):
    checked = 0
    best = None
    for k in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), k):
            for cols in itertools.combinations(range(1, n + 1), k):
                value = minor_value(n, eta, MinorIndex(rows, cols))
                checked += 1
                candidate = (value, rows, cols)
                if best is None or candidate < best:
                    best = candidate
    report = all_minors_positive(n, eta)
    assert report.minors_checked == checked
    assert report.all_positive is (best[0] > 0)
    idx, value = report.min_minor
    assert (value, idx.rows, idx.cols) == best


def test_sweep_breaks_a_transposed_tie_lexicographically():
    # the matrix is symmetric, so (R, C) and (C, R) always tie
    report = all_minors_positive(4, Fraction(1, 3))
    idx, value = report.min_minor
    assert idx.rows < idx.cols
    assert minor_value(4, Fraction(1, 3), MinorIndex(idx.cols, idx.rows)) == value


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("eta", [HALF, Fraction(9, 10), Fraction(99, 100)])
def test_full_minor_of_the_integer_rescaling_matches_factored_determinant(n, eta):
    # q^((n-1)^2) * eta^((i-j)^2) is an integer; the full minor is q^(n(n-1)^2) times det V
    q = eta.denominator
    D = (n - 1) ** 2
    scaled = [
        [q ** D * eta ** ((i - j) ** 2) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    assert all(entry.denominator == 1 for row in scaled for entry in row)
    *_, full = _laplace_minors([[int(entry) for entry in row] for row in scaled])
    everything = tuple(range(n))
    assert Fraction(full[everything][everything], q ** (n * D)) == (
        factored_determinant(n).evaluate(eta)
    )


@pytest.mark.parametrize("eta", [Fraction(9, 10), Fraction(99, 100)])
@pytest.mark.parametrize("n", [7, 8])
def test_near_one_the_minimum_is_the_full_determinant(n, eta):
    report = all_minors_positive(n, eta)
    assert report.all_positive
    idx, value = report.min_minor
    assert idx.rows == idx.cols == tuple(range(1, n + 1))
    assert value == factored_determinant(n).evaluate(eta)


def test_nonpositive_minor_fails_the_sweep(monkeypatch):
    # reversing the rows of the 2x2 integer matrix negates its full minor only
    from gaussdet import tpprobe

    kernel = tpprobe._laplace_minors
    monkeypatch.setattr(tpprobe, "_laplace_minors", lambda matrix: kernel(matrix[::-1]))
    report = all_minors_positive(2, HALF)
    assert report.all_positive is False
    idx, value = report.min_minor
    assert (idx.rows, idx.cols, value) == ((1, 2), (1, 2), -Fraction(3, 4))
