"""The covariance rows, the streamed elimination blocks, and determinant oracles."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gaussdet.closedform import factored_determinant
from gaussdet.exact import EtaPoly, poly_h
from gaussdet.neville import (
    ORACLE_MAX_N,
    brute_force_det,
    diagonal_product,
    neville_eliminate,
)
from gaussdet.tpprobe import MinorIndex
from matrix_elimination import ZeroPivotError, covariance_rows, eliminate_matrix, leibniz_det, monomial

HALF = Fraction(1, 2)


def symbolic(n):
    """The rows eta^((i-j)^2) of the n-point covariance."""
    points = range(1, n + 1)
    return covariance_rows(points, points)


def whole(n):
    """The index sets of the whole n-point matrix: the Leibniz oracle's input for its determinant."""
    points = range(1, n + 1)
    return MinorIndex(points, points)


def numeric(n, eta):
    """The rows of the matrix at a rational eta, built entry by entry as the numeric oracle."""
    return tuple(tuple(eta ** ((i - j) ** 2) for j in range(n)) for i in range(n))


def rational(rows):
    return tuple(tuple(map(Fraction, row)) for row in rows)


def at(rows, eta):
    """The rows of eta-polynomials evaluated at eta."""
    return tuple(tuple(entry(eta) for entry in row) for row in rows)


def mono(k):
    return monomial(k)


def eta_stages(blocks, n):
    """Every stage as n rows in eta, laid out from the blocks as the whole-matrix elimination has it.

    Row i of stage s is its pivot row of stage i for i < s, zero left of
    column s, and the block's entry, mirrored below the diagonal, elsewhere.
    """
    zero = EtaPoly.zero()
    frozen, stages = [], []
    for s, block in enumerate(blocks):
        active = [[zero] * n for _ in range(n - s)]
        for r, row in enumerate(block):
            for c, q in enumerate(row):
                # entry (s + r, s + r + c), 0-based, and its mirror
                active[r][s + r + c] = active[r + c][s + r] = q.in_eta(c * c)
        active = [tuple(row) for row in active]
        stages.append((*frozen, *active))
        frozen.append(active[0])
    return tuple(stages)


# -- parameters and construction --------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0),
        dict(n=-2),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        next(neville_eliminate(**kwargs))


def test_build_three_points_numeric():
    v = numeric(3, HALF)
    assert v == (
        (Fraction(1), HALF, Fraction(1, 16)),
        (HALF, Fraction(1), HALF),
        (Fraction(1, 16), HALF, Fraction(1)),
    )
    assert v == at(symbolic(3), HALF)


# -- elimination --------------------------------------------------------------------


def test_two_point_elimination():
    blocks = tuple(neville_eliminate(2))
    # the stage-2 pivot is Q = 1 - z, so U(2, 2, 2) = h_1
    assert blocks[1] == ((EtaPoly((1, -1)),),)
    assert blocks[1][0][0].in_eta() == poly_h(1)
    # at eta = 1/2 the pivot 1 - eta^2 is 1 - 1/2 * 1/2 / 1 = 3/4, exactly
    pivot = eliminate_matrix(numeric(2, HALF))[1][1][1]
    assert type(pivot) is Fraction and pivot == Fraction(3, 4) == blocks[1][0][0](HALF ** 2)


def test_three_point_stage_two_off_diagonal():
    stage_two = tuple(neville_eliminate(3))[1]
    # entry (2, 3), the mirror of (3, 2); hand application of the update:
    # eta - eta^4 * eta / 1
    assert stage_two[0][1].in_eta(1) == EtaPoly((0, 1, 0, 0, 0, -1))


def test_three_point_final_pivot_factors():
    stage_three = tuple(neville_eliminate(3))[2]
    assert stage_three == ((EtaPoly((1, -1)) * EtaPoly((1, 0, -1)),),)
    assert stage_three[0][0].in_eta() == poly_h(1) * poly_h(2)


def test_first_stage_is_the_input():
    v = symbolic(4)
    assert next(neville_eliminate(4)) == tuple((EtaPoly.one(),) * (4 - r) for r in range(4))
    assert eta_stages(neville_eliminate(4), 4)[0] == v
    assert eliminate_matrix(v)[0] == v


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_shape(n):
    # n blocks; stage s's has the rows s..n, each from its diagonal to column n
    blocks = tuple(neville_eliminate(n))
    assert [[len(row) for row in block] for block in blocks] == [
        [n - s - r for r in range(n - s)] for s in range(n)
    ]
    assert all(type(block) is tuple and all(type(row) is tuple for row in block) for block in blocks)


def test_zero_pivot_is_reported_with_its_stage():
    singular = rational([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(ZeroPivotError) as excinfo:
        eliminate_matrix(singular)
    assert excinfo.value.stage == 2

    for leading_zero in (rational([[0, 1], [1, 0]]), ((EtaPoly.zero(), mono(1)), (mono(1), mono(0)))):
        with pytest.raises(ZeroPivotError) as excinfo:
            eliminate_matrix(leading_zero)
        assert excinfo.value.stage == 1


# -- determinants ---------------------------------------------------------------------


def test_diagonal_product_small_cases():
    assert diagonal_product(neville_eliminate(1)) == EtaPoly.one()
    assert diagonal_product(neville_eliminate(2)) == poly_h(1)
    assert diagonal_product(neville_eliminate(3)) == EtaPoly(
        (1, 0, -2, 0, 0, 0, 2, 0, -1)
    )


def test_brute_force_small_cases():
    assert brute_force_det(whole(2)) == poly_h(1)
    assert brute_force_det(whole(3)) == poly_h(1) * poly_h(1) * poly_h(2)
    assert brute_force_det(whole(3))(HALF) == Fraction(135, 256) == leibniz_det(numeric(3, HALF))


def test_brute_force_respects_size_bound():
    with pytest.raises(ValueError, match="exceeds the Leibniz oracle limit 8"):
        brute_force_det(whole(9))
    assert brute_force_det(whole(4)) == diagonal_product(neville_eliminate(4))


@pytest.mark.parametrize("n", range(1, ORACLE_MAX_N + 1))
def test_oracle_agreement_symbolic(n):
    assert diagonal_product(neville_eliminate(n)) == brute_force_det(whole(n))


# -- the Leibniz walk against the term-by-term Leibniz sum ---------------------------


def test_leibniz_walk_matches_the_plain_sum_on_every_minor_up_to_five():
    # every (rows, cols) pair of the 5-point matrix, most with rows != cols,
    # compared as polynomials
    points = range(1, 6)
    for k in points:
        for rows in itertools.combinations(points, k):
            for cols in itertools.combinations(points, k):
                det = brute_force_det(MinorIndex(rows, cols))
                assert type(det) is EtaPoly
                assert det == leibniz_det(covariance_rows(rows, cols))


@pytest.mark.parametrize("seed", range(8))
def test_leibniz_walk_matches_the_plain_sum_on_rationals(seed):
    # random minors of orders 1..6 of the 8-point matrix, rows and columns
    # drawn apart: the walk's determinant, evaluated at a rational eta, is
    # the plain sum of the entries evaluated there
    rng = random.Random(seed)
    points = range(1, ORACLE_MAX_N + 1)
    for k in range(1, 7):
        rows, cols = sorted(rng.sample(points, k)), sorted(rng.sample(points, k))
        det = brute_force_det(MinorIndex(rows, cols))
        for eta in (Fraction(1, 7), HALF, Fraction(-3, 2)):
            assert det(eta) == leibniz_det(at(covariance_rows(rows, cols), eta))


def test_leibniz_walk_of_every_contiguous_minor_is_a_shifted_factored_determinant():
    # rows r..r+k-1 and columns c..c+k-1, d = r - c: entry (a, b) is
    # eta^((d+a-b)^2) = eta^(d^2) * eta^(2da) * eta^(-2db) * eta^((a-b)^2), and
    # the row factors cancel the column factors in the determinant, so the
    # minor is eta^(k d^2) times the k-point determinant
    n = ORACLE_MAX_N
    checked = 0
    for k in range(1, n + 1):
        expansion = factored_determinant(k).expand()
        for r in range(1, n - k + 2):
            for c in range(1, n - k + 2):
                idx = MinorIndex(range(r, r + k), range(c, c + k))
                assert brute_force_det(idx) == mono(k * (r - c) ** 2) * expansion
                checked += 1
    assert checked == 204


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("eta", [Fraction(1, 10), HALF, Fraction(9, 10)])
def test_oracle_agreement_numeric(n, eta):
    v = numeric(n, eta)
    eliminated = math.prod(stage[s][s] for s, stage in enumerate(eliminate_matrix(v)))
    assert diagonal_product(neville_eliminate(n))(eta) == eliminated == leibniz_det(v)


@pytest.mark.parametrize("n", range(1, 9))
def test_symbolic_and_numeric_elimination_commute(n):
    eta = HALF
    sym = eta_stages(neville_eliminate(n), n)
    num = eliminate_matrix(numeric(n, eta))
    assert tuple(at(stage, eta) for stage in sym) == num


@pytest.mark.parametrize("n", range(1, 9))
def test_every_trace_entry_reduces_to_denominator_one(n):
    # every block entry is a plain EtaPoly with int coefficients: every
    # quotient divided exactly
    for block in neville_eliminate(n):
        for row in block:
            for entry in row:
                assert type(entry) is EtaPoly
                assert all(type(c) is int for c in entry.coefficients)


def test_inexact_quotient_names_stage_row_and_column():
    # the pivot 1 + eta does not divide eta * eta
    v = ((EtaPoly((1, 1)), mono(1)), (mono(1), mono(0)))
    with pytest.raises(ArithmeticError, match=r"^inexact quotient at stage 2, row 2, column 2: ") as excinfo:
        eliminate_matrix(v)
    assert not isinstance(excinfo.value, ZeroPivotError)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("eta", [Fraction(1, 10), HALF, Fraction(9, 10)])
def test_stabilized_pivots_are_positive(n, eta):
    for block in neville_eliminate(n):
        assert block[0][0](eta ** 2) > 0


# -- the covariance kernel in z = eta^2 ------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_every_stage_entry_equals_the_matrix_elimination(n):
    # each block entry, read in eta as eta^((i-j)^2) * Q(z), is the whole
    # matrix's stage entry (i, j) and (j, i); the rows above the stage are
    # the pivot rows they froze with, and the rest is zero
    oracle = eliminate_matrix(symbolic(n))
    assert len(oracle) == n
    assert eta_stages(neville_eliminate(n), n) == oracle


def test_a_yielded_block_is_unchanged_by_later_stages():
    n = 7
    blocks = neville_eliminate(n)
    first, second = next(blocks), next(blocks)
    seen = [[[q.coefficients for q in row] for row in block] for block in (first, second)]
    assert len(tuple(blocks)) == n - 2
    assert first == tuple((EtaPoly.one(),) * (n - r) for r in range(n))
    assert [[[q.coefficients for q in row] for row in block] for block in (first, second)] == seen


def test_leading_trace_is_the_smaller_elimination():
    # the first k blocks of the 12-point elimination, cut to rows and
    # columns <= k, are the k-point elimination
    blocks = tuple(neville_eliminate(12))
    for k in range(1, 13):
        leading = tuple(
            tuple(row[:k - s - r] for r, row in enumerate(block[:k - s]))
            for s, block in enumerate(blocks[:k])
        )
        assert tuple(neville_eliminate(k)) == leading


def test_forced_inexact_quotient_names_stage_row_and_column(monkeypatch):
    # every quotient divides by its pivot plus z, which no stage-2 quotient survives
    exact_division = EtaPoly.__truediv__
    monkeypatch.setattr(EtaPoly, "__truediv__", lambda a, b: exact_division(a, b + mono(1)))
    with pytest.raises(ArithmeticError, match=r"^inexact quotient at stage 2, row 2, column 2: "):
        tuple(neville_eliminate(3))


def gaussian_binomial_in_eta(m, k):
    """[m choose k] in eta^2 by the product formula: prod over t <= k of h_(m-k+t) / h_t."""
    numerator = denominator = EtaPoly.one()
    for t in range(1, k + 1):
        numerator = numerator * poly_h(m - k + t)
        denominator = denominator * poly_h(t)
    return numerator / denominator


@pytest.mark.parametrize("n", range(1, 16))
def test_multipliers_are_gaussian_binomials(n):
    # row i's multiplier at stage s, U(s,i,s)/U(s,s,s) with U(s,i,s) the
    # mirror of the pivot row's Q(s,s,i), is eta^((i-s)^2) * [i-1 choose s-1] in eta^2
    for s, block in enumerate(neville_eliminate(n), 1):
        pivot_row = block[0]
        for i in range(s, n + 1):
            multiplier = (pivot_row[i - s] / pivot_row[0]).in_eta((i - s) ** 2)
            assert multiplier == mono((i - s) ** 2) * gaussian_binomial_in_eta(i - 1, s - 1)


@pytest.mark.parametrize("n", range(1, 16))
def test_one_exact_division_per_row_and_stage(n, monkeypatch):
    divisions = []
    exact_division = EtaPoly.__truediv__

    def counted(a, b):
        divisions.append((a, b))
        return exact_division(a, b)

    monkeypatch.setattr(EtaPoly, "__truediv__", counted)
    for _ in neville_eliminate(n):
        pass
    assert len(divisions) == n * (n - 1) // 2
