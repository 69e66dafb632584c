"""Covariance construction, elimination traces, and determinant oracles."""

import math
import random
import re
from fractions import Fraction

import pytest

from gaussdet.exact import EtaPoly, poly_h
from gaussdet.neville import (
    ORACLE_MAX_N,
    SymMatrix,
    brute_force_det,
    diagonal_product,
    neville_eliminate,
)
from matrix_elimination import ZeroPivotError, build_covariance, eliminate_matrix, leibniz_det

HALF = Fraction(1, 2)


def symbolic(n):
    return build_covariance(n)


def numeric(n, eta):
    """The rows of the matrix at a rational eta, built entry by entry as the numeric oracle."""
    return tuple(tuple(eta ** ((i - j) ** 2) for j in range(n)) for i in range(n))


def rational(rows):
    return tuple(tuple(map(Fraction, row)) for row in rows)


def at(rows, eta):
    """The rows of eta-polynomials evaluated at eta."""
    return tuple(tuple(entry(eta) for entry in row) for row in rows)


def mono(k):
    return EtaPoly.monomial(k)


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
        build_covariance(**kwargs)
    with pytest.raises(ValueError):
        neville_eliminate(**kwargs)


def test_build_two_points():
    v = symbolic(2)
    assert v.rows == ((mono(0), mono(1)), (mono(1), mono(0)))


def test_build_three_points():
    v = symbolic(3)
    assert v.entry(1, 3) == mono(4)
    assert v.entry(2, 3) == mono(1)
    assert v.entry(2, 2) == 1
    assert v.rows == tuple(zip(*v.rows))


def test_build_three_points_numeric():
    v = numeric(3, HALF)
    assert v == (
        (Fraction(1), HALF, Fraction(1, 16)),
        (HALF, Fraction(1), HALF),
        (Fraction(1, 16), HALF, Fraction(1)),
    )
    assert v == at(neville_eliminate(3).stage(1).rows, HALF)


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        SymMatrix([[mono(0), mono(1)], [mono(1), mono(0)], [mono(4), mono(1)]])
    with pytest.raises(ValueError):
        SymMatrix([[mono(0), mono(1)], [mono(1)]])
    with pytest.raises(ValueError):
        SymMatrix([])


def test_matrix_entries_must_be_eta_polynomials():
    # a constant is EtaPoly((c,)); an int, a rational, a float or a bool is refused
    for bad in (1, Fraction(1, 2), 1.5, True):
        with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
            SymMatrix([[bad]])
        with pytest.raises(TypeError, match=f"got {type(bad).__name__}$"):
            SymMatrix([[mono(0), mono(1)], [mono(1), bad]])


def test_entry_indexing_is_one_based():
    v = symbolic(2)
    assert v.entry(1, 2) == mono(1)
    with pytest.raises(IndexError):
        v.entry(0, 1)
    with pytest.raises(IndexError):
        v.entry(1, 3)


# -- elimination --------------------------------------------------------------------


def test_two_point_elimination():
    trace = neville_eliminate(2)
    assert trace.n == 2
    assert trace.stage(2).entry(2, 2) == poly_h(1)
    assert trace.stage(2).entry(2, 1) == 0
    # at eta = 1/2 the pivot 1 - eta^2 is 1 - 1/2 * 1/2 / 1 = 3/4, exactly
    pivot = eliminate_matrix(numeric(2, HALF))[1][1][1]
    assert type(pivot) is Fraction and pivot == Fraction(3, 4) == trace.diagonal(2)(HALF)


def test_three_point_stage_two_off_diagonal():
    trace = neville_eliminate(3)
    # hand application of the update: eta - eta^4 * eta / 1
    assert trace.stage(2).entry(3, 2) == EtaPoly((0, 1, 0, 0, 0, -1))


def test_three_point_final_pivot_factors():
    trace = neville_eliminate(3)
    assert trace.stage(3).entry(3, 3) == poly_h(1) * poly_h(2)


def test_first_stage_is_the_input():
    v = symbolic(4)
    assert neville_eliminate(4).stage(1) == v
    assert eliminate_matrix(v.rows)[0] == v.rows


@pytest.mark.parametrize("n", range(1, 7))
def test_trace_shape(n):
    trace = neville_eliminate(n)
    assert trace.n == n
    for s in range(1, n + 1):
        stage = trace.stage(s)
        for i in range(s, n + 1):
            for j in range(1, s):
                assert stage.entry(i, j) == 0
        if s > 1:
            prev = trace.stage(s - 1)
            for i in range(1, s):
                for j in range(1, n + 1):
                    assert stage.entry(i, j) == prev.entry(i, j)


@pytest.mark.parametrize("method", ["stage", "diagonal", "leading"])
@pytest.mark.parametrize("index", [True, 1.0, Fraction(1)])
def test_trace_indices_must_be_ints(method, index):
    # True would pass 1 <= s <= n and read stage 1
    with pytest.raises(IndexError, match=re.escape(repr(index))):
        getattr(neville_eliminate(3), method)(index)


def test_zero_pivot_is_reported_with_its_stage():
    singular = rational([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(ZeroPivotError) as excinfo:
        eliminate_matrix(singular)
    assert excinfo.value.stage == 2

    leading_zero = rational([[0, 1], [1, 0]])
    with pytest.raises(ZeroPivotError) as excinfo:
        eliminate_matrix(leading_zero)
    assert excinfo.value.stage == 1


# -- determinants ---------------------------------------------------------------------


def test_diagonal_product_small_cases():
    assert diagonal_product(neville_eliminate(1)) == 1
    assert diagonal_product(neville_eliminate(2)) == poly_h(1)
    assert diagonal_product(neville_eliminate(3)) == EtaPoly(
        (1, 0, -2, 0, 0, 0, 2, 0, -1)
    )


def test_brute_force_small_cases():
    assert brute_force_det(symbolic(2)) == poly_h(1)
    assert brute_force_det(symbolic(3)) == poly_h(1) ** 2 * poly_h(2)
    assert brute_force_det(symbolic(3))(HALF) == Fraction(135, 256) == leibniz_det(numeric(3, HALF))


def test_brute_force_respects_size_bound():
    with pytest.raises(ValueError, match="exceeds the Leibniz oracle limit 8"):
        brute_force_det(symbolic(9))
    assert brute_force_det(symbolic(4)) == diagonal_product(neville_eliminate(4))


@pytest.mark.parametrize("n", range(1, ORACLE_MAX_N + 1))
def test_oracle_agreement_symbolic(n):
    assert diagonal_product(neville_eliminate(n)) == brute_force_det(symbolic(n))


# -- the Leibniz walk against the term-by-term Leibniz sum ---------------------------


def _active_block(stage, s):
    return SymMatrix._of(tuple(row[s - 1:] for row in stage.rows[s - 1:]))


@pytest.mark.parametrize("n", range(1, 7))
def test_leibniz_walk_matches_the_plain_sum_on_every_stage(n):
    # the stage entries have many terms and negative coefficients, and a whole
    # stage also has zero entries below its frozen rows
    trace = neville_eliminate(n)
    for s in range(1, n + 1):
        stage = trace.stage(s)
        for matrix in (stage, _active_block(stage, s)):
            det = brute_force_det(matrix)
            assert type(det) is EtaPoly
            assert det == leibniz_det(matrix.rows)


@pytest.mark.parametrize("seed", range(8))
def test_leibniz_walk_matches_the_plain_sum_on_rationals(seed):
    # random sparse polynomials with signed coefficients, and zero entries;
    # the walk's determinant, evaluated at a rational eta, is the plain sum
    # of the entries evaluated there
    rng = random.Random(seed)
    sparse = [EtaPoly((rng.randint(-3, 3), 0, rng.randint(-3, 3))) * mono(k) for k in range(4)]
    values = [EtaPoly.zero()] * 4 + sparse + [mono(1), EtaPoly((-2,))]
    for n in range(1, 7):
        matrix = SymMatrix([[rng.choice(values) for _ in range(n)] for _ in range(n)])
        det = brute_force_det(matrix)
        assert type(det) is EtaPoly
        for eta in (Fraction(1, 7), HALF, Fraction(-3, 2)):
            assert det(eta) == leibniz_det(at(matrix.rows, eta))


def test_leibniz_walk_of_a_zero_row_is_the_zero_of_its_type():
    zero = EtaPoly.zero()
    symbolic_zero_row = SymMatrix([[mono(1), EtaPoly((1, -2))], [zero, zero]])
    det = brute_force_det(symbolic_zero_row)
    assert type(det) is EtaPoly and det == zero == leibniz_det(symbolic_zero_row.rows)


def test_leibniz_walk_of_one_entry_is_that_entry():
    for entry in (EtaPoly((1, 0, -3)), EtaPoly.zero(), EtaPoly((-3,)), mono(4)):
        det = brute_force_det(SymMatrix([[entry]]))
        assert type(det) is EtaPoly and det == entry == leibniz_det(((entry,),))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("eta", [Fraction(1, 10), HALF, Fraction(9, 10)])
def test_oracle_agreement_numeric(n, eta):
    v = numeric(n, eta)
    eliminated = math.prod(stage[s][s] for s, stage in enumerate(eliminate_matrix(v)))
    assert diagonal_product(neville_eliminate(n))(eta) == eliminated == leibniz_det(v)


@pytest.mark.parametrize("n", range(1, 9))
def test_symbolic_and_numeric_elimination_commute(n):
    eta = HALF
    sym = neville_eliminate(n)
    num = eliminate_matrix(numeric(n, eta))
    for s in range(1, n + 1):
        assert at(sym.stage(s).rows, eta) == num[s - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_every_trace_entry_reduces_to_denominator_one(n):
    # every entry is a plain EtaPoly, with the interface that
    # perfbench/tracer.py::_entry_size reads: num and den polynomials, den one,
    # int coefficients
    trace = neville_eliminate(n)
    for stage in trace.stages:
        for row in stage.rows:
            for entry in row:
                assert type(entry) is EtaPoly
                assert isinstance(entry.num, EtaPoly) and isinstance(entry.den, EtaPoly)
                assert entry.den == 1
                assert all(type(c) is int for c in entry.num.coefficients + entry.den.coefficients)


def test_inexact_quotient_names_stage_row_and_column():
    # the pivot 1 + eta does not divide eta * eta
    v = ((EtaPoly((1, 1)), mono(1)), (mono(1), mono(0)))
    with pytest.raises(ArithmeticError, match=r"^inexact quotient at stage 2, row 2, column 2: ") as excinfo:
        eliminate_matrix(v)
    assert not isinstance(excinfo.value, ZeroPivotError)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("eta", [Fraction(1, 10), HALF, Fraction(9, 10)])
def test_stabilized_pivots_are_positive(n, eta):
    trace = neville_eliminate(n)
    for s in range(1, n + 1):
        assert trace.diagonal(s)(eta) > 0


# -- the covariance kernel in z = eta^2 ------------------------------------------------


@pytest.mark.parametrize("n", range(1, 13))
def test_every_stage_entry_equals_the_matrix_elimination(n):
    trace = neville_eliminate(n)
    oracle = eliminate_matrix(symbolic(n).rows)
    assert trace.n == len(oracle) == n
    for s in range(1, n + 1):
        assert trace.stage(s).rows == oracle[s - 1]


def test_trace_shares_mirror_entries_and_frozen_rows():
    n = 7
    trace = neville_eliminate(n)
    for s in range(1, n + 1):
        rows = trace.stage(s).rows
        # the active block is computed for j >= i only: (j, i) is (i, j)
        for i in range(s - 1, n):
            for j in range(i, n):
                assert rows[j][i] is rows[i][j]
        # row r froze at stage r + 1 (0-based r) and is that one tuple afterwards
        for r in range(s - 1):
            assert rows[r] is trace.stage(r + 1).rows[r]


def test_leading_trace_is_the_smaller_elimination():
    trace = neville_eliminate(12)
    for k in range(1, 13):
        leading = trace.leading(k)
        assert leading.n == k
        assert leading.stages == neville_eliminate(k).stages
    assert trace.leading(12) is trace
    for k in (0, 13):
        with pytest.raises(IndexError):
            trace.leading(k)


def test_forced_inexact_quotient_names_stage_row_and_column(monkeypatch):
    # every quotient divides by its pivot plus z, which no stage-2 quotient survives
    exact_division = EtaPoly.__truediv__
    monkeypatch.setattr(EtaPoly, "__truediv__", lambda a, b: exact_division(a, b + mono(1)))
    with pytest.raises(ArithmeticError, match=r"^inexact quotient at stage 2, row 2, column 2: "):
        neville_eliminate(3)


def gaussian_binomial_in_eta(m, k):
    """[m choose k] in eta^2 by the product formula: prod over t <= k of h_(m-k+t) / h_t."""
    numerator = denominator = EtaPoly.one()
    for t in range(1, k + 1):
        numerator = numerator * poly_h(m - k + t)
        denominator = denominator * poly_h(t)
    return numerator / denominator


@pytest.mark.parametrize("n", range(1, 16))
def test_multipliers_are_gaussian_binomials(n):
    # row i's multiplier at stage s is eta^((i-s)^2) * [i-1 choose s-1] in eta^2
    trace = neville_eliminate(n)
    for s in range(1, n + 1):
        stage = trace.stage(s)
        for i in range(s, n + 1):
            multiplier = stage.entry(i, s) / stage.entry(s, s)
            assert multiplier == mono((i - s) ** 2) * gaussian_binomial_in_eta(i - 1, s - 1)


@pytest.mark.parametrize("n", range(1, 16))
def test_one_exact_division_per_row_and_stage(n, monkeypatch):
    divisions = []
    exact_division = EtaPoly.__truediv__

    def counted(a, b):
        divisions.append((a, b))
        return exact_division(a, b)

    monkeypatch.setattr(EtaPoly, "__truediv__", counted)
    neville_eliminate(n)
    assert len(divisions) == n * (n - 1) // 2
