"""Closed forms for the elimination stages, the factored determinant, and its leading term.

Every stage entry of the eliminated covariance matrix has a closed form: a
power of eta times a product of h-factors times a nested sum of eta powers
whose exponents are exactly a simplicial multiset.  Multiplying the
stabilized diagonals gives the determinant as a pure product of h-factors,
h_q appearing with multiplicity n - q; substituting the exponential series
for each factor yields the leading term in the point spacing, with a
superfactorial coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import EtaPoly, poly_h, series_one_minus_exp
from .multisets import SimplexSpec, enumerate_simplex
from .neville import (
    CovarianceParams,
    EliminationTrace,
    build_covariance,
    neville_eliminate,
)


def superfactorial(n: int) -> int:
    """Product of the factorials 1! * 2! * ... * n!."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"superfactorial requires an integer n >= 1, got {n!r}")
    result = 1
    factorial = 1
    for k in range(1, n + 1):
        factorial *= k
        result *= factorial
    return result


def check_ai1(i: int, j: int, n: int) -> bool:
    """(i-n)^2 + (j-n)^2 == 2(i-n)(j-n) + (i-j)^2, over the integers."""
    return (i - n) ** 2 + (j - n) ** 2 == 2 * (i - n) * (j - n) + (i - j) ** 2


def check_ai2(i: int, j: int) -> bool:
    """h_{j-1} times the geometric sum of eta^(2k(j-1)) telescopes to 1 - eta^(2(i-1)(j-1)).

    Exact polynomial equality; at j = 1 the factor h_0 is zero and both
    sides vanish.
    """
    if i < 2 or j < 1:
        raise ValueError(f"requires i >= 2 and j >= 1, got i={i}, j={j}")
    h = poly_h(j - 1) if j >= 2 else EtaPoly.zero()
    geometric = EtaPoly.zero()
    for k in range(i - 1):
        geometric = geometric + EtaPoly.monomial(2 * k * (j - 1))
    lhs = h * geometric
    rhs = EtaPoly.one() - EtaPoly.monomial(2 * (i - 1) * (j - 1))
    return lhs == rhs


@dataclass(frozen=True)
class ClosedFormElement:
    """Closed form of one elimination-stage entry."""

    s: int
    i: int
    j: int
    value: EtaPoly


def closed_form_u(s: int, i: int, j: int, n: int) -> ClosedFormElement:
    """Stage-s entry (i, j) of the eliminated matrix, from its closed form.

    Rows above the stage hold their frozen values; entries left of the stage
    in the active rows are zero; the active block is
    eta^((i-j)^2) * h_{j-1}...h_{j-s+1} * sum of eta^(2e) over the simplicial
    multiset with s-1 coordinates, first-coordinate weight j-s+1, and
    first-coordinate range 0..i-s.
    """
    if not 1 <= s <= n:
        raise IndexError(f"stage {s} outside 1..{n}")
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"entry ({i}, {j}) outside 1..{n}")
    return ClosedFormElement(s, i, j, _u_value(s, i, j))


def _u_value(s: int, i: int, j: int) -> EtaPoly:
    if i < s:
        # row i froze at stage i
        return _u_value(i, i, j)
    if j <= s - 1:
        return EtaPoly.zero()
    value = EtaPoly.monomial((i - j) ** 2)
    if s == 1:
        return value
    for x in range(1, s):
        value = value * poly_h(j - x)
    exponents = enumerate_simplex(SimplexSpec(s - 1, 0, j - s + 1, 1, i - s + 1)).items()
    # the sum of eta^(2e) over the multiset, as one dense coefficient list
    powers = [0] * (2 * exponents[-1][0] + 1)
    for e, mult in exponents:
        powers[2 * e] = mult
    return value * EtaPoly(powers)


@dataclass(frozen=True)
class FactoredDeterminant:
    """Determinant of the scaled covariance matrix as a product of h-factors.

    ``factors`` lists (q, multiplicity) pairs in ascending q, meaning the
    product of h_q^multiplicity; for size n the factor h_q appears n - q
    times.  The text form is e.g. ``h1^3 * h2^2 * h3`` (``1`` for n = 1).
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def expand(self) -> EtaPoly:
        """Multiply the factors out into the determinant polynomial."""
        result = EtaPoly.one()
        for q, mult in self.factors:
            result = result * poly_h(q) ** mult
        return result

    def evaluate(self, eta_value: Fraction) -> Fraction:
        value = Fraction(1)
        for q, mult in self.factors:
            value *= (1 - Fraction(eta_value) ** (2 * q)) ** mult
        return value

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            f"h{q}^{mult}" if mult != 1 else f"h{q}" for q, mult in self.factors
        )


def factored_determinant(n: int) -> FactoredDeterminant:
    """The h-factor form of the determinant for an n-point matrix."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return FactoredDeterminant(n, tuple((q, n - q) for q in range(1, n)))


@dataclass(frozen=True)
class LeadingTerm:
    """Lowest-order term of the determinant in the point spacing delta.

    Renders as e.g. ``768 * theta^6 * delta^12``; the powers are always
    n(n-1)/2 and n(n-1), the coefficient SF(n-1) * 2^(n(n-1)/2).
    """

    coefficient: int
    theta_power: int
    delta_power: int

    def __str__(self) -> str:
        return f"{self.coefficient} * theta^{self.theta_power} * delta^{self.delta_power}"


def _truncated_product(a: tuple, b: tuple) -> tuple:
    """Product of two coefficient tuples of equal length, cut off at that length."""
    n = len(a)
    out = [0] * n
    for i, ci in enumerate(a):
        if ci:
            for j in range(n - i):
                cj = b[j]
                if cj:
                    out[i + j] += ci * cj
    return tuple(out)


def series_determinant(n: int, order: int) -> tuple[Fraction, ...]:
    """Determinant as a series in t = theta * delta^2, coefficients up to t^order.

    Each factor h_q becomes the series of 1 - exp(-2*q*t); the factor
    multiplicities are those of the h-factor form.  Index m of the tuple is
    the coefficient of t^m.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    product = (1,) + (0,) * order
    for q in range(1, n):
        factor = series_one_minus_exp(q, order)
        for _ in range(n - q):
            product = _truncated_product(product, factor)
    return tuple(Fraction(c) for c in product)


def leading_term(n: int) -> LeadingTerm:
    """Closed-form leading term, cross-checked against the series expansion.

    The series product must have zero coefficients below t^(n(n-1)/2) and
    exactly SF(n-1) * 2^(n(n-1)/2) there; any discrepancy raises
    ArithmeticError (it would falsify the closed form).  The product is
    truncated at t^(n(n-1)/2): truncated multiplication is exact up to its
    order, so a longer series would compare the same coefficients.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2 (n = 1 has no spacing dependence), got {n!r}")
    target = n * (n - 1) // 2
    coefficient = superfactorial(n - 1) * 2 ** target
    series = series_determinant(n, target)
    for m in range(target):
        if series[m] != 0:
            raise ArithmeticError(f"series has unexpected coefficient {series[m]} at t^{m}")
    if series[target] != coefficient:
        raise ArithmeticError(f"series leading coefficient {series[target]} != {coefficient}")
    return LeadingTerm(coefficient, target, n * (n - 1))


@dataclass(frozen=True)
class AgreementReport:
    """Comparison of an elimination trace against the closed forms."""

    n: int
    entries_checked: int
    agree: bool
    first_mismatch: tuple[int, int, int] | None = None
    expected: str | None = None
    actual: str | None = None


def verify_closed_form(n: int, trace: EliminationTrace | None = None) -> AgreementReport:
    """Compare every entry of every elimination stage against its closed form.

    Entries are checked in (stage, row, column) lexicographic order and the
    first mismatch, if any, is reported with both renderings.  A symbolic
    trace may be passed in to avoid re-eliminating.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if trace is None:
        trace = neville_eliminate(build_covariance(CovarianceParams(n=n)))
    if trace.n != n:
        raise ValueError(f"trace has {trace.n} stages, expected {n}")
    checked = 0
    for s in range(1, n + 1):
        stage = trace.stage(s)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = _u_value(s, i, j)
                actual = stage.entry(i, j)
                checked += 1
                if actual != expected:
                    return AgreementReport(
                        n, checked, False, (s, i, j), str(expected), str(actual)
                    )
    return AgreementReport(n, checked, True)


def ai1_grid_holds(bound: int = 10) -> bool:
    """Check AI1 on the full integer cube |i|, |j|, |n| <= bound."""
    values = range(-bound, bound + 1)
    return all(check_ai1(i, j, n) for i in values for j in values for n in values)


def ai2_grid_holds(i_max: int = 10, j_max: int = 10) -> bool:
    """Check AI2 symbolically for 2 <= i <= i_max, 1 <= j <= j_max."""
    return all(check_ai2(i, j) for i in range(2, i_max + 1) for j in range(1, j_max + 1))
