"""Closed forms for the elimination stages, the factored determinant, and its leading term.

Every stage entry of the eliminated covariance matrix has a closed form: a
power of eta times a product of h-factors times a nested sum of eta powers
whose exponents are exactly a simplicial multiset.  Multiplying the
stabilized diagonals gives the determinant as a pure product of h-factors,
h_q appearing with multiplicity n - q; reading each term c_k * eta^k of its
expansion as c_k * exp(-k*t) yields the leading term in the point spacing,
with a superfactorial coefficient.

``FactoredDeterminant``, ``LeadingTerm`` and ``AgreementReport`` are named
tuples: they iterate, index and equal a plain tuple with the same fields.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .exact import EtaPoly, poly_h
from .multisets import SimplexSpec, _chain_rows, enumerate_simplex
from .neville import Block, neville_eliminate


def superfactorial(n: int) -> int:
    """Product of the factorials 1! * 2! * ... * n!."""
    if type(n) is not int or n < 1:
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
    geometric = [0] * (2 * (i - 2) * (j - 1) + 1)
    for k in range(i - 1):
        geometric[2 * k * (j - 1)] += 1
    one = EtaPoly.one()
    return h * EtaPoly(geometric) == one - one._shifted(2 * (i - 1) * (j - 1))


def closed_form_u(s: int, i: int, j: int, n: int) -> EtaPoly:
    """Stage-s entry (i, j) of the eliminated n x n matrix, from its closed form.

    Rows above the stage hold their frozen values; entries left of the stage
    in the active rows are zero; the active block is
    eta^((i-j)^2) * h_{j-1}...h_{j-s+1} * sum of eta^(2e) over the simplicial
    multiset with s-1 coordinates, first-coordinate weight j-s+1, and
    first-coordinate range 0..i-s.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if type(s) is not int or not 1 <= s <= n:
        raise IndexError(f"stage {s!r} outside 1..{n}")
    if type(i) is not int or type(j) is not int or not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"entry ({i!r}, {j!r}) outside 1..{n}")
    return _u_value(s, i, j, _h_prefixes(j)).in_eta((i - j) ** 2)


def _h_prefixes(j: int) -> list[EtaPoly]:
    """h_{j-1}...h_{j-s+1}, read in z = eta^2, at index s - 1 for every 1 <= s <= j.

    Each is the one before it times h_q = 1 - z^q, taken as p - z^q * p.
    """
    row = [EtaPoly.one()]
    for x in range(1, j):
        row.append(row[-1] - row[-1]._shifted(j - x))
    return row


def _u_value(s: int, i: int, j: int, h_prefixes: list[EtaPoly]) -> EtaPoly:
    # Q(s, i, j) in z, where U(s, i, j) = eta^((i-j)^2) * Q(s, i, j)(eta^2);
    # h_prefixes is _h_prefixes(j).  One multiset per entry, as the paper
    # states it; verify_closed_form builds the same values as running sums
    # (_closed_form_rows), and this form is their oracle
    if i < s:
        # row i froze at stage i
        return _u_value(i, i, j, h_prefixes)
    if j <= s - 1:
        return EtaPoly.zero()
    if s == 1:
        return EtaPoly.one()
    exponents = enumerate_simplex(SimplexSpec(s - 1, 0, j - s + 1, 1, i - s + 1)).items()
    # the sum of z^e over the multiset, as one dense coefficient list
    powers = [0] * (exponents[-1][0] + 1)
    for e, mult in exponents:
        powers[e] = mult
    return h_prefixes[s - 1] * EtaPoly(powers)


class FactoredDeterminant(namedtuple("FactoredDeterminant", "n factors")):
    """Determinant of the scaled covariance matrix as a product of h-factors.

    An immutable named tuple with fields ``n`` (int, the matrix size) and
    ``factors``, a tuple of (q, multiplicity) int pairs in ascending q,
    meaning the product of h_q^multiplicity; for size n the factor h_q
    appears n - q times.  The text form is e.g. ``h1^3 * h2^2 * h3``
    (``1`` for n = 1).
    """

    __slots__ = ()

    def expand(self) -> EtaPoly:
        """Multiply the factors out into the determinant polynomial.

        The product is taken in z = eta^2, where multiplying p by h_q = 1 - z^q
        is p - z^q * p, and read in eta once.
        """
        result = EtaPoly.one()
        for q, mult in self.factors:
            for _ in range(mult):
                result = result - result._shifted(q)
        return result.in_eta()

    def evaluate(self, eta_value: Fraction) -> Fraction:
        """The product of the factors at a rational eta (an int or a Fraction)."""
        if type(eta_value) is not int and not isinstance(eta_value, Fraction):
            raise TypeError(f"eta must be a Fraction or int, got {type(eta_value).__name__}")
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
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return FactoredDeterminant(n, tuple((q, n - q) for q in range(1, n)))


class LeadingTerm(namedtuple("LeadingTerm", "coefficient theta_power delta_power")):
    """Lowest-order term of the determinant in the point spacing delta.

    An immutable named tuple with fields ``coefficient``, ``theta_power``
    and ``delta_power``, each an int.  Renders as e.g.
    ``768 * theta^6 * delta^12``; the powers are always n(n-1)/2 and
    n(n-1), the coefficient SF(n-1) * 2^(n(n-1)/2).
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.coefficient} * theta^{self.theta_power} * delta^{self.delta_power}"


def series_determinant(n: int, order: int) -> tuple[Fraction, ...]:
    """Determinant as a series in t = theta * delta^2, coefficients up to t^order.

    With eta = exp(-t), each term c_k * eta^k of the expanded h-factor
    polynomial is the series c_k * exp(-k*t), whose coefficient of t^m is
    c_k * (-k)^m / m!.  Index m of the tuple is the coefficient of t^m.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if type(order) is not int or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    # c_k * (-k)^m, kept per nonzero term: one multiply per term and order
    exponents, weighted = zip(*factored_determinant(n).expand().terms())
    series = [Fraction(sum(weighted))]
    factorial = 1
    for m in range(1, order + 1):
        weighted = [w * -k for k, w in zip(exponents, weighted)]
        factorial *= m
        series.append(Fraction(sum(weighted), factorial))
    return tuple(series)


def leading_term(n: int) -> LeadingTerm:
    """Closed-form leading term, cross-checked against the series expansion.

    The series must have zero coefficients below t^(n(n-1)/2) and exactly
    SF(n-1) * 2^(n(n-1)/2) there; any discrepancy raises ArithmeticError (it
    would falsify the closed form).
    """
    if type(n) is not int or n < 2:
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


class AgreementReport(namedtuple(
    "AgreementReport", "n entries_checked agree first_mismatch expected actual",
    defaults=(None, None, None),
)):
    """Comparison of the elimination stages against the closed forms.

    An immutable named tuple with fields ``n`` (int), ``entries_checked``
    (int), ``agree`` (bool), and, each None when the stages agree,
    ``first_mismatch`` ((stage, row, col) ints), ``expected`` and ``actual``
    (str, the two entries' text forms).
    """

    __slots__ = ()


def _closed_form_rows(s: int, n: int, h_prefixes: list[list[EtaPoly]]) -> Iterator[list[EtaPoly]]:
    """Q(s, i, j) for j = s..n, one list per active row i = s..n, in order.

    With a = j - s + 1, the multiset sum of Q(s, i, j) is
    sum over r <= i - s of z^(a*r) * P_(s-2)(r), where P_(s-2)(r) is the
    Gaussian binomial [r + s - 2 choose s - 2] in z, so each (s, j) keeps a
    running sum, and row i adds the one shared row P_(s-2)(i - s) to every
    sum, shifted by a*(i - s), before each is multiplied by its h-prefix
    (``h_prefixes[j - 1]`` is ``_h_prefixes(j)``).  The rows are read once,
    in order, so a depth too large for the table streams them.  Stage 1 is
    all ones.
    """
    if s == 1:
        ones = [EtaPoly.one()] * n
        for _ in range(n):
            yield ones
        return
    prefixes = [h_prefixes[j - 1][s - 1] for j in range(s, n + 1)]
    sums: list[list[int]] = [[] for _ in prefixes]
    for r, row in zip(range(n - s + 1), _chain_rows(s - 2, n - s + 1)):
        out = []
        for a, (acc, prefix) in enumerate(zip(sums, prefixes), 1):
            # the shifted row ends at (j - 1) * r, past the sum's degree
            # (j - 1)(r - 1), and may start past it too
            shift = a * r
            if shift > len(acc):
                acc += [0] * (shift - len(acc))
            head = len(acc) - shift
            acc[shift:] = map(operator.add, acc[shift:], row)
            acc += row[head:]
            out.append(prefix * EtaPoly._of(acc))
        yield out


def verify_closed_form(n: int, blocks: Iterable[Block] | None = None) -> AgreementReport:
    """Compare every entry of every elimination stage against its closed form.

    The stages are read off the blocks of ``neville_eliminate``, in z.  Each
    stage compares its whole active block, both halves, once: entry (i, j)
    of the upper half against Q(s, i, j), and entry (j, i) of the upper half
    again, mirrored, against Q(s, j, i), which checks the closed form's
    symmetry.  The closed forms are running sums over shared Gaussian-binomial
    rows (``_closed_form_rows``), not one multiset per entry.  The other
    entries of a stage are counted as checked without a comparison: a
    frozen row is the pivot row of the stage it froze at, compared there
    against the same closed form, and an entry left of the stage is zero on
    both sides.  So the first mismatch, if any, is the first in (stage, row,
    column) lexicographic order, with ``entries_checked`` counting every
    entry up to it, and is reported with both sides rendered in eta; a
    passing check counts n^3.  The blocks of an elimination of at least n
    points may be passed in to avoid re-eliminating; the first n are read,
    within rows and columns <= n.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if blocks is None:
        blocks = neville_eliminate(n)
    h_prefixes = [_h_prefixes(j) for j in range(1, n + 1)]
    stages = 0
    for s, block in zip(range(1, n + 1), blocks):
        if len(block) <= n - s:
            raise ValueError(f"stage {s} block has {len(block)} rows, expected {n - s + 1}")
        stages = s
        for i, row in enumerate(_closed_form_rows(s, n, h_prefixes), s):
            for j, expected in enumerate(row, s):
                actual = block[i - s][j - i] if j >= i else block[j - s][i - j]
                if actual != expected:
                    shift = (i - j) ** 2
                    return AgreementReport(n, (s - 1) * n * n + (i - 1) * n + j, False, (s, i, j),
                                           str(expected.in_eta(shift)), str(actual.in_eta(shift)))
    if stages != n:
        raise ValueError(f"blocks hold {stages} stages, expected {n}")
    return AgreementReport(n, n ** 3, True)


def ai1_grid_holds() -> bool:
    """Check AI1 on the full integer cube |i|, |j|, |n| <= 10."""
    values = range(-10, 11)
    return all(check_ai1(i, j, n) for i in values for j in values for n in values)


def ai2_grid_holds() -> bool:
    """Check AI2 symbolically for 2 <= i <= 10, 1 <= j <= 10."""
    return all(check_ai2(i, j) for i in range(2, 11) for j in range(1, 11))
