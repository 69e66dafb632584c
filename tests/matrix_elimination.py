"""The tests' oracles: the covariance rows, generic elimination, the Leibniz sum and Bareiss minors.

``gaussdet.neville_eliminate`` eliminates only the covariance, in z = eta^2,
and yields the upper half of each stage's active block.
``eliminate_matrix`` is the elimination it replaced, kept as it was: it
records every stage of the whole n x n matrix, for the rows of any square
matrix over an exact ring with exact ``/`` (``EtaPoly`` or ``Fraction``), so
it checks the symbolic kernel entry by entry (each block entry read in eta,
and the frozen rows and zeros around the block) and, on the covariance at a
rational eta, the symbolic stages evaluated there.  ``covariance_rows``
builds its input, the entries eta^((i-j)^2) over row and column points, each
a ``monomial``.
``leibniz_det`` is the plain Leibniz sum of any square rows, the reference
for ``gaussdet.brute_force_det``'s prefix-sharing walk over a minor's index
sets.  ``bareiss_det`` and ``minor_value`` evaluate one minor from scratch
by fraction-free elimination, the oracle of ``gaussdet.all_minors_positive``
and its Laplace kernel.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gaussdet.exact import EtaPoly
from gaussdet.tpprobe import MinorIndex, _validate_eta


def monomial(exponent: int) -> EtaPoly:
    """The single term eta^exponent."""
    return EtaPoly((0,) * exponent + (1,))


def covariance_rows(rows, cols) -> tuple:
    """The rows of the covariance entries eta^((i-j)^2) for i in rows and j in cols, as ``EtaPoly``."""
    return tuple(tuple(monomial((i - j) ** 2) for j in cols) for i in rows)


class ZeroPivotError(ArithmeticError):
    """A stage pivot was zero, so pivot-free elimination cannot continue."""

    def __init__(self, stage: int) -> None:
        super().__init__(f"zero pivot at stage {stage}")
        self.stage = stage


def eliminate_matrix(rows) -> tuple:
    """Run pivot-free elimination on the rows of a square matrix, recording every stage.

    Returns the stages, each a tuple of row tuples; stage 1 is the input.
    Stage s+1 copies rows 1..s, zeroes column s below the diagonal, and
    updates every remaining entry by the stage-s rule
    U(s+1,i,j) = U(s,i,j) - U(s,i,s)*U(s,s,j)/U(s,s,s).  A zero pivot is a
    hard error: it falsifies the premise of the method for the input.  So is
    a quotient that does not divide exactly: its ArithmeticError is raised
    again naming the stage, row and column of the entry being computed.
    """
    current = tuple(map(tuple, rows))
    n = len(current)
    stages = [current]
    for s in range(1, n):
        pivot = current[s - 1][s - 1]
        if not pivot:
            raise ZeroPivotError(s)
        zero = pivot - pivot  # additive zero of the entries
        nxt = [list(row) for row in current]
        for i in range(s, n):
            nxt[i][s - 1] = zero
            row_factor = current[i][s - 1]
            for j in range(s, n):
                product = row_factor * current[s - 1][j]
                try:
                    quotient = product / pivot
                except ArithmeticError as exc:
                    raise ArithmeticError(
                        f"inexact quotient at stage {s + 1}, row {i + 1}, column {j + 1}: {exc}"
                    ) from exc
                nxt[i][j] = current[i][j] - quotient
        current = tuple(map(tuple, nxt))
        stages.append(current)
    return tuple(stages)


def leibniz_det(rows):
    """The Leibniz sum term by term: one product and one inversion count per permutation."""
    n = len(rows)
    first = rows[0][0]
    total = first - first  # additive zero of the entries
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1
            for a in range(n)
            for b in range(a + 1, n)
            if perm[a] > perm[b]
        )
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        total = total - term if inversions & 1 else total + term
    return total


def bareiss_det(rows) -> Fraction:
    """Fraction-free elimination of rational rows; every division is exact."""
    m = [list(r) for r in rows]
    k = len(m)
    sign = 1
    prev = Fraction(1)
    for col in range(k - 1):
        if m[col][col] == 0:
            for swap in range(col + 1, k):
                if m[swap][col] != 0:
                    m[col], m[swap] = m[swap], m[col]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = m[col][col]
        for i in range(col + 1, k):
            for j in range(col + 1, k):
                m[i][j] = (m[i][j] * pivot - m[i][col] * m[col][j]) / prev
            m[i][col] = Fraction(0)
        prev = pivot
    return sign * m[-1][-1]


def minor_value(n: int, eta_value, idx: MinorIndex) -> Fraction:
    """The minor of the n-point covariance at eta selected by idx, by Bareiss."""
    if idx.rows[-1] > n or idx.cols[-1] > n:
        raise ValueError(f"index sets rows={list(idx.rows)}, cols={list(idx.cols)} exceed matrix size {n}")
    eta = _validate_eta(eta_value)
    return bareiss_det([[eta ** ((i - j) ** 2) for j in idx.cols] for i in idx.rows])
