"""Gaussian-covariance matrices and stage-by-stage pivot-free elimination.

The matrix under study has entries eta^((i-j)^2) for evenly spaced points
(the common variance factor sigma_z^2 is not an input: this is V / sigma_z^2).
Elimination proceeds without pivoting: stage s+1 subtracts, from every entry
with row and column beyond s, the product of its row's and column's stage-s
entries over the stage-s pivot.  Every stage is recorded so the trace can be
compared entry by entry against closed forms.  Symbolic entries are integer
eta-polynomials (``EtaPoly``), whose ``/`` is exact division: every quotient
divides exactly, and one that does not is an ArithmeticError naming its
stage, row and column.  Numeric entries are ``Fraction``s, so no stage entry
is ever a float.

Matrices are immutable once built; elimination is sequential across stages
but pure, so traces can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exact import EtaPoly

# a rational, or a symbolic stage entry (an integer eta-polynomial)
Entry = Union[int, Fraction, EtaPoly]

# Largest matrix size the Leibniz oracle accepts: 8! = 40,320 terms.
ORACLE_MAX_N = 8


class ZeroPivotError(ArithmeticError):
    """A stage pivot was zero, so pivot-free elimination cannot continue."""

    def __init__(self, stage: int) -> None:
        super().__init__(f"zero pivot at stage {stage}")
        self.stage = stage


def _exact_entry(value: Entry) -> Fraction | EtaPoly:
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, (Fraction, EtaPoly)):
        return value
    raise TypeError(f"exact matrix entry expected, got {type(value).__name__}")


class SymMatrix:
    """Square matrix of exact entries: rationals or integer eta-polynomials.

    An ``int`` entry is stored as a ``Fraction``, so that elimination
    quotients stay exact; an entry of any other type (``float`` and
    ``bool`` among them) is a ``TypeError``.  ``entry(i, j)`` is 1-based,
    matching the row/column conventions of the elimination stages.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence[Entry]]) -> None:
        rows = tuple(tuple(map(_exact_entry, r)) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("a nonempty square matrix is required")
        self._rows = rows

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[Entry, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> Entry:
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexError(f"entry ({i}, {j}) outside 1..{self.size}")
        return self._rows[i - 1][j - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"SymMatrix(size={self.size})"


@dataclass(frozen=True)
class EliminationTrace:
    """All stages of one elimination run; stage 1 is the input matrix."""

    stages: tuple[SymMatrix, ...]

    @property
    def n(self) -> int:
        return len(self.stages)

    def stage(self, s: int) -> SymMatrix:
        if not 1 <= s <= self.n:
            raise IndexError(f"stage {s} outside 1..{self.n}")
        return self.stages[s - 1]

    def diagonal(self, s: int) -> Entry:
        """The (s, s) entry at stage s, where it has stabilized."""
        return self.stage(s).entry(s, s)


def build_covariance(n: int) -> SymMatrix:
    """The symbolic n x n matrix with entry (i, j) = eta^((i-j)^2).

    This is V / sigma_z^2; the full determinant is sigma_z^(2n) times its
    determinant.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return SymMatrix(
        [[EtaPoly.monomial((i - j) ** 2) for j in range(n)] for i in range(n)]
    )


def neville_eliminate(v: SymMatrix) -> EliminationTrace:
    """Run pivot-free elimination, recording every stage.

    Stage s+1 copies rows 1..s, zeroes column s below the diagonal, and
    updates every remaining entry by the stage-s rule
    U(s+1,i,j) = U(s,i,j) - U(s,i,s)*U(s,s,j)/U(s,s,s).  A zero pivot is a
    hard error: it falsifies the premise of the method for the input.  So is
    a quotient that does not divide exactly: its ArithmeticError is raised
    again naming the stage, row and column of the entry being computed.
    """
    n = v.size
    stages = [v]
    current = [list(row) for row in v.rows]
    for s in range(1, n):
        pivot = current[s - 1][s - 1]
        if pivot == 0:
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
        stages.append(SymMatrix(nxt))
        current = nxt
    return EliminationTrace(tuple(stages))


def diagonal_product(trace: EliminationTrace) -> Entry:
    """Product of the stabilized stage diagonals: the determinant."""
    product = trace.diagonal(1)
    for s in range(2, trace.n + 1):
        product = product * trace.diagonal(s)
    return product


def brute_force_det(v: SymMatrix) -> Entry:
    """Leibniz-sum determinant: exact, O(n!), independent of elimination.

    The factorial cost is capped at ORACLE_MAX_N.
    """
    n = v.size
    if n > ORACLE_MAX_N:
        raise ValueError(f"matrix size {n} exceeds the Leibniz oracle limit {ORACLE_MAX_N}")
    rows = v.rows
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
