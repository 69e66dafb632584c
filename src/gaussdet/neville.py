"""Pivot-free elimination of the Gaussian covariance matrix, stage by stage.

The matrix under study has entries eta^((i-j)^2) for evenly spaced points
(the common variance factor sigma_z^2 is not an input: this is V / sigma_z^2).
Elimination proceeds without pivoting: stage s+1 subtracts, from every entry
with row and column beyond s, its row's multiplier times the stage-s pivot
row's entry in its column.  Row i's multiplier is its stage-s entry in column
s over the stage-s pivot, eta^((i-s)^2) times the Gaussian binomial
[i-1 choose s-1] in eta^2, so V = L D L^T with a polynomial L.  Every stage
is recorded so the trace can be compared entry by entry against closed
forms.  Stage entries are integer eta-polynomials (``EtaPoly``), whose ``/``
is exact division: every multiplier divides exactly, and one that does not is
an ArithmeticError naming its stage, row and column.

The elimination runs in z = eta^2 on the upper half of the symmetric active
block (see ``neville_eliminate``); the trace it records is in eta.  Matrices
and traces are immutable once built, so they can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .exact import EtaPoly

# Largest matrix size the Leibniz oracle accepts: its walk still visits all
# 8! = 40,320 permutations, though each prefix product is shared.
ORACLE_MAX_N = 8


class SymMatrix:
    """Square matrix of integer eta-polynomials (``EtaPoly``).

    An entry of any other type (``int``, ``Fraction``, ``float`` and
    ``bool`` among them) is a ``TypeError``.  ``entry(i, j)`` is 1-based,
    matching the row/column conventions of the elimination stages.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Sequence[Sequence[EtaPoly]]) -> None:
        rows = tuple(map(tuple, rows))
        for row in rows:
            for entry in row:
                if not isinstance(entry, EtaPoly):
                    raise TypeError(f"EtaPoly matrix entry expected, got {type(entry).__name__}")
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("a nonempty square matrix is required")
        self._rows = rows

    @classmethod
    def _of(cls, rows: tuple[tuple[EtaPoly, ...], ...]) -> "SymMatrix":
        """The matrix of rows that are already square tuples of EtaPoly, kept as they are."""
        matrix = cls.__new__(cls)
        matrix._rows = rows
        return matrix

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[EtaPoly, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> EtaPoly:
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
        if type(s) is not int or not 1 <= s <= self.n:
            raise IndexError(f"stage {s!r} outside 1..{self.n}")
        return self.stages[s - 1]

    def diagonal(self, s: int) -> EtaPoly:
        """The (s, s) entry at stage s, where it has stabilized."""
        return self.stage(s).entry(s, s)

    def leading(self, k: int) -> "EliminationTrace":
        """The k-point trace: the first k stages, each cut to its leading k x k block.

        Stage s+1 computes entry (i, j) from entries (i, j), (i, s), (s, j) and
        (s, s) of stage s, so the leading block of the n-point stages is the
        elimination of the leading k-point covariance.
        """
        if type(k) is not int or not 1 <= k <= self.n:
            raise IndexError(f"leading size {k!r} outside 1..{self.n}")
        if k == self.n:
            return self
        return EliminationTrace(tuple(
            SymMatrix._of(tuple(row[:k] for row in stage.rows[:k])) for stage in self.stages[:k]
        ))


def neville_eliminate(n: int) -> EliminationTrace:
    """Pivot-free elimination of the n-point covariance, recording every stage.

    Stage 1 is the matrix eta^((i-j)^2).  Every stage-s entry is
    eta^((i-j)^2) * Q(s, i, j)(z) with z = eta^2, since
    (i-s)^2 + (s-j)^2 = (i-j)^2 + 2(i-s)(j-s).  Row i's multiplier
    U(s,i,s)/U(s,s,s) is eta^((i-s)^2) * M(s, i) with
    M(s, i) = Q(s,i,s)/Q(s,s,s), the Gaussian binomial [i-1 choose s-1] in z,
    so the stage rule U(s+1,i,j) = U(s,i,j) - U(s,i,s)/U(s,s,s) * U(s,s,j)
    becomes Q(s+1,i,j) = Q(s,i,j) - z^((i-s)(j-s)) * M(s,i) * Q(s,s,j).
    Each active row makes one exact division, for its multiplier, and every
    entry of the row reuses it: n(n-1)/2 divisions in all.  Only the current
    active block is kept in z, and only its j >= i half: the block stays
    symmetric, so the (j, i) entry of the trace is the same object as the
    (i, j) entry.  A row that leaves the active block keeps the one tuple it
    had there at every later stage.  A multiplier that does not divide
    exactly raises ArithmeticError naming the stage, and the row and column
    (i, i) of the first entry that needs it.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    zero = EtaPoly.zero()
    # q[i][j - i] is Q(s, i, j) for the active rows i >= s (0-based) and j >= i
    q = [[EtaPoly.one()] * (n - i) for i in range(n)]
    frozen: list[tuple[EtaPoly, ...]] = []
    stages = []
    for s in range(n):
        active: list[tuple[EtaPoly, ...]] = []
        for i in range(s, n):
            row = [zero] * s
            row += [active[j - s][i] for j in range(s, i)]
            row += [q[i][j - i].in_eta((j - i) ** 2) for j in range(i, n)]
            active.append(tuple(row))
        stages.append(SymMatrix._of((*frozen, *active)))
        frozen.append(active[0])
        pivot_row, q[s] = q[s], None
        for i in range(s + 1, n):
            try:
                multiplier = pivot_row[i - s] / pivot_row[0]
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"inexact quotient at stage {s + 2}, row {i + 1}, column {i + 1}: {exc}"
                ) from exc
            for j in range(i, n):
                update = EtaPoly.monomial((i - s) * (j - s)) * (multiplier * pivot_row[j - s])
                q[i][j - i] = q[i][j - i] - update
    return EliminationTrace(tuple(stages))


def diagonal_product(trace: EliminationTrace) -> EtaPoly:
    """Product of the stabilized stage diagonals: the determinant."""
    product = trace.diagonal(1)
    for s in range(2, trace.n + 1):
        product = product * trace.diagonal(s)
    return product


def brute_force_det(v: SymMatrix) -> EtaPoly:
    """Leibniz-sum determinant: exact and independent of elimination.

    A depth-first walk over the rows visits every one of the n! permutations,
    choosing one unused column per row.  The partial product of each prefix
    is computed once and shared by every permutation that extends it, and
    the sign flips whenever the chosen column sits at an odd position among
    the columns still unused (the inversions that choice adds).  Each entry
    is read once as sparse (exponent, coefficient) terms, so a zero entry
    has none and its subtree is skipped.  A product step adds exponents and
    multiplies coefficients, so on monomial entries (the covariance's) the
    walk has n! leaves, and an entry of t terms multiplies the leaves below
    it by t.  Every signed term goes into one exponent -> coefficient table,
    which becomes the resulting ``EtaPoly``.  The factorial cost is capped
    at ORACLE_MAX_N.
    """
    n = v.size
    if n > ORACLE_MAX_N:
        raise ValueError(f"matrix size {n} exceeds the Leibniz oracle limit {ORACLE_MAX_N}")
    terms = [[tuple(entry.terms()) for entry in row] for row in v.rows]
    table: dict[int, int] = {}

    def walk(i: int, free: tuple[int, ...], exponent: int, coeff: int) -> None:
        row = terms[i]
        if i == n - 1:
            for k, c in row[free[0]]:
                table[exponent + k] = table.get(exponent + k, 0) + coeff * c
            return
        for p, col in enumerate(free):
            entry = row[col]
            if entry:
                rest = free[:p] + free[p + 1:]
                signed = -coeff if p & 1 else coeff
                for k, c in entry:
                    walk(i + 1, rest, exponent + k, signed * c)

    walk(0, tuple(range(n)), 0, 1)
    coeffs = [0] * (max(table, default=-1) + 1)
    for k, c in table.items():
        coeffs[k] = c
    return EtaPoly(coeffs)
