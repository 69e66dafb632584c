"""The generic elimination and Leibniz sum of any exact ``SymMatrix``: the tests' oracles.

``gaussdet.neville_eliminate`` eliminates only the covariance, in z = eta^2
on the symmetric active block.  This is the elimination it replaced, kept
as it was: it works on the whole n x n block of any rational or eta-poly
matrix, so it checks the symbolic kernel entry by entry and runs the
numeric ``Fraction`` checks.  ``leibniz_det`` is the plain Leibniz sum that
``gaussdet.brute_force_det``'s prefix-sharing walk replaced, kept as the
reference for that walk.
"""

from __future__ import annotations

import itertools

from gaussdet.exact import EtaPoly
from gaussdet.neville import EliminationTrace, SymMatrix


class ZeroPivotError(ArithmeticError):
    """A stage pivot was zero, so pivot-free elimination cannot continue."""

    def __init__(self, stage: int) -> None:
        super().__init__(f"zero pivot at stage {stage}")
        self.stage = stage


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


def eliminate_matrix(v: SymMatrix) -> EliminationTrace:
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


def leibniz_det(v: SymMatrix):
    """The Leibniz sum term by term: one product and one inversion count per permutation."""
    n = v.size
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
