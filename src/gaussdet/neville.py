"""Pivot-free elimination of the Gaussian covariance matrix, one stage at a time.

The matrix under study has entries eta^((i-j)^2) for evenly spaced points
(the common variance factor sigma_z^2 is not an input: this is V / sigma_z^2).
Elimination proceeds without pivoting: stage s+1 subtracts, from every entry
with row and column beyond s, its row's multiplier times the stage-s pivot
row's entry in its column.  Row i's multiplier is its stage-s entry in column
s over the stage-s pivot, eta^((i-s)^2) times the Gaussian binomial
[i-1 choose s-1] in eta^2, so V = L D L^T with a polynomial L.

Every stage-s entry is U(s,i,j) = eta^((i-j)^2) * Q(s,i,j)(z) with z = eta^2,
and ``neville_eliminate`` yields, stage by stage, the upper half (j >= i) of
the active block in z: the entries a closed form is compared with.  Rows
above the stage keep the pivot row they had when they froze, entries left of
the stage are zero, and the block is symmetric, so nothing else is computed.
Entries are integer polynomials (``EtaPoly``), whose ``/`` is exact
division: every multiplier divides exactly, and one that does not is an
ArithmeticError naming its stage, row and column.  Blocks are immutable once
built, so they can be shared freely across threads.  ``brute_force_det`` is
the independent oracle: the Leibniz sum of any minor of the matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .exact import EtaPoly
from .tpprobe import MinorIndex

# Largest minor order the Leibniz oracle accepts: its walk still visits all
# 8! = 40,320 permutations, though each prefix exponent is shared.
ORACLE_MAX_N = 8

# The upper half of a stage's active block, in z: row r holds Q(s, s+r, j) for j >= s+r.
Block = tuple[tuple[EtaPoly, ...], ...]


def neville_eliminate(n: int) -> Iterator[Block]:
    """Pivot-free elimination of the n-point covariance, yielding each stage's active block in z.

    Stage s's block holds Q(s, s+r, j) at row r and index j - s - r, for
    j >= s + r, where U(s,i,j) = eta^((i-j)^2) * Q(s,i,j)(z) with z = eta^2,
    since (i-s)^2 + (s-j)^2 = (i-j)^2 + 2(i-s)(j-s).  Stage 1's block is all
    ones.  Row i's multiplier U(s,i,s)/U(s,s,s) is eta^((i-s)^2) * M(s, i)
    with M(s, i) = Q(s,i,s)/Q(s,s,s), the Gaussian binomial
    [i-1 choose s-1] in z, so the stage rule
    U(s+1,i,j) = U(s,i,j) - U(s,i,s)/U(s,s,s) * U(s,s,j) becomes
    Q(s+1,i,j) = Q(s,i,j) - z^((i-s)(j-s)) * M(s,i) * Q(s,s,j).  Each active
    row makes one exact division, for its multiplier, and every entry of the
    row reuses it: n(n-1)/2 divisions in all.  Each block is built anew from
    the last, so a yielded block never changes, and only the current one is
    held.  The first k blocks, cut to rows and columns <= k, are the k-point
    elimination, since Q(s+1,i,j) reads only rows and columns <= max(i, j).
    A multiplier that does not divide exactly raises ArithmeticError naming
    the stage, and the row and column (i, i) of the first entry that needs it.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    block: Block = tuple((EtaPoly.one(),) * (n - r) for r in range(n))
    for s in range(n):
        yield block
        pivot_row = block[0]
        rows = []
        for r in range(1, n - s):
            try:
                multiplier = pivot_row[r] / pivot_row[0]
            except ArithmeticError as exc:
                raise ArithmeticError(
                    f"inexact quotient at stage {s + 2}, row {s + r + 1}, column {s + r + 1}: {exc}"
                ) from exc
            rows.append(tuple(
                entry - (multiplier * pivot_row[r + c])._shifted(r * (r + c))
                for c, entry in enumerate(block[r])
            ))
        block = tuple(rows)


def diagonal_product(blocks: Iterable[Block]) -> EtaPoly:
    """The determinant: the product of the blocks' pivots Q(s,s,s), taken in z and read in eta."""
    product = EtaPoly.one()
    for block in blocks:
        product = product * block[0][0]
    return product.in_eta()


def brute_force_det(idx: MinorIndex) -> EtaPoly:
    """Leibniz-sum determinant of one covariance minor: exact and independent of elimination.

    The minor is the submatrix [eta^((i-j)^2)] for i in ``idx.rows`` and j in
    ``idx.cols``.  A depth-first walk over its rows visits every one of the
    k! permutations, choosing one unused column per row.  Every entry is a
    monomial with coefficient 1, so a step adds (i-j)^2 to the exponent of
    the prefix, shared by every permutation that extends it, and the sign
    flips whenever the chosen column sits at an odd position among the
    columns still unused (the inversions that choice adds).  Each leaf adds
    its sign to the coefficient of its exponent.  The factorial cost is
    capped at ORACLE_MAX_N.
    """
    k = idx.size
    if k > ORACLE_MAX_N:
        raise ValueError(f"matrix size {k} exceeds the Leibniz oracle limit {ORACLE_MAX_N}")
    exponents = [[(i - j) ** 2 for j in idx.cols] for i in idx.rows]
    coeffs = [0] * (sum(map(max, exponents)) + 1)
    last = exponents[-1]

    def walk(i: int, free: tuple[int, ...], exponent: int, sign: int) -> None:
        if i == k - 1:
            coeffs[exponent + last[free[0]]] += sign
            return
        row = exponents[i]
        for p, col in enumerate(free):
            walk(i + 1, free[:p] + free[p + 1:], exponent + row[col], -sign if p & 1 else sign)

    walk(0, tuple(range(k)), 0, 1)
    return EtaPoly(coeffs)
