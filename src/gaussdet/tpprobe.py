"""Exhaustive minor positivity probe for the covariance matrix at rational eta.

Strict total positivity asks every minor -- every square submatrix
determinant, not just the principal ones -- to be positive.  This module
evaluates all of them exactly at a rational eta in (0, 1), so there is no
floating-point ambiguity near zero: a nonpositive minor here would be a
genuine counterexample.

``all_minors_positive`` rescales the matrix to integers and builds every
order-k minor by Laplace expansion along its last row from the stored
order-(k-1) minors, k multiplications each.  ``minor_value`` evaluates a
single minor from scratch by fraction-free (Bareiss) elimination over
``Fraction`` and serves as the independent oracle for the sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# Largest n the sweep accepts: C(2n, n) - 1 minors, 12,869 at n = 8.
MAX_N = 8
# Largest estimated size, in bits, of the minors at one eta.  An order-k minor
# at eta = p/q is an integer polynomial in eta of degree at most k(n-1)^2 whose
# coefficients have absolute sum at most k!, so its numerator and denominator
# over q^(k(n-1)^2) have at most n(n-1)^2 times the bits of q (p < q), plus
# log2(8!) < 16 bits.  Python prints an int of up to 4,300 digits (14,284 bits),
# so every minor this limit admits renders.
MAX_MINOR_BITS = 14_000


@dataclass(frozen=True)
class MinorIndex:
    """Row and column index sets (1-based, strictly increasing, equal length)."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        rows, cols = tuple(self.rows), tuple(self.cols)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        if not rows or len(rows) != len(cols):
            raise ValueError("rows and cols must be nonempty and of equal length")
        for name, idx in (("rows", rows), ("cols", cols)):
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{name} must be strictly increasing, got {idx}")
            if idx[0] < 1:
                raise ValueError(f"{name} must be >= 1, got {idx}")

    def validate_for(self, n: int) -> None:
        if self.rows[-1] > n or self.cols[-1] > n:
            raise ValueError(f"index sets {self} exceed matrix size {n}")

    def __str__(self) -> str:
        return f"rows={list(self.rows)}, cols={list(self.cols)}"


@dataclass(frozen=True)
class TpReport:
    """Result of evaluating every minor of one matrix at one eta."""

    n: int
    eta_value: Fraction
    minors_checked: int
    min_minor: tuple[MinorIndex, Fraction]
    all_positive: bool


def _validate_eta(eta_value) -> Fraction:
    eta = Fraction(eta_value)
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    return eta


def _det_bareiss(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Fraction-free elimination; every division is exact."""
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


def _submatrix(eta: Fraction, rows: Sequence[int], cols: Sequence[int]):
    return [[eta ** ((i - j) ** 2) for j in cols] for i in rows]


def minor_value(n: int, eta_value, idx: MinorIndex) -> Fraction:
    """Exact determinant of the selected submatrix at the given eta."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    eta = _validate_eta(eta_value)
    idx.validate_for(n)
    return _det_bareiss(_submatrix(eta, idx.rows, idx.cols))


def _laplace_minors(matrix: Sequence[Sequence[int]]):
    """Every minor of a square matrix, one order at a time.

    Yields, for k = 1..n, a dict mapping each k-row set to a dict from each
    k-column set to the minor (0-based, strictly increasing tuples).  Each
    order-k minor is expanded along its last row over the order-(k-1) minors
    of the remaining rows, so only two orders are held at once.
    """
    n = len(matrix)
    prev: dict = {(): {(): 1}}
    for k in range(1, n + 1):
        # cofactor sign (-1)^(k+t) for 1-based position t is + at t = k
        faces = [
            (cols, [(c, cols[:t] + cols[t + 1:], (k - 1 - t) & 1)
                    for t, c in enumerate(cols)])
            for cols in itertools.combinations(range(n), k)
        ]
        cur: dict = {}
        for rows in itertools.combinations(range(n), k):
            last, sub = matrix[rows[-1]], prev[rows[:-1]]
            cur[rows] = dets = {}
            for cols, terms in faces:
                total = 0
                for c, face, odd in terms:
                    term = last[c] * sub[face]
                    total = total - term if odd else total + term
                dets[cols] = total
        yield cur
        prev = cur


def all_minors_positive(n: int, eta_value) -> TpReport:
    """Evaluate every square minor exactly and report positivity and the minimum.

    The minimum's ties are broken by lexicographic (rows, cols) order, so the
    report is independent of evaluation schedule.  A size above MAX_N, or an
    eta whose minors could exceed MAX_MINOR_BITS, is refused before any minor
    is evaluated.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if n > MAX_N:
        raise ValueError(
            f"n = {n} would evaluate C({2 * n}, {n}) - 1 = {math.comb(2 * n, n) - 1:,} minors; "
            f"the all-minors probe is limited to n <= {MAX_N}"
        )
    eta = _validate_eta(eta_value)
    p, q = eta.numerator, eta.denominator
    bits = n * (n - 1) ** 2 * q.bit_length()
    if bits > MAX_MINOR_BITS:
        raise ValueError(
            f"n = {n} at an eta whose denominator has {q.bit_length()} bits would give minors "
            f"of up to about n(n-1)^2 * {q.bit_length()} = {bits:,} bits; "
            f"the all-minors probe is limited to {MAX_MINOR_BITS:,} bits"
        )
    # With eta = p/q, eta^((i-j)^2) = eta^(i^2) * eta^(j^2) * (q/p)^(2ij), so scaling
    # row i by p^(2in) leaves the integer q^(2ij) * p^(2i(n-j)).  The minor on rows
    # R, cols C is its integer determinant times prod_R eta^(i^2) / p^(2in) *
    # prod_C eta^(j^2), which is positive because p and eta are: the integer's sign
    # is the minor's sign.  Times the constant p^(sum 2in - i^2) * q^(2 sum i^2) that
    # factor becomes the integer row weight times column weight below, so weighted
    # minors of every order compare as the minors do.
    span = range(1, n + 1)
    scaled = [[q ** (2 * i * j) * p ** (2 * i * (n - j)) for j in span] for i in span]
    rows_in, rows_out = [1] * n, [p ** (2 * i * n - i * i) * q ** (i * i) for i in span]
    cols_in, cols_out = [p ** (j * j) for j in span], [q ** (j * j) for j in span]

    def weight(idx: tuple[int, ...], inside: list[int], outside: list[int]) -> int:
        w = 1
        for i in range(n):
            w *= inside[i] if i in idx else outside[i]
        return w

    checked = 0
    all_positive = True
    best_key: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    best_weighted: int | None = None
    for k, order in enumerate(_laplace_minors(scaled), 1):
        col_weights = {
            cols: weight(cols, cols_in, cols_out)
            for cols in itertools.combinations(range(n), k)
        }
        for rows, dets in order.items():
            row_weight = weight(rows, rows_in, rows_out)
            for cols, det in dets.items():
                checked += 1
                if det <= 0:
                    all_positive = False
                value = det * row_weight * col_weights[cols]
                key = (rows, cols)
                if (
                    best_weighted is None
                    or value < best_weighted
                    or (value == best_weighted and key < best_key)
                ):
                    best_weighted = value
                    best_key = key
    assert best_key is not None and best_weighted is not None
    # the empty minor is 1, so its weight is the constant
    best_value = Fraction(
        best_weighted, weight((), rows_in, rows_out) * weight((), cols_in, cols_out)
    )
    rows, cols = (tuple(i + 1 for i in idx) for idx in best_key)
    return TpReport(
        n=n,
        eta_value=eta,
        minors_checked=checked,
        min_minor=(MinorIndex(rows, cols), best_value),
        all_positive=all_positive,
    )
