"""Exhaustive minor positivity probe for the covariance matrix at rational eta.

Strict total positivity asks every minor -- every square submatrix
determinant, not just the principal ones -- to be positive.  This module
evaluates all of them exactly at a rational eta in (0, 1), so there is no
floating-point ambiguity near zero: a nonpositive minor here would be a
genuine counterexample.

``all_minors_positive`` works on the integer matrix q^((n-1)^2) * V at
eta = p/q and builds every order-k minor by Laplace expansion along its last
row from the stored order-(k-1) minors, k multiplications each.

``MinorIndex`` and ``TpReport`` are named tuples: they iterate, index and
equal a plain tuple with the same fields.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

# Largest n the sweep accepts: C(2n, n) - 1 minors, 12,869 at n = 8.
MAX_N = 8
# Largest estimated size, in bits, of the minors at one eta.  At eta = p/q every
# entry of the integer matrix q^((n-1)^2) * V is at most q^((n-1)^2), so an
# order-k minor has at most k(n-1)^2 times the bits of q plus log2(k!) bits;
# scaled to the common denominator q^(n(n-1)^2), every integer the probe holds
# has at most n(n-1)^2 times the bits of q plus log2(8!) < 16 bits.  Python
# prints an int of up to 4,300 digits (14,284 bits), so every minor this limit
# admits renders.
MAX_MINOR_BITS = 14_000


class MinorIndex(namedtuple("MinorIndex", "rows cols")):
    """Row and column index sets (1-based, strictly increasing, equal length).

    An immutable named tuple with fields ``rows`` and ``cols``, each a tuple
    of int; any iterable of ints is accepted and stored as a tuple.  The
    checks hold on every way to build one, ``_make`` and ``_replace``
    included.
    """

    __slots__ = ()

    def __new__(cls, rows, cols):
        rows, cols = tuple(rows), tuple(cols)
        if not rows or len(rows) != len(cols):
            raise ValueError("rows and cols must be nonempty and of equal length")
        for name, idx in (("rows", rows), ("cols", cols)):
            if any(type(x) is not int for x in idx):
                raise ValueError(f"{name} must be integers, got {idx}")
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{name} must be strictly increasing, got {idx}")
            if idx[0] < 1:
                raise ValueError(f"{name} must be >= 1, got {idx}")
        return super().__new__(cls, rows, cols)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def size(self) -> int:
        """The order of the minor: how many rows (and columns) it selects."""
        return len(self.rows)


class TpReport(namedtuple("TpReport", "n eta_value minors_checked min_minor all_positive")):
    """Result of evaluating every minor of one matrix at one eta.

    An immutable named tuple with fields ``n`` (int), ``eta_value``
    (Fraction), ``minors_checked`` (int), ``min_minor`` (a (MinorIndex,
    Fraction) pair: the least minor and its value) and ``all_positive``
    (bool).
    """

    __slots__ = ()

def _validate_eta(eta_value) -> Fraction:
    if type(eta_value) is not int and not isinstance(eta_value, Fraction):
        raise TypeError(f"eta must be a Fraction or int, got {type(eta_value).__name__}")
    eta = Fraction(eta_value)
    if not 0 < eta < 1:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    return eta


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
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if n > MAX_N:
        # the exact count up to n = 64 (38 digits); above it, C(2n, n) is not
        # computed, and C(2n, n) - 1 >= 2^n bounds the count from below
        count = f"= {math.comb(2 * n, n) - 1:,}" if n <= 64 else f">= 2^{n}"
        raise ValueError(
            f"n = {n} would evaluate C({2 * n}, {n}) - 1 {count} minors; "
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
    # With eta = p/q and D = (n-1)^2, q^D * eta^((i-j)^2) is the integer
    # p^d * q^(D-d), d = (i-j)^2.  An order-k minor of this matrix is q^(kD) times
    # the minor of V, so det * q^((n-k)D) is q^(nD) times it for every order.
    D = (n - 1) ** 2
    span = range(n)
    scaled = [[p ** ((i - j) ** 2) * q ** (D - (i - j) ** 2) for j in span] for i in span]
    checked = 0
    least = []
    for k, order in enumerate(_laplace_minors(scaled), 1):
        scale = q ** ((n - k) * D)
        checked += sum(map(len, order.values()))
        least.append(min(
            (det * scale, rows, cols) for rows, dets in order.items() for cols, det in dets.items()
        ))
    value, rows, cols = min(least)
    idx = MinorIndex(tuple(i + 1 for i in rows), tuple(j + 1 for j in cols))
    return TpReport(
        n=n,
        eta_value=eta,
        minors_checked=checked,
        min_minor=(idx, Fraction(value, q ** (n * D))),
        all_positive=value > 0,
    )
