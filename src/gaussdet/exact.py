"""Exact integer polynomial arithmetic.

``EtaPoly`` is a dense univariate polynomial in the formal variable eta with
``int`` coefficients, whose ``/`` is exact division; it is immutable.  Its
operators take ``EtaPoly`` operands only: an ``int`` operand is a
``TypeError``, and an ``EtaPoly`` never equals an ``int``.

Every stage entry of the elimination is an integer polynomial: each row's
multiplier, its entry over the pivot, is a power of eta times a Gaussian
binomial in eta^2, so every quotient divides exactly.  A quotient that does
not is an ``ArithmeticError``, never a rational function.

All operations are pure functions over immutable values, so concurrent use
needs no locking.  A product of two dense polynomials is one big-int product
of their packed coefficients, and an exact quotient is one packed big-int
division, checked by multiplying back.  A product too wide for 64-bit slots
is packed at wider ones, and a quotient too wide for them takes long
division.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterable, Iterator
from fractions import Fraction

ETA_VARIABLE = "eta"


def _render_terms(terms: Iterable[tuple[int, int]]) -> str:
    """Render (exponent, nonzero coefficient) pairs in ascending-exponent text form."""
    chunks: list[str] = []
    for exp, c in terms:
        neg = c < 0
        mag = -c if neg else c
        if exp == 0:
            body = str(mag)
        else:
            power = ETA_VARIABLE if exp == 1 else f"{ETA_VARIABLE}^{exp}"
            body = power if mag == 1 else f"{mag}*{power}"
        if not chunks:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks) if chunks else "0"


# -- packed integer kernels ----------------------------------------------------
#
# An integer polynomial a is packed into the single integer a(2^64) (Kronecker
# substitution), so a product or an exact quotient of polynomials becomes one
# big-int operation done in C.  Each 64-bit slot holds one signed coefficient
# of magnitude below 2^63.  Adding 2^63 to every slot of a(2^64) gives
# nonnegative digits, and flipping each slot's top bit turns those into two's
# complement, so both directions convert bytes with ``struct`` and without
# carry handling in Python.  A product whose coefficients may not fit a slot
# is packed at wider whole-byte slots (``_wide_product``); a quotient that may
# not fit takes long division.

# Nonzero terms of the sparser operand from which a packed product beats the
# term-by-term loop.  Replaying the products of `verify-u --n 30` and of the
# symbolic-n15 benchmark workload (2-vCPU Xeon, Python 3.11), those whose
# sparser operand has 2 terms cost 3 times the loop when packed, 4 terms 1.35
# times and 5 terms 1.0 to 1.3 times; 6 to 8 terms cost 0.7 to 0.8 times and
# 10 terms 0.35.  Moving the threshold to 6 saves 2 % of the replayed product
# time (25.9 to 25.4 ms on symbolic-n15), within the noise of a run.
_PACKED_MIN_TERMS = 8
_SLOT_LIMIT = 1 << 63


def _all_int(coeffs) -> bool:
    return set(map(type, coeffs)) <= {int}


def _top_bits(count: int) -> int:
    """The integer whose count 64-bit slots hold only their top bit."""
    return int.from_bytes(_SLOT_LIMIT.to_bytes(8, "little") * count, "little")


def _pack(coeffs) -> int:
    """The integer coefficients evaluated at 2^64; each must be below 2^63 in magnitude."""
    top = _top_bits(len(coeffs))
    return (int.from_bytes(struct.pack(f"<{len(coeffs)}q", *coeffs), "little") ^ top) - top


def _unpack(value: int, count: int) -> list[int]:
    """The count signed slot values of a packed integer; OverflowError if it has more."""
    top = _top_bits(count)
    return list(struct.unpack(f"<{count}q", ((value + top) ^ top).to_bytes(8 * count, "little")))


def _padded(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """a and b with zeros appended to the shorter, so both have the same length."""
    pad = len(a) - len(b)
    return (a, b + (0,) * pad) if pad >= 0 else (a + (0,) * -pad, b)


def _product_bound(a, b) -> int:
    """The least count times the largest magnitudes: no product coefficient exceeds it."""
    return min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))


def _packed_product(a, b) -> list[int] | None:
    """Coefficients of the product of two integer coefficient sequences, neither all zero.

    None when a product coefficient could reach 2^63.
    """
    if _product_bound(a, b) >= _SLOT_LIMIT:
        return None
    return _unpack(_pack(a) * _pack(b), len(a) + len(b) - 1)


def _wide_product(a, b) -> list[int]:
    """Coefficients of the product of two integer coefficient sequences, neither all zero.

    Packed like ``_packed_product``, at whole-byte slots wide enough for the
    product's bound, whatever it is.  Each slot holds its coefficient plus
    half the slot's range (offset binary), so every digit is nonnegative and
    converts with ``to_bytes``/``from_bytes``; the offsets of all slots are
    subtracted from a packed factor, and added to the product before it is
    cut into slots.
    """
    width = (_product_bound(a, b).bit_length() + 8) // 8
    half = 1 << (8 * width - 1)
    offset = half.to_bytes(width, "little")

    def pack(coeffs) -> int:
        digits = b"".join((c + half).to_bytes(width, "little") for c in coeffs)
        return int.from_bytes(digits, "little") - int.from_bytes(offset * len(coeffs), "little")

    count = len(a) + len(b) - 1
    product = pack(a) * pack(b) + int.from_bytes(offset * count, "little")
    digits = product.to_bytes(width * count, "little")
    return [int.from_bytes(digits[k:k + width], "little") - half
            for k in range(0, len(digits), width)]


class EtaPoly:
    """Dense polynomial in eta with integer coefficients.

    Coefficient ``k`` multiplies ``eta^k``; a coefficient of any type other
    than ``int`` (``bool``, ``Fraction`` or ``float`` among them) is a
    ``TypeError``.  The stored coefficient tuple carries no trailing zero
    (the zero polynomial stores an empty tuple), so equality and hashing are
    structural.  The canonical text form lists terms in ascending exponent,
    e.g. ``1 - 2*eta^2 + 2*eta^6 - eta^8``.  ``/`` is exact division, so a
    divisor that leaves a remainder or a fractional coefficient raises
    ``ArithmeticError``; elimination stage entries are these polynomials.
    ``+``, ``-``, ``*``, ``/`` and ``==`` take ``EtaPoly`` operands only, so
    a constant is written ``EtaPoly((c,))``: ``p * 2`` and ``1 - p`` raise
    ``TypeError`` and ``EtaPoly((1,)) == 1`` is False.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        if not _all_int(cs):
            bad = next(c for c in cs if type(c) is not int)
            raise TypeError(f"int coefficient expected, got {type(bad).__name__}")
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def _of(cls, coeffs: Iterable[int]) -> "EtaPoly":
        """The polynomial of coefficients already known to be ints, trailing zeros stripped."""
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        poly = cls.__new__(cls)
        poly._coeffs = tuple(cs)
        return poly

    @classmethod
    def zero(cls) -> "EtaPoly":
        return cls()

    @classmethod
    def one(cls) -> "EtaPoly":
        return cls((1,))

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Ascending coefficients (index = exponent of eta)."""
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def in_eta(self, shift: int = 0) -> "EtaPoly":
        """eta^shift * self(eta^2): this polynomial read in z = eta^2, mapped back to eta."""
        if type(shift) is not int or shift < 0:
            raise ValueError(f"eta shift must be an integer >= 0, got {shift!r}")
        if not self._coeffs:
            return self
        coeffs = [0] * (shift + 2 * len(self._coeffs) - 1)
        coeffs[shift::2] = self._coeffs
        return EtaPoly._of(coeffs)

    def _shifted(self, places: int) -> "EtaPoly":
        """eta^places * self, for an int places >= 0, without a product."""
        if not self._coeffs:
            return self
        poly = EtaPoly.__new__(EtaPoly)
        poly._coeffs = (0,) * places + self._coeffs
        return poly

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        for k, c in enumerate(self._coeffs):
            if c:
                yield k, c

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return EtaPoly._of(map(operator.add, *_padded(self._coeffs, other._coeffs)))

    def __neg__(self):
        return EtaPoly._of(-c for c in self._coeffs)

    def __sub__(self, other):
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return EtaPoly._of(map(operator.sub, *_padded(self._coeffs, other._coeffs)))

    def _scaled(self, c: int) -> "EtaPoly":
        """c * self, for an int c."""
        return self if c == 1 else EtaPoly._of(c * x for x in self._coeffs)

    def __mul__(self, other):
        if not isinstance(other, EtaPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        # a constant operand, zero included, scales the other
        if len(b) < 2:
            return self._scaled(b[0] if b else 0)
        if len(a) < 2:
            return other._scaled(a[0] if a else 0)
        terms_a, terms_b = len(a) - a.count(0), len(b) - b.count(0)
        if terms_a > terms_b:
            a, b = b, a
        if min(terms_a, terms_b) >= _PACKED_MIN_TERMS:
            packed = _packed_product(a, b)
            return EtaPoly._of(_wide_product(a, b) if packed is None else packed)
        # term by term, over the sparser operand's nonzero terms
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    if cj:
                        out[i + j] += ci * cj
        return EtaPoly._of(out)

    def __truediv__(self, other):
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return _exact_quotient(self, other)

    def __call__(self, point) -> Fraction:
        """Evaluate at a rational point, an int or a Fraction (Horner)."""
        if type(point) is not int and not isinstance(point, Fraction):
            raise TypeError(f"eta must be a Fraction or int, got {type(point).__name__}")
        x = Fraction(point)
        acc: Fraction | int = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return Fraction(acc)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, EtaPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __str__(self) -> str:
        return _render_terms(self.terms())

    def __repr__(self) -> str:
        return f"EtaPoly({self})"


def poly_h(q: int) -> EtaPoly:
    """The atomic determinant factor 1 - eta^(2q), for q >= 1."""
    if type(q) is not int or q < 1:
        raise ValueError(f"h_q requires an integer q >= 1, got {q!r}")
    return EtaPoly((1,) + (0,) * (2 * q - 1) + (-1,))


def _exact_quotient(a: EtaPoly, b: EtaPoly) -> EtaPoly:
    """a / b, which must be an integer polynomial.

    ZeroDivisionError when b is zero; ArithmeticError when b leaves a
    remainder or the quotient has a non-integral coefficient.  When a and b
    fit 64-bit slots, the quotient is read off one packed big-int division
    and kept once multiplying it back gives a; a wider quotient, or a wider
    a or b, takes integer long division.
    """
    ca, cb = a._coeffs, b._coeffs
    if not cb:
        raise ZeroDivisionError("polynomial division by zero")
    if not ca:
        return a
    if max(map(abs, ca)) < _SLOT_LIMIT and max(map(abs, cb)) < _SLOT_LIMIT:
        # b | a over the integers makes b(2^64) divide a(2^64)
        packed, remainder = divmod(_pack(ca), _pack(cb))
        if remainder:
            raise ArithmeticError(f"{b} does not divide {a} over the integers")
        try:
            quotient = EtaPoly._of(_unpack(packed, len(ca) - len(cb) + 1))
        except OverflowError:
            pass  # a quotient coefficient needs more than a slot
        else:
            if quotient * b == a:
                return quotient
    # long division; a coefficient the divisor's lead does not divide stops it
    # and stays in the remainder
    rem = list(ca)
    db = len(cb) - 1
    quot = [0] * (len(rem) - db)
    for k in range(len(rem) - 1, db - 1, -1):
        qc, r = divmod(rem[k], cb[-1])
        if r:
            break
        if qc:
            quot[k - db] = qc
            for m, cm in enumerate(cb):
                rem[k - db + m] -= qc * cm
    if any(rem):
        raise ArithmeticError(f"{b} does not divide {a} over the integers")
    return EtaPoly._of(quot)
