"""Exact scalar, polynomial, and rational-function arithmetic, and exact series coefficients.

Everything in this module is exact and immutable:

* scalars are arbitrary-precision rationals (``fractions.Fraction``);
* ``EtaPoly`` is a dense univariate polynomial in the formal variable eta;
* ``EtaRatFunc`` is a reduced quotient of two such polynomials;
* ``series_one_minus_exp`` gives the coefficients of a power series in a
  single variable t, cut off at a fixed order, as a tuple.

All operations are pure functions over immutable values, so concurrent use
needs no locking.  Internally, integral scalars may be stored as plain
``int`` rather than ``Fraction`` -- the two compare, hash and format
identically, and ``int`` arithmetic is much faster.  Polynomials with only
``int`` coefficients, which is every polynomial of the elimination, also get
integer kernels: a product of two dense ones is one big-int product of their
packed coefficients, and a quotient that divides exactly is one packed
big-int division, checked by multiplying back, instead of a reduction by
``poly_gcd``.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import Iterable, Iterator, Union

Scalar = Union[int, Fraction]

ETA_VARIABLE = "eta"


def _canon_scalar(c) -> Scalar:
    """Normalize a scalar to int (when integral) or Fraction."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"exact scalar expected, got {type(c).__name__}")


def _exact_ratio(a: Scalar, b: Scalar) -> Scalar:
    # b is known nonzero
    if isinstance(a, int) and isinstance(b, int):
        d, r = divmod(a, b)
        if r == 0:
            return d
    return _canon_scalar(Fraction(a) / Fraction(b))


def _render_terms(terms: Iterable[tuple[int, Scalar]]) -> str:
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
# carry handling in Python.  A product or quotient whose coefficients may not
# fit a slot keeps the term-by-term loop or the gcd path.

# Nonzero terms of the sparser operand from which a packed product beats the
# term-by-term loop.  On the products of the elimination and its closed forms,
# the sparser ones (mostly monomials and h-factors) cost 2.7 times the loop
# when packed, and the denser ones a third of it.
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


def _packed_product(a, b) -> list[int] | None:
    """Coefficients of the product of two integer coefficient sequences, neither all zero.

    None when a product coefficient could reach 2^63.
    """
    if min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)) >= _SLOT_LIMIT:
        return None
    return _unpack(_pack(a) * _pack(b), len(a) + len(b) - 1)


class EtaPoly:
    """Dense polynomial in eta over the rationals.

    Coefficient ``k`` multiplies ``eta^k``.  The stored coefficient tuple
    carries no trailing zero (the zero polynomial stores an empty tuple), so
    equality and hashing are structural.  The canonical text form lists terms
    in ascending exponent, e.g. ``1 - 2*eta^2 + 2*eta^6 - eta^8``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = list(coeffs)
        if not _all_int(cs):
            cs = [_canon_scalar(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "EtaPoly":
        return cls()

    @classmethod
    def one(cls) -> "EtaPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "EtaPoly":
        """The single term coeff * eta^exponent."""
        if exponent < 0:
            raise ValueError("monomial exponent must be >= 0")
        if coeff == 0:
            return cls()
        return cls((0,) * exponent + (coeff,))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Ascending coefficients as Fractions (index = exponent of eta)."""
        return tuple(Fraction(c) for c in self._coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def terms(self) -> Iterator[tuple[int, Scalar]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        for k, c in enumerate(self._coeffs):
            if c:
                yield k, c

    # -- ring arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "EtaPoly | None":
        if isinstance(value, EtaPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return EtaPoly((value,))
        return None

    def __add__(self, other):
        other = EtaPoly._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return EtaPoly(out)

    __radd__ = __add__

    def __neg__(self):
        out = EtaPoly.__new__(EtaPoly)
        out._coeffs = tuple(-c for c in self._coeffs)
        return out

    def __sub__(self, other):
        other = EtaPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = EtaPoly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _canon_scalar(other)
            if c == 0:
                return EtaPoly()
            return EtaPoly(x * c for x in self._coeffs)
        if not isinstance(other, EtaPoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return EtaPoly()
        # iterate over the sparser operand so monomials and h-factors cost O(degree)
        terms_a, terms_b = len(a) - a.count(0), len(b) - b.count(0)
        if terms_a > terms_b:
            a, b = b, a
        if min(terms_a, terms_b) >= _PACKED_MIN_TERMS and _all_int(a) and _all_int(b):
            packed = _packed_product(a, b)
            if packed is not None:
                return EtaPoly(packed)
        out: list[Scalar] = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    if cj:
                        out[i + j] += ci * cj
        return EtaPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power must be a nonnegative integer")
        result = EtaPoly.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __divmod__(self, other):
        other = EtaPoly._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        b = other._coeffs
        db = len(b) - 1
        if len(self._coeffs) - 1 < db:
            return EtaPoly(), self
        rem = list(self._coeffs)
        lead = b[-1]
        quot: list[Scalar] = [0] * (len(rem) - db)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if not c:
                continue
            qc = _exact_ratio(c, lead)
            quot[k - db] = qc
            for m in range(db + 1):
                rem[k - db + m] -= qc * b[m]
        return EtaPoly(quot), EtaPoly(rem[:db])

    def __floordiv__(self, other):
        result = divmod(self, other)
        return result[0] if result is not NotImplemented else NotImplemented

    def __mod__(self, other):
        result = divmod(self, other)
        return result[1] if result is not NotImplemented else NotImplemented

    def monic(self) -> "EtaPoly":
        """Scale so the leading coefficient is 1."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no monic form")
        lead = self._coeffs[-1]
        if lead == 1:
            return self
        return self * _exact_ratio(1, lead)

    def __call__(self, point) -> Fraction:
        """Evaluate at a rational point (Horner)."""
        x = Fraction(point)
        acc: Fraction | int = 0
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return Fraction(acc)

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        other = EtaPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        if len(self._coeffs) <= 1:
            return hash(self._coeffs[0] if self._coeffs else 0)
        return hash(self._coeffs)

    def __str__(self) -> str:
        return _render_terms(self.terms())

    def __repr__(self) -> str:
        return f"EtaPoly({self})"


def poly_h(q: int) -> EtaPoly:
    """The atomic determinant factor 1 - eta^(2q), for q >= 1."""
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"h_q requires an integer q >= 1, got {q!r}")
    return EtaPoly((1,) + (0,) * (2 * q - 1) + (-1,))


def _exact_quotient(a: EtaPoly, b: EtaPoly) -> EtaPoly | None:
    """a / b for integer polynomials a and b != 0 when it is an integer polynomial, else None.

    The candidate read off the packed integer quotient is kept only if
    multiplying it back by b gives a, so a slot too narrow for the quotient
    also ends in None.
    """
    ca, cb = a._coeffs, b._coeffs
    if not ca:
        return a
    size = len(ca) - len(cb) + 1
    if size < 1 or not (_all_int(ca) and _all_int(cb)) or ca[-1] % cb[-1]:
        return None
    if max(map(abs, ca)) >= _SLOT_LIMIT or max(map(abs, cb)) >= _SLOT_LIMIT:
        return None
    packed, remainder = divmod(_pack(ca), _pack(cb))
    if remainder:
        return None
    try:
        quotient = EtaPoly(_unpack(packed, size))
    except OverflowError:
        return None
    return quotient if quotient * b == a else None


def poly_gcd(a: EtaPoly, b: EtaPoly) -> EtaPoly:
    """Monic greatest common divisor (zero polynomial if both are zero)."""
    while not b.is_zero:
        a, b = b, a % b
    return a if a.is_zero else a.monic()


class EtaRatFunc:
    """Quotient of two eta-polynomials, stored reduced with monic denominator.

    The canonical form (coprime numerator/denominator, denominator monic)
    makes equality structural.  Intermediate elimination quotients live here;
    for the matrix family under study they always reduce back to denominator
    one, and ``as_poly`` recovers the polynomial.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None) -> None:
        num = _as_poly(num)
        den = _ONE_POLY if den is None else _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = _ZERO_POLY, _ONE_POLY
        elif den != _ONE_POLY:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den._coeffs[-1]
            if lead != 1:
                inv = _exact_ratio(1, lead)
                num, den = num * inv, den * inv
        self._num = num
        self._den = den

    @classmethod
    def _reduced(cls, num: EtaPoly) -> "EtaRatFunc":
        # fast path: num/1 is already canonical
        out = cls.__new__(cls)
        out._num = num
        out._den = _ONE_POLY
        return out

    @property
    def num(self) -> EtaPoly:
        return self._num

    @property
    def den(self) -> EtaPoly:
        return self._den

    @property
    def is_polynomial(self) -> bool:
        return self._den == _ONE_POLY

    def as_poly(self) -> EtaPoly:
        if not self.is_polynomial:
            raise ValueError(f"not a polynomial: {self}")
        return self._num

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def __bool__(self) -> bool:
        return bool(self._num)

    @staticmethod
    def _coerce(value) -> "EtaRatFunc | None":
        if isinstance(value, EtaRatFunc):
            return value
        if isinstance(value, (EtaPoly, int, Fraction)):
            return EtaRatFunc(value)
        return None

    def __add__(self, other):
        other = EtaRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial and other.is_polynomial:
            return EtaRatFunc._reduced(self._num + other._num)
        return EtaRatFunc(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __neg__(self):
        out = EtaRatFunc.__new__(EtaRatFunc)
        out._num = -self._num
        out._den = self._den
        return out

    def __sub__(self, other):
        other = EtaRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = EtaRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = EtaRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_polynomial and other.is_polynomial:
            return EtaRatFunc._reduced(self._num * other._num)
        return EtaRatFunc(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = EtaRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        # elimination quotients divide exactly; anything else takes the gcd path
        if self.is_polynomial and other.is_polynomial:
            quotient = _exact_quotient(self._num, other._num)
            if quotient is not None:
                return EtaRatFunc._reduced(quotient)
        return EtaRatFunc(self._num * other._den, self._den * other._num)

    def __rtruediv__(self, other):
        other = EtaRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("rational-function power must be a nonnegative integer")
        return EtaRatFunc(self._num ** exponent, self._den ** exponent)

    def __call__(self, point) -> Fraction:
        bottom = self._den(point)
        if bottom == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return self._num(point) / bottom

    def __eq__(self, other) -> bool:
        other = EtaRatFunc._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self.is_polynomial:
            return hash(self._num)
        return hash((self._num, self._den))

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self._num)
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"EtaRatFunc({self})"


def _as_poly(value) -> EtaPoly:
    poly = EtaPoly._coerce(value)
    if poly is None:
        raise TypeError(f"polynomial or exact scalar expected, got {type(value).__name__}")
    return poly


_ZERO_POLY = EtaPoly()
_ONE_POLY = EtaPoly((1,))


def series_one_minus_exp(x: int, order: int) -> tuple[Fraction, ...]:
    """Coefficients of 1 - exp(-2*x*t) up to t^order (index = power of t).

    The constant term is zero and the coefficient of t^m is -(-2x)^m / m!,
    so the linear term is 2x*t.
    """
    if not isinstance(x, int) or x < 1:
        raise ValueError(f"x must be an integer >= 1, got {x!r}")
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be an integer >= 1, got {order!r}")
    coeffs = [Fraction(0)]
    power = 1
    for m in range(1, order + 1):
        power *= -2 * x
        coeffs.append(Fraction(-power, math.factorial(m)))
    return tuple(coeffs)
