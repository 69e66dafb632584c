"""Signed integer multisets and the simplicial multiset family.

A simplicial multiset collects the weighted L1 distances from a simplex apex
to the points of a commensurately aligned lattice; they are the exponents of
the nested eta-power sums of the elimination stages.  ``enumerate_simplex``
counts them rather than listing them: the nested coordinates are partitions
in a box, whose numbers by sum follow the q-Pascal recurrence of the Gaussian
binomials.  The multiset identities MI1 through MI6 relate such multisets
across parameters; MI1a-c are MI1 at substituted parameters, and MI6 (the
inter-dimensional duality), regrouped by ``lift_duality``, is the lifting
step that drives the closed-form induction.

Multiplicities may be negative, which is what makes the formal cancellation
in the lifting step expressible: ``negate`` flips multiplicities, and a
union with a negated multiset is an exact subtraction.

``SimplexSpec`` and ``IdentityReport`` are named tuples: they iterate, index
and equal a plain tuple with the same fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import islice


class SideConditionError(ValueError):
    """A parameter tuple violates an identity's side conditions."""


class LiftDualityError(AssertionError):
    """The lifting-transformation equality failed; carries the difference."""

    def __init__(self, w: int, i: int, j: int, difference: "SignedMultiset") -> None:
        super().__init__(
            f"lift duality violated at (w={w}, i={i}, j={j}); "
            f"symmetric difference {difference}"
        )
        self.w = w
        self.i = i
        self.j = j
        self.difference = difference


def _require_ints(values: Iterable) -> None:
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise TypeError(f"int element or multiplicity expected, got {type(bad).__name__}")


def _require_int(name: str, value) -> None:
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


class SignedMultiset:
    """Integer multiset whose multiplicities may be negative.

    Elements and multiplicities are ``int``; any other type (``bool``,
    ``float`` or ``Fraction`` among them) is a ``TypeError``.  Zero
    multiplicities are never stored, so equality and hashing are
    structural.  The text form lists elements in ascending order with a
    ``^multiplicity`` suffix when the multiplicity is not one, e.g.
    ``{0, 2, 3, 6^2, 9}`` or ``{1^-1, 5}``.
    """

    __slots__ = ("_mult",)

    def __init__(self, elements: Iterable[int] = ()) -> None:
        elements = list(elements)
        _require_ints(elements)
        mult: dict[int, int] = {}
        for e in elements:
            mult[e] = mult.get(e, 0) + 1
        self._mult = mult

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "SignedMultiset":
        """Build from an element -> multiplicity mapping (zeros dropped)."""
        _require_ints(counts.keys())
        _require_ints(counts.values())
        return cls._of({e: m for e, m in counts.items() if m})

    @classmethod
    def _of(cls, mult: dict[int, int]) -> "SignedMultiset":
        # mult holds checked ints and no zero multiplicity
        ms = cls.__new__(cls)
        ms._mult = mult
        return ms

    def items(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element, multiplicity) pairs."""
        return tuple(sorted(self._mult.items()))

    def total(self) -> int:
        """Sum of multiplicities (the cardinality, for ordinary multisets)."""
        return sum(self._mult.values())

    def union(self, other: "SignedMultiset") -> "SignedMultiset":
        """Pointwise sum of multiplicities."""
        out = dict(self._mult)
        for e, m in other._mult.items():
            new = out.get(e, 0) + m
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return SignedMultiset._of(out)

    def negate(self) -> "SignedMultiset":
        """Flip every multiplicity; union with the result cancels exactly."""
        return SignedMultiset._of({e: -m for e, m in self._mult.items()})

    def difference(self, other: "SignedMultiset") -> "SignedMultiset":
        """self with other formally subtracted; empty iff the two are equal."""
        return self.union(other.negate())

    def __bool__(self) -> bool:
        return bool(self._mult)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedMultiset):
            return NotImplemented
        return self._mult == other._mult

    def __hash__(self):
        return hash(frozenset(self._mult.items()))

    def __str__(self) -> str:
        parts = [f"{e}^{m}" if m != 1 else str(e) for e, m in self.items()]
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"SignedMultiset({self})"


class SimplexSpec(namedtuple("SimplexSpec", "n alpha beta gamma delta epsilon", defaults=(0,))):
    """Parameters of a simplicial multiset: an immutable named tuple.

    Fields, each an ``int``: ``n``, ``alpha``, ``beta``, ``gamma``,
    ``delta`` and ``epsilon`` (default 0).  ``n`` is the number of nested
    lattice coordinates; ``alpha`` an additive constant; ``beta`` the weight
    of the first coordinate ``k``, which runs from gamma-1 to delta-1.  The
    second coordinate normally runs 0..k; epsilon=1 pins it to exactly k.
    Each deeper coordinate runs from 0 to its predecessor.  Any other field
    type (``bool`` and ``float`` among them) is a ``TypeError`` and a value
    out of range a ``ValueError``, checked on every way to build one,
    ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, n, alpha, beta, gamma, delta, epsilon=0):
        for name, value in zip(cls._fields, (n, alpha, beta, gamma, delta, epsilon)):
            _require_int(name, value)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        if beta < 0:
            raise ValueError(f"beta must be >= 0, got {beta}")
        if gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {gamma}")
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        if gamma > delta:
            raise ValueError(f"gamma <= delta required, got gamma={gamma}, delta={delta}")
        if epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {epsilon}")
        return super().__new__(cls, n, alpha, beta, gamma, delta, epsilon)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


# P_d(k) for k = 0, 1, ..., by sum, for each depth d a spec has asked for: the
# number of chains k >= v_1 >= ... >= v_d >= 0 with each sum, which is the
# Gaussian binomial [d + k choose d] read by powers of x.  One row list per
# depth; rows are only read, never changed.
_ROWS: dict[int, list[list[int]]] = {}

# the most counts the table holds, about 4 MB at the largest counts a request
# below MAX_TABLE_COST leads to; a depth whose rows would not fit alone streams
# them as they are built and keeps none, and one that fits in an empty table
# but not beside the rows held empties it first
_ROWS_MAX_COUNTS = 100_000


def _row_counts(depth: int, size: int) -> int:
    # P_depth(k) has depth*k + 1 counts
    return depth * size * (size - 1) // 2 + size


def _q_pascal(depth: int, size: int) -> Iterator[list[int]]:
    """P_depth(k) for k = 0..size-1; no row is changed once yielded (at depth 0 all are one [1])."""
    # chains[d] is P_d(b); before the first step b = -1, where only the empty
    # chain (d = 0) exists
    chains: list[list[int]] = [[1]] + [[] for _ in range(depth)]
    for k in range(size):
        for d in range(1, depth + 1):
            # P_d(k) = P_d(k - 1) + x^k * P_{d-1}(k): either v_1 < k or v_1 = k;
            # P_d(k - 1) is at least k long once k >= 1, and empty at k = 0
            lower, upper = chains[d], chains[d - 1]
            overlap = lower[k:]
            chains[d] = lower[:k] + [x + y for x, y in zip(overlap, upper)] + upper[len(overlap):]
        yield chains[depth]


def _chain_rows(depth: int, size: int) -> Iterable[list[int]]:
    """P_depth(k) for k = 0..size-1 at least: from the table, rebuilt when short, or streamed."""
    rows = _ROWS.get(depth)
    if rows is not None and len(rows) >= size:
        return rows
    counts = _row_counts(depth, size)
    if counts > _ROWS_MAX_COUNTS:
        return _q_pascal(depth, size)
    held = sum(_row_counts(d, len(r)) for d, r in _ROWS.items() if d != depth)
    if held + counts > _ROWS_MAX_COUNTS:
        _ROWS.clear()
    rows = _ROWS[depth] = list(_q_pascal(depth, size))
    return rows


def _count_into(counts, sign, n, alpha, beta, gamma, delta, epsilon=0) -> None:
    """Add sign times the multiplicities of S(n, alpha, beta, gamma, delta, epsilon) into counts.

    Takes a valid SimplexSpec's fields, or the empty first-coordinate range
    delta == gamma - 1, which counts nothing and reads no rows.
    """
    if delta < gamma:
        return
    # epsilon pins k' to k, which leaves a chain one coordinate shorter;
    # with one coordinate there is no k' to pin
    pinned = epsilon if n > 1 else 0
    depth = n - 1 - pinned
    # term k is x^(alpha + step*k) * P_depth(k); summed by exponent, so the
    # cost never grows with beta or alpha
    step = beta + pinned
    rows = islice(_chain_rows(depth, delta), gamma - 1, delta)
    for k, row in enumerate(rows, gamma - 1):
        for e, m in enumerate(row, alpha + step * k):
            counts[e] = counts.get(e, 0) + sign * m


def enumerate_simplex(spec: SimplexSpec) -> SignedMultiset:
    """The multiset of alpha + beta*k + k' + ... values over a spec's lattice points.

    Multiplicities are counted, not listed: the chains k >= k' >= ... >= 0
    are partitions in a box, and the number with each sum obeys the q-Pascal
    recurrence of the Gaussian binomials.  Those rows are shared per depth
    across calls, built once up to the largest delta asked for (rows too
    large for the table are streamed instead), so each call pays only its
    accumulation: one shifted row per k summed by exponent, about
    n*delta^2/2 additions whatever beta is, not the cardinality
    C(k+n-1, n-1) per k.  All multiplicities are positive.
    """
    counts: dict[int, int] = {}
    _count_into(counts, 1, spec.n, spec.alpha, spec.beta, spec.gamma, spec.delta, spec.epsilon)
    return SignedMultiset._of(counts)


class IdentityReport(namedtuple("IdentityReport", "identity params lhs rhs equal difference")):
    """Outcome of instantiating one multiset identity at concrete parameters.

    An immutable named tuple with fields ``identity`` (str), ``params``
    (tuple of int), ``lhs`` and ``rhs`` (SignedMultiset), ``equal`` (bool)
    and ``difference`` (SignedMultiset, empty when the sides are equal).
    """

    __slots__ = ()


def _mi1(n, alpha, beta, delta):
    lhs = [(n, alpha, beta, 1, delta)]
    rhs = [(n, alpha, beta, 1, delta - 1), (n, alpha, beta, delta, delta)]
    return lhs, rhs


def _mi2(n, beta, delta):
    lhs = [(n + 1, 0, beta - 1, 1, delta - 1)]
    rhs = [
        (n + 1, beta - 1, beta - 1, 1, delta - 2),
        (n + 1, 0, beta - 1, 1, delta - 1, 1),
    ]
    return lhs, rhs


def _mi3(n, beta, delta):
    lhs = [(n, 0, beta, 1, delta - 1)]
    rhs = [(n + 1, 0, beta - 1, 1, delta - 1, 1)]
    return lhs, rhs


def _mi4(n, beta, delta):
    lhs = [(n, 0, beta, delta, delta)]
    rhs = [(n, (beta - 1) * (delta - 1), 1, delta, delta)]
    return lhs, rhs


def _mi5(n, beta, delta):
    lhs = [(n + 1, beta - 1, beta - 1, delta - 1, delta - 1)]
    rhs = [(n, (beta - 1) * (delta - 1), 1, 1, delta - 1)]
    return lhs, rhs


def _mi6(n, beta, delta):
    lhs = [(n, 0, beta, 1, delta), (n + 1, beta - 1, beta - 1, 1, delta - 1)]
    rhs = [(n + 1, 0, beta - 1, 1, delta - 1), (n, (beta - 1) * (delta - 1), 1, 1, delta)]
    return lhs, rhs


# each identity's parameters with the least value of each, in the order the
# side conditions are checked, and the builder of its (lhs, rhs) term specs;
# MI1a-c are MI1 at substituted parameters
_IDENTITIES = {
    "MI1": ({"n": 1, "alpha": 0, "beta": 0, "delta": 2}, _mi1),
    "MI1a": ({"n": 1, "beta": 0, "delta": 2}, lambda n, beta, delta: _mi1(n, 0, beta, delta)),
    "MI1b": (
        {"n": 1, "beta": 1, "delta": 2},
        lambda n, beta, delta: _mi1(n + 1, beta - 1, beta - 1, delta - 1),
    ),
    "MI1c": (
        {"n": 1, "beta": 1, "delta": 2},
        lambda n, beta, delta: _mi1(n, (beta - 1) * (delta - 1), 1, delta),
    ),
    "MI2": ({"n": 1, "beta": 1, "delta": 2}, _mi2),
    "MI3": ({"n": 1, "beta": 1, "delta": 2}, _mi3),
    "MI4": ({"n": 1, "beta": 1, "delta": 1}, _mi4),
    "MI5": ({"n": 1, "beta": 1, "delta": 2}, _mi5),
    "MI6": ({"n": 1, "beta": 1, "delta": 2}, _mi6),
}

IDENTITY_NAMES = tuple(_IDENTITIES)

# ceiling on one identity instance's estimated count-table additions, the sum
# of (n * delta)^2 over its terms; every instance with n <= 9 and delta <= 12,
# which holds the benchmark and test grids, stays below 50,000
MAX_TABLE_COST = 10_000_000


def identity_param_names(identity: str) -> tuple[str, ...]:
    if identity not in _IDENTITIES:
        raise SideConditionError(f"unknown identity {identity!r}; know {', '.join(IDENTITY_NAMES)}")
    return tuple(_IDENTITIES[identity][0])


def verify_identity(identity: str, params: Sequence[int]) -> IdentityReport:
    """Instantiate both sides of a named identity and compare them exactly.

    Each side is summed from its terms' counts, never from another identity's
    report, so a bug in one identity cannot mask a bug in another.  Unequal
    sides yield a report carrying the symmetric difference as the
    counterexample.  A parameter that is not an ``int`` (``bool`` and
    ``float`` among them) is a ``TypeError``, and one below its least value a
    SideConditionError, both checked in parameter order.  An instance whose
    terms would cost more than MAX_TABLE_COST table additions is refused
    with ValueError before any term is counted.
    """
    names = identity_param_names(identity)
    if len(params) != len(names):
        raise SideConditionError(
            f"{identity} takes {len(names)} parameters ({', '.join(names)}), got {len(params)}"
        )
    least, build = _IDENTITIES[identity]
    env = dict(zip(names, params))
    for name, value in env.items():
        _require_int(name, value)
        if value < least[name]:
            raise SideConditionError(f"{identity} requires {name} >= {least[name]}; got {env}")
    lhs_terms, rhs_terms = build(**env)
    cost = sum((term[0] * term[4]) ** 2 for term in lhs_terms + rhs_terms)
    if cost > MAX_TABLE_COST:
        raise ValueError(
            f"{identity} at {tuple(params)} would take about {cost:,} count-table additions "
            f"(the sum of (n * delta)^2 over its terms); the limit is {MAX_TABLE_COST:,}"
        )
    lhs = _side(lhs_terms)
    rhs = _side(rhs_terms)
    # the difference is built only when it is not empty: a passing instance copies no dict
    equal = lhs == rhs
    diff = SignedMultiset() if equal else lhs.difference(rhs)
    return IdentityReport(identity, tuple(params), lhs, rhs, equal, diff)


def _side(plus, minus=()) -> SignedMultiset:
    """The counts of the plus terms less those of the minus terms, summed in one dict."""
    counts: dict[int, int] = {}
    for sign, terms in ((1, plus), (-1, minus)):
        for term in terms:
            _count_into(counts, sign, *term)
    return SignedMultiset._of({e: m for e, m in counts.items() if m})


def lift_duality(w: int, i: int, j: int) -> tuple[SignedMultiset, SignedMultiset]:
    """The lifting transformation between (w-1)- and w-coordinate multisets.

    Both sides pair an ordinary multiset with a negated one; their equality
    is MI6 at (n, beta, delta) = (w - 1, j - w + 1, i - w + 1) regrouped,
    each side keeping one of its own terms and taking the other side's second
    term negated, and it carries one elimination stage to the next.  w, i
    and j must be ``int`` (``TypeError`` otherwise).  The equality is
    asserted before returning; a failure would be a genuine counterexample
    and raises LiftDualityError with the difference.
    """
    for name, value in (("w", w), ("i", i), ("j", j)):
        _require_int(name, value)
    if w < 2:
        raise ValueError(f"w must be >= 2, got {w}")
    if i < w + 1 or j < w + 1:
        raise ValueError(f"i and j must be >= w + 1 = {w + 1}, got i={i}, j={j}")
    (lhs0, lhs1), (rhs0, rhs1) = _mi6(w - 1, j - w + 1, i - w + 1)
    lhs = _side([lhs0], [rhs1])
    rhs = _side([rhs0], [lhs1])
    if lhs != rhs:
        raise LiftDualityError(w, i, j, lhs.difference(rhs))
    return lhs, rhs
