"""Signed integer multisets and the simplicial multiset family.

A simplicial multiset collects the weighted L1 distances from a simplex apex
to the points of a commensurately aligned lattice; they are what the nested
eta-power sums of the elimination stages enumerate.  The multiset identities
MI1 through MI6 relate such multisets across parameters, and MI6 (the
inter-dimensional duality) is the lifting step that drives the closed-form
induction, mechanized here by ``lift_duality``.

Multiplicities may be negative, which is what makes the formal cancellation
in the lifting step expressible: ``negate`` flips multiplicities, and a
union with a negated multiset is an exact subtraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence


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


class SignedMultiset:
    """Integer multiset whose multiplicities may be negative.

    Zero multiplicities are never stored, so equality and hashing are
    structural.  The text form lists elements in ascending order with a
    ``^multiplicity`` suffix when the multiplicity is not one, e.g.
    ``{0, 2, 3, 6^2, 9}`` or ``{1^-1, 5}``.
    """

    __slots__ = ("_mult",)

    def __init__(self, elements: Iterable[int] = ()) -> None:
        mult: dict[int, int] = {}
        for e in elements:
            mult[e] = mult.get(e, 0) + 1
        self._mult = {e: m for e, m in mult.items() if m}

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "SignedMultiset":
        """Build from an element -> multiplicity mapping (zeros dropped)."""
        ms = cls.__new__(cls)
        ms._mult = {int(e): int(m) for e, m in counts.items() if m}
        return ms

    def count(self, element: int) -> int:
        return self._mult.get(element, 0)

    def items(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element, multiplicity) pairs."""
        return tuple(sorted(self._mult.items()))

    def support(self) -> tuple[int, ...]:
        """Sorted distinct elements with nonzero multiplicity."""
        return tuple(sorted(self._mult))

    def total(self) -> int:
        """Sum of multiplicities (the cardinality, for ordinary multisets)."""
        return sum(self._mult.values())

    def element_sum(self) -> int:
        """Sum of element * multiplicity; additive under union."""
        return sum(e * m for e, m in self._mult.items())

    def union(self, other: "SignedMultiset") -> "SignedMultiset":
        """Pointwise sum of multiplicities."""
        out = dict(self._mult)
        for e, m in other._mult.items():
            new = out.get(e, 0) + m
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return SignedMultiset.from_counts(out)

    def negate(self) -> "SignedMultiset":
        """Flip every multiplicity; union with the result cancels exactly."""
        return SignedMultiset.from_counts({e: -m for e, m in self._mult.items()})

    def difference(self, other: "SignedMultiset") -> "SignedMultiset":
        """self with other formally subtracted; empty iff the two are equal."""
        return self.union(other.negate())

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.items())

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


@dataclass(frozen=True)
class SimplexSpec:
    """Parameters of a simplicial multiset.

    ``n`` is the number of nested lattice coordinates; ``alpha`` an additive
    constant; ``beta`` the weight of the first coordinate ``k``, which runs
    from gamma-1 to delta-1.  The second coordinate normally runs 0..k;
    epsilon=1 pins it to exactly k, zeta=1 stops it at k-1 (an empty range
    when k=0).  Each deeper coordinate runs from 0 to its predecessor.
    """

    n: int
    alpha: int
    beta: int
    gamma: int
    delta: int
    epsilon: int = 0
    zeta: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if self.delta < 1:
            raise ValueError(f"delta must be >= 1, got {self.delta}")
        if self.gamma > self.delta:
            raise ValueError(f"gamma <= delta required, got gamma={self.gamma}, delta={self.delta}")
        if self.epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {self.epsilon}")
        if self.zeta not in (0, 1):
            raise ValueError(f"zeta must be 0 or 1, got {self.zeta}")
        if self.epsilon + self.zeta > 1:
            raise ValueError("epsilon + zeta must be at most 1")


def enumerate_simplex(spec: SimplexSpec) -> SignedMultiset:
    """Expand a spec into its multiset of alpha + beta*k + k' + ... values.

    All multiplicities are positive; the enumeration order is ascending
    lexicographic in the coordinates, but the multiset itself is order-free.
    """
    return SignedMultiset(_values(spec))


def _values(spec: SimplexSpec) -> Iterator[int]:
    for k in range(spec.gamma - 1, spec.delta):
        base = spec.alpha + spec.beta * k
        if spec.n == 1:
            yield base
            continue
        start = spec.epsilon * k
        stop = k - spec.zeta
        for kp in range(start, stop + 1):
            yield from _nested(base + kp, kp, spec.n - 2)


def _nested(acc: int, bound: int, depth: int) -> Iterator[int]:
    if depth == 0:
        yield acc
        return
    for v in range(bound + 1):
        yield from _nested(acc + v, v, depth - 1)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of instantiating one multiset identity at concrete parameters."""

    identity: str
    params: tuple[int, ...]
    lhs: SignedMultiset
    rhs: SignedMultiset
    equal: bool
    difference: SignedMultiset


def _term(n, alpha, beta, gamma, delta, epsilon=0, zeta=0) -> SignedMultiset:
    # delta == gamma - 1 means an empty first-coordinate range: the term is
    # the empty multiset (needed by MI1b/MI2 at the delta = 2 boundary)
    if delta == gamma - 1:
        return SignedMultiset()
    return enumerate_simplex(SimplexSpec(n, alpha, beta, gamma, delta, epsilon, zeta))


def _mi1(n, alpha, beta, delta):
    lhs = [(n, alpha, beta, 1, delta)]
    rhs = [(n, alpha, beta, 1, delta - 1), (n, alpha, beta, delta, delta)]
    return lhs, rhs


def _mi1a(n, beta, delta):
    lhs = [(n, 0, beta, 1, delta)]
    rhs = [(n, 0, beta, 1, delta - 1), (n, 0, beta, delta, delta)]
    return lhs, rhs


def _mi1b(n, beta, delta):
    lhs = [(n + 1, beta - 1, beta - 1, 1, delta - 1)]
    rhs = [
        (n + 1, beta - 1, beta - 1, 1, delta - 2),
        (n + 1, beta - 1, beta - 1, delta - 1, delta - 1),
    ]
    return lhs, rhs


def _mi1c(n, beta, delta):
    a = (beta - 1) * (delta - 1)
    lhs = [(n, a, 1, 1, delta)]
    rhs = [(n, a, 1, 1, delta - 1), (n, a, 1, delta, delta)]
    return lhs, rhs


def _mi2(n, beta, delta):
    lhs = [(n + 1, 0, beta - 1, 1, delta - 1)]
    rhs = [
        (n + 1, beta - 1, beta - 1, 1, delta - 2),
        (n + 1, 0, beta - 1, 1, delta - 1, 1, 0),
    ]
    return lhs, rhs


def _mi3(n, beta, delta):
    lhs = [(n, 0, beta, 1, delta - 1)]
    rhs = [(n + 1, 0, beta - 1, 1, delta - 1, 1, 0)]
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


_COND_N = ("n >= 1", lambda p: p["n"] >= 1)
_COND_ALPHA = ("alpha >= 0", lambda p: p["alpha"] >= 0)
_COND_BETA0 = ("beta >= 0", lambda p: p["beta"] >= 0)
_COND_BETA1 = ("beta >= 1", lambda p: p["beta"] >= 1)
_COND_DELTA1 = ("delta >= 1", lambda p: p["delta"] >= 1)
_COND_DELTA2 = ("delta >= 2", lambda p: p["delta"] >= 2)

_IDENTITIES = {
    "MI1": (("n", "alpha", "beta", "delta"), (_COND_N, _COND_ALPHA, _COND_BETA0, _COND_DELTA2), _mi1),
    "MI1a": (("n", "beta", "delta"), (_COND_N, _COND_BETA0, _COND_DELTA2), _mi1a),
    "MI1b": (("n", "beta", "delta"), (_COND_N, _COND_BETA1, _COND_DELTA2), _mi1b),
    "MI1c": (("n", "beta", "delta"), (_COND_N, _COND_BETA1, _COND_DELTA2), _mi1c),
    "MI2": (("n", "beta", "delta"), (_COND_N, _COND_BETA1, _COND_DELTA2), _mi2),
    "MI3": (("n", "beta", "delta"), (_COND_N, _COND_BETA1, _COND_DELTA2), _mi3),
    "MI4": (("n", "beta", "delta"), (_COND_N, _COND_BETA1, _COND_DELTA1), _mi4),
    "MI5": (("n", "beta", "delta"), (_COND_N, _COND_BETA1, _COND_DELTA2), _mi5),
    "MI6": (("n", "beta", "delta"), (_COND_N, _COND_BETA1, _COND_DELTA2), _mi6),
}

IDENTITY_NAMES = tuple(_IDENTITIES)


def identity_param_names(identity: str) -> tuple[str, ...]:
    if identity not in _IDENTITIES:
        raise SideConditionError(f"unknown identity {identity!r}; know {', '.join(IDENTITY_NAMES)}")
    return _IDENTITIES[identity][0]


def verify_identity(identity: str, params: Sequence[int]) -> IdentityReport:
    """Instantiate both sides of a named identity and compare them exactly.

    Each side is rebuilt from raw enumerations (never from another identity),
    so a bug in one identity cannot mask a bug in another.  Unequal sides
    yield a report carrying the symmetric difference as the counterexample.
    """
    names = identity_param_names(identity)
    if len(params) != len(names):
        raise SideConditionError(
            f"{identity} takes {len(names)} parameters ({', '.join(names)}), got {len(params)}"
        )
    env = dict(zip(names, params))
    _, conditions, build = _IDENTITIES[identity]
    for label, pred in conditions:
        if not pred(env):
            raise SideConditionError(f"{identity} requires {label}; got {env}")
    lhs_terms, rhs_terms = build(**env)
    lhs = _union_all(lhs_terms)
    rhs = _union_all(rhs_terms)
    diff = lhs.difference(rhs)
    return IdentityReport(identity, tuple(params), lhs, rhs, not diff, diff)


def _union_all(term_specs) -> SignedMultiset:
    out = SignedMultiset()
    for spec in term_specs:
        out = out.union(_term(*spec))
    return out


def lift_duality(w: int, i: int, j: int) -> tuple[SignedMultiset, SignedMultiset]:
    """The lifting transformation between (w-1)- and w-coordinate multisets.

    Both sides pair an ordinary multiset with a negated one; their equality
    is the regrouped form of MI6 that carries one elimination stage to the
    next.  The equality is asserted before returning; a failure would be a
    genuine counterexample and raises LiftDualityError with the difference.
    """
    if w < 2:
        raise ValueError(f"w must be >= 2, got {w}")
    if i < w + 1 or j < w + 1:
        raise ValueError(f"i and j must be >= w + 1 = {w + 1}, got i={i}, j={j}")
    lhs = _term(w - 1, 0, j - w + 1, 1, i - w + 1).union(
        _term(w - 1, (i - w) * (j - w), 1, 1, i - w + 1).negate()
    )
    rhs = _term(w, 0, j - w, 1, i - w).union(
        _term(w, j - w, j - w, 1, i - w).negate()
    )
    if lhs != rhs:
        raise LiftDualityError(w, i, j, lhs.difference(rhs))
    return lhs, rhs
