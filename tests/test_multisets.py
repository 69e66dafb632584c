"""Simplicial multiset counts, signed-multiset algebra, and the identities."""

from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from gaussdet import cli, multisets
from gaussdet.multisets import (
    IDENTITY_NAMES,
    LiftDualityError,
    SideConditionError,
    SignedMultiset,
    SimplexSpec,
    enumerate_simplex,
    identity_param_names,
    lift_duality,
    verify_identity,
)


def mset(*elements):
    return SignedMultiset(elements)


FIG1 = mset(0, 2, 3, 4, 5, 6, 6, 7, 8, 9)


def literal_simplex(spec):
    """The simplicial multiset listed one lattice point at a time.

    The reference for the counted ``enumerate_simplex``: k runs from gamma-1
    to delta-1, k' over its epsilon/zeta range, and each deeper coordinate
    from 0 to its predecessor.  Reads only the spec's fields, so it also
    takes the empty range delta = gamma - 1 that SimplexSpec refuses.
    """

    def nested(acc, bound, depth):
        if depth == 0:
            yield acc
            return
        for v in range(bound + 1):
            yield from nested(acc + v, v, depth - 1)

    def values():
        for k in range(spec.gamma - 1, spec.delta):
            base = spec.alpha + spec.beta * k
            if spec.n == 1:
                yield base
                continue
            for kp in range(spec.epsilon * k, k - spec.zeta + 1):
                yield from nested(base + kp, kp, spec.n - 2)

    return SignedMultiset(values())


# -- counting against the literal enumeration -----------------------------------------


def test_counts_equal_the_literal_enumeration_on_the_shipped_grids(monkeypatch):
    terms = set()
    real_term = multisets._term

    def recording(n, alpha, beta, gamma, delta, epsilon=0, zeta=0):
        terms.add((n, alpha, beta, gamma, delta, epsilon, zeta))
        return real_term(n, alpha, beta, gamma, delta, epsilon, zeta)

    monkeypatch.setattr(multisets, "_term", recording)
    for identity in IDENTITY_NAMES:
        assert cli._identity_sweep(identity)[1] == []
    for w, i, j in cli.LIFT_GRID:
        lift_duality(w, i, j)
    fields = ("n", "alpha", "beta", "gamma", "delta", "epsilon", "zeta")
    specs = {term: SimpleNamespace(**dict(zip(fields, term))) for term in terms}
    # the grids reach the pinned and the empty first-coordinate cases; no
    # identity uses zeta = 1, which the exhaustive small grid below covers
    assert any(spec.epsilon for spec in specs.values())
    assert any(spec.delta == spec.gamma - 1 for spec in specs.values())
    for term, spec in specs.items():
        assert real_term(*term) == literal_simplex(spec), term


@pytest.mark.parametrize(
    "spec",
    [
        SimplexSpec(9, 0, 6, 1, 12),
        # the four terms of MI6 at (n, beta, delta) = (8, 6, 12)
        SimplexSpec(8, 0, 6, 1, 12),
        SimplexSpec(9, 5, 5, 1, 11),
        SimplexSpec(9, 0, 5, 1, 11),
        SimplexSpec(8, 55, 1, 1, 12),
        SimplexSpec(9, 0, 6, 1, 12, zeta=1),
        SimplexSpec(9, 3, 2, 5, 12, epsilon=1),
    ],
)
def test_counts_equal_the_literal_enumeration_on_large_specs(spec):
    assert enumerate_simplex(spec) == literal_simplex(spec)


def test_counts_equal_the_literal_enumeration_on_every_small_spec():
    for n in range(1, 6):
        for alpha in (0, 2):
            for beta in range(4):
                for delta in range(1, 6):
                    for gamma in range(1, delta + 1):
                        for epsilon, zeta in ((0, 0), (1, 0), (0, 1)):
                            spec = SimplexSpec(n, alpha, beta, gamma, delta, epsilon, zeta)
                            assert enumerate_simplex(spec) == literal_simplex(spec), spec


# -- enumeration ----------------------------------------------------------------


def test_enumerate_rectangular_lattice_over_triangle():
    assert enumerate_simplex(SimplexSpec(2, 0, 2, 1, 4)) == FIG1


def test_enumerate_weight_four_example():
    expected = mset(0, 4, 5, 8, 9, 10, 12, 13, 14, 15)
    assert enumerate_simplex(SimplexSpec(2, 0, 4, 1, 4)) == expected


def test_enumerate_one_coordinate():
    assert enumerate_simplex(SimplexSpec(1, 5, 3, 1, 3)) == mset(5, 8, 11)


def test_enumerate_three_coordinates():
    expected = mset(3, 6, 7, 8, 9, 10, 11, 11, 12, 13)
    assert enumerate_simplex(SimplexSpec(3, 3, 3, 1, 3)) == expected


def test_enumerate_pinned_second_coordinate():
    # epsilon = 1 pins k' to k, so n=2 collapses to beta+1 times the first coordinate
    assert enumerate_simplex(SimplexSpec(2, 0, 3, 1, 3, epsilon=1)) == mset(0, 4, 8)


def test_enumerate_zeta_shortens_second_coordinate():
    # zeta = 1: k' runs 0..k-1, empty at k = 0
    assert enumerate_simplex(SimplexSpec(2, 0, 3, 1, 3, zeta=1)) == mset(3, 6, 7)


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("delta", range(1, 13))
def test_cardinality_matches_simplex_lattice_count(n, delta):
    ms = enumerate_simplex(SimplexSpec(n, 0, 1, 1, delta))
    assert ms.total() == comb(delta - 1 + n, n)
    if n >= 2:
        # epsilon = 1 leaves n - 2 coordinates under k; zeta = 1 bounds n - 1 by k - 1
        pinned = enumerate_simplex(SimplexSpec(n, 0, 1, 1, delta, epsilon=1))
        assert pinned.total() == sum(comb(k + n - 2, n - 2) for k in range(delta))
        shortened = enumerate_simplex(SimplexSpec(n, 0, 1, 1, delta, zeta=1))
        assert shortened.total() == sum(comb(k + n - 2, n - 1) for k in range(delta))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=0, alpha=0, beta=1, gamma=1, delta=1),
        dict(n=1, alpha=-1, beta=1, gamma=1, delta=1),
        dict(n=1, alpha=0, beta=-2, gamma=1, delta=1),
        dict(n=1, alpha=0, beta=1, gamma=0, delta=1),
        dict(n=1, alpha=0, beta=1, gamma=3, delta=2),
        dict(n=1, alpha=0, beta=1, gamma=1, delta=0),
        dict(n=1, alpha=0, beta=1, gamma=1, delta=1, epsilon=2),
        dict(n=1, alpha=0, beta=1, gamma=1, delta=1, epsilon=1, zeta=1),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SimplexSpec(**kwargs)


# -- signed multiset algebra -----------------------------------------------------


def test_union_adds_multiplicities():
    assert mset(0, 2).union(mset(2, 3)) == mset(0, 2, 2, 3)


def test_union_with_empty_is_identity():
    assert mset(0).union(SignedMultiset()) == mset(0)


def test_union_cancels_opposite_multiplicities():
    a = SignedMultiset.from_counts({1: 1})
    b = SignedMultiset.from_counts({1: -1})
    assert not a.union(b)
    assert a.union(b) == SignedMultiset()


def test_negate_flips_multiplicities():
    assert mset(0, 2).negate() == SignedMultiset.from_counts({0: -1, 2: -1})
    assert SignedMultiset().negate() == SignedMultiset()
    assert SignedMultiset.from_counts({5: -2}).negate() == SignedMultiset.from_counts({5: 2})


def test_union_with_negation_cancels_exactly():
    ms = enumerate_simplex(SimplexSpec(3, 1, 2, 1, 4))
    assert not ms.union(ms.negate())


def test_counts_and_support():
    assert FIG1.count(6) == 2
    assert FIG1.count(1) == 0
    assert FIG1.support() == (0, 2, 3, 4, 5, 6, 7, 8, 9)
    assert FIG1.total() == 10
    assert FIG1.element_sum() == 0 + 2 + 3 + 4 + 5 + 6 + 6 + 7 + 8 + 9


counts = st.dictionaries(st.integers(-20, 20), st.integers(-5, 5), max_size=12)


@given(counts, counts)
def test_element_sum_additive_under_union(a, b):
    ma, mb = SignedMultiset.from_counts(a), SignedMultiset.from_counts(b)
    assert ma.union(mb).element_sum() == ma.element_sum() + mb.element_sum()


@given(counts, counts, counts)
def test_union_commutes_and_associates(a, b, c):
    ma, mb, mc = (SignedMultiset.from_counts(x) for x in (a, b, c))
    assert ma.union(mb) == mb.union(ma)
    assert ma.union(mb).union(mc) == ma.union(mb.union(mc))


def test_rendering_golden():
    assert str(mset(0, 2, 3, 6, 6, 9)) == "{0, 2, 3, 6^2, 9}"
    assert str(SignedMultiset.from_counts({1: -1, 5: 1})) == "{1^-1, 5}"
    assert str(SignedMultiset()) == "{}"


# -- identities -------------------------------------------------------------------


def test_mi6_worked_example():
    report = verify_identity("MI6", (2, 4, 4))
    assert report.equal
    expected = SignedMultiset.from_counts(
        {0: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 2, 9: 2, 10: 2, 11: 2, 12: 2, 13: 2, 14: 1, 15: 1}
    )
    assert report.lhs == expected
    assert report.rhs == expected


def test_mi6_component_multisets_verbatim():
    # the four multisets displayed in the worked (n, beta, delta) = (2, 4, 4) instance
    assert enumerate_simplex(SimplexSpec(2, 0, 4, 1, 4)) == mset(0, 4, 5, 8, 9, 10, 12, 13, 14, 15)
    assert enumerate_simplex(SimplexSpec(3, 3, 3, 1, 3)) == mset(3, 6, 7, 8, 9, 10, 11, 11, 12, 13)
    assert enumerate_simplex(SimplexSpec(3, 0, 3, 1, 3)) == mset(0, 3, 4, 5, 6, 7, 8, 8, 9, 10)
    assert enumerate_simplex(SimplexSpec(2, 9, 1, 1, 4)) == mset(9, 10, 11, 11, 12, 13, 12, 13, 14, 15)


def test_mi3_worked_example():
    report = verify_identity("MI3", (2, 4, 4))
    assert report.equal
    assert report.lhs == mset(0, 4, 5, 8, 9, 10)


def test_mi1_splits_off_the_last_face():
    report = verify_identity("MI1", (2, 0, 2, 4))
    assert report.equal
    assert report.lhs == FIG1
    # the two slices: first-coordinate range 0..2, then exactly 3
    assert enumerate_simplex(SimplexSpec(2, 0, 2, 1, 3)) == mset(0, 2, 3, 4, 5, 6)
    assert enumerate_simplex(SimplexSpec(2, 0, 2, 4, 4)) == mset(6, 7, 8, 9)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("beta", [0, 1, 3])
@pytest.mark.parametrize("delta", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0, 2])
def test_mi1_decomposition_is_exhaustive_and_exclusive(n, alpha, beta, delta):
    report = verify_identity("MI1", (n, alpha, beta, delta))
    assert report.equal
    body = enumerate_simplex(SimplexSpec(n, alpha, beta, 1, delta - 1))
    face = enumerate_simplex(SimplexSpec(n, alpha, beta, delta, delta))
    assert body.total() + face.total() == report.lhs.total()


def test_report_carries_counterexample_structure():
    report = verify_identity("MI4", (2, 3, 4))
    assert report.equal
    assert not report.difference
    assert report.params == (2, 3, 4)


def test_identity_param_names():
    assert identity_param_names("MI1") == ("n", "alpha", "beta", "delta")
    assert identity_param_names("MI6") == ("n", "beta", "delta")
    with pytest.raises(SideConditionError):
        identity_param_names("MI7")


def test_side_condition_violation_is_named():
    with pytest.raises(SideConditionError, match="delta >= 2"):
        verify_identity("MI2", (1, 1, 1))
    with pytest.raises(SideConditionError, match="beta >= 1"):
        verify_identity("MI6", (2, 0, 4))
    with pytest.raises(SideConditionError, match="n >= 1"):
        verify_identity("MI3", (0, 2, 3))


def test_wrong_parameter_count_is_rejected():
    with pytest.raises(SideConditionError, match="4 parameters"):
        verify_identity("MI1", (2, 4, 4))
    with pytest.raises(SideConditionError, match="3 parameters"):
        verify_identity("MI5", (2, 0, 4, 4))


def test_boundary_delta_two_instances():
    # MI1b and MI2 at delta = 2 exercise the empty first-coordinate range
    assert verify_identity("MI1b", (2, 3, 2)).equal
    assert verify_identity("MI2", (2, 3, 2)).equal


@pytest.mark.parametrize("identity", IDENTITY_NAMES)
def test_identities_on_small_grid(identity):
    names = identity_param_names(identity)
    for n in (1, 2, 3):
        for beta in (1, 2, 4):
            for delta in (2, 3, 4):
                if "alpha" in names:
                    for alpha in (0, 1, 3):
                        assert verify_identity(identity, (n, alpha, beta, delta)).equal
                else:
                    assert verify_identity(identity, (n, beta, delta)).equal


# -- lifting transformation --------------------------------------------------------


def test_lift_duality_smallest_case():
    lhs, rhs = lift_duality(2, 3, 3)
    assert lhs == rhs == SignedMultiset.from_counts({0: 1, 1: -1})


def test_lift_duality_symmetric_case():
    lhs, rhs = lift_duality(2, 4, 4)
    assert lhs == rhs == SignedMultiset.from_counts({0: 1, 3: 1, 4: -1, 5: -1})


def test_lift_duality_three_coordinates():
    lhs, rhs = lift_duality(3, 5, 5)
    assert lhs == rhs == SignedMultiset.from_counts({0: 1, 3: 1, 5: -1, 6: -1})


def test_lift_duality_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        lift_duality(1, 3, 3)
    with pytest.raises(ValueError):
        lift_duality(2, 2, 3)
    with pytest.raises(ValueError):
        lift_duality(2, 3, 2)


def test_lift_duality_small_grid():
    for w in (2, 3):
        for i in range(w + 1, w + 4):
            for j in range(w + 1, w + 4):
                lhs, rhs = lift_duality(w, i, j)
                assert lhs == rhs


def test_lift_duality_error_carries_difference():
    err = LiftDualityError(2, 3, 3, SignedMultiset.from_counts({7: 1}))
    assert err.w == 2 and "7" in str(err)
