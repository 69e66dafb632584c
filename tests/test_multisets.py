"""Simplicial multiset counts, signed-multiset algebra, and the identities."""

import hashlib
import re
from fractions import Fraction
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
    to delta-1, k' from epsilon*k to k, and each deeper coordinate from 0 to
    its predecessor.  Reads only the spec's fields, so it also
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
            for kp in range(spec.epsilon * k, k + 1):
                yield from nested(base + kp, kp, spec.n - 2)

    return SignedMultiset(values())


# -- counting against the literal enumeration -----------------------------------------


def _counted_terms(monkeypatch, run):
    """Every (n, alpha, beta, gamma, delta, epsilon) term that run() counts, in call order."""
    terms = []
    real_count_into = multisets._count_into

    def recording(counts, sign, n, alpha, beta, gamma, delta, epsilon=0):
        terms.append((n, alpha, beta, gamma, delta, epsilon))
        real_count_into(counts, sign, n, alpha, beta, gamma, delta, epsilon)

    with monkeypatch.context() as patch:
        patch.setattr(multisets, "_count_into", recording)
        run()
    return terms


def _count_term(term):
    """One term counted on its own by the kernel that sums the identity sides."""
    counts = {}
    multisets._count_into(counts, 1, *term)
    return SignedMultiset.from_counts(counts)


def _run_shipped_grids():
    """The multiset --sweep grid and the verify-all lift grid, all passing."""
    for identity in IDENTITY_NAMES:
        assert cli._identity_sweep(identity)[1] == []
    for w, i, j in cli.LIFT_GRID:
        lift_duality(w, i, j)


def test_counts_equal_the_literal_enumeration_on_the_shipped_grids(monkeypatch):
    terms = set(_counted_terms(monkeypatch, _run_shipped_grids))
    fields = ("n", "alpha", "beta", "gamma", "delta", "epsilon")
    specs = {term: SimpleNamespace(**dict(zip(fields, term))) for term in terms}
    # the grids reach the pinned and the empty first-coordinate cases
    assert any(spec.epsilon for spec in specs.values())
    assert any(spec.delta == spec.gamma - 1 for spec in specs.values())
    for term, spec in specs.items():
        assert _count_term(term) == literal_simplex(spec), term


def _shipped_grid_specs(monkeypatch):
    """Every nonempty spec that the multiset --sweep and verify-all lift grids count, in call order."""
    terms = _counted_terms(monkeypatch, _run_shipped_grids)
    return [SimplexSpec(*term) for term in terms if term[4] >= term[3]]


def _depth(spec):
    return spec.n - 1 - (spec.epsilon if spec.n > 1 else 0)


def test_warm_and_cold_rows_agree_with_the_literal_enumeration(monkeypatch):
    specs = _shipped_grid_specs(monkeypatch)
    expected = [literal_simplex(spec) for spec in specs]
    depths = {_depth(spec) for spec in specs}

    monkeypatch.setattr(multisets, "_ROWS", {})
    assert [enumerate_simplex(spec) for spec in specs] == expected

    # a larger request grows every depth the grid uses, and one far past it
    monkeypatch.setattr(multisets, "_ROWS", {})
    for depth in sorted(depths) + [20]:
        enumerate_simplex(SimplexSpec(depth + 1, 0, 1, 1, 40))
    assert all(len(multisets._ROWS[depth]) >= 40 for depth in depths | {20})
    assert [enumerate_simplex(spec) for spec in specs] == expected

    monkeypatch.setattr(multisets, "_ROWS", {})
    assert [enumerate_simplex(spec) for spec in reversed(specs)] == expected[::-1]


def test_rows_too_large_for_the_table_are_streamed_or_replace_it(monkeypatch):
    specs = _shipped_grid_specs(monkeypatch)
    expected = [literal_simplex(spec) for spec in specs]
    # room for the rows of one small depth at a time: larger ones stream, and
    # a depth that fits alone empties the table first
    monkeypatch.setattr(multisets, "_ROWS_MAX_COUNTS", 40)
    monkeypatch.setattr(multisets, "_ROWS", {})
    assert [enumerate_simplex(spec) for spec in specs] == expected
    held = sum(multisets._row_counts(d, len(rows)) for d, rows in multisets._ROWS.items())
    assert 0 < held <= 40
    big = SimplexSpec(9, 3, 2, 1, 12)
    table = dict(multisets._ROWS)
    assert enumerate_simplex(big) == literal_simplex(big)
    assert multisets._ROWS == table


def test_returned_multisets_never_alias_a_cached_row(monkeypatch):
    specs = _shipped_grid_specs(monkeypatch)
    monkeypatch.setattr(multisets, "_ROWS", {})
    results = [enumerate_simplex(spec) for spec in specs]
    rows = {depth: [list(row) for row in table] for depth, table in multisets._ROWS.items()}
    row_ids = {id(row) for table in multisets._ROWS.values() for row in table}
    for result in results:
        assert id(result._mult) not in row_ids
        # change every returned count in place: the table must not see it
        for element in result._mult:
            result._mult[element] += 1000
    assert {depth: [list(row) for row in table] for depth, table in multisets._ROWS.items()} == rows
    for spec in specs[::7]:
        assert enumerate_simplex(spec) == literal_simplex(spec)


LARGE = 10**12


@pytest.mark.parametrize(
    "identity, params",
    [
        ("MI1", (1, 0, LARGE, 3)),
        ("MI1", (3, 5, LARGE, 6)),
        ("MI6", (1, LARGE, 2)),
        ("MI6", (3, LARGE, 4)),
        ("MI6", (2, LARGE, 12)),
    ],
)
def test_a_large_beta_is_counted_by_exponent(monkeypatch, identity, params):
    # the exponents span about beta*delta, the counts only n*delta^2/2: a dense
    # layout over the span would not fit in memory
    report = verify_identity(identity, params)
    assert report.equal
    assert max(element for element, _ in report.lhs.items()) >= LARGE
    for term in _counted_terms(monkeypatch, lambda: verify_identity(identity, params)):
        spec = SimplexSpec(*term)
        assert enumerate_simplex(spec) == literal_simplex(spec), term


@pytest.mark.parametrize("w, i", [(2, 3), (3, 6)])
def test_a_large_j_lift_equals_its_literal_terms(w, i):
    (lhs0, lhs1), (rhs0, rhs1) = multisets._mi6(w - 1, LARGE - w + 1, i - w + 1)
    literal = {term: literal_simplex(SimplexSpec(*term)) for term in (lhs0, lhs1, rhs0, rhs1)}
    lhs, rhs = lift_duality(w, i, LARGE)
    assert lhs == literal[lhs0].difference(literal[rhs1])
    assert rhs == literal[rhs0].difference(literal[lhs1])


def test_term_specs_are_pinned(monkeypatch):
    # sha256 prefix of every counted term, the empty ones among them, in call
    # order, of the multiset --sweep grid, the verify-all lift grid, MI6 at
    # (8, 6, 12) and MI1 at (30, 0, 1, 40)
    def run():
        _run_shipped_grids()
        verify_identity("MI6", (8, 6, 12))
        verify_identity("MI1", (30, 0, 1, 40))

    calls = _counted_terms(monkeypatch, run)
    assert all(type(x) is int for call in calls for x in call)
    assert len(calls) == 4487
    assert hashlib.sha256(repr(calls).encode()).hexdigest()[:16] == "06aeefeb73f2411d"


@pytest.mark.parametrize(
    "spec",
    [
        SimplexSpec(9, 0, 6, 1, 12),
        # the four terms of MI6 at (n, beta, delta) = (8, 6, 12)
        SimplexSpec(8, 0, 6, 1, 12),
        SimplexSpec(9, 5, 5, 1, 11),
        SimplexSpec(9, 0, 5, 1, 11),
        SimplexSpec(8, 55, 1, 1, 12),
        # k' <= k - 1 read as k = m + 1, k' <= m: the shortened second coordinate
        SimplexSpec(9, 6, 6, 1, 11),
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
                        for epsilon in (0, 1):
                            spec = SimplexSpec(n, alpha, beta, gamma, delta, epsilon)
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


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("delta", range(1, 13))
def test_cardinality_matches_simplex_lattice_count(n, delta):
    ms = enumerate_simplex(SimplexSpec(n, 0, 1, 1, delta))
    assert ms.total() == comb(delta - 1 + n, n)
    if n >= 2:
        # epsilon = 1 leaves n - 2 coordinates under k
        pinned = enumerate_simplex(SimplexSpec(n, 0, 1, 1, delta, epsilon=1))
        assert pinned.total() == sum(comb(k + n - 2, n - 2) for k in range(delta))


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
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SimplexSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        (dict(n=True, alpha=0, beta=1, gamma=1, delta=2), "n"),
        (dict(n=1, alpha=0.0, beta=1, gamma=1, delta=2), "alpha"),
        (dict(n=1, alpha=0, beta=Fraction(1), gamma=1, delta=2), "beta"),
        (dict(n=1, alpha=0, beta=1, gamma=1, delta=2.0), "delta"),
        (dict(n=2, alpha=0, beta=1, gamma=1, delta=2, epsilon=True), "epsilon"),
    ],
)
def test_spec_fields_must_be_ints(kwargs, name):
    # bool is a subclass of int, and True would pass every lower bound
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        SimplexSpec(**kwargs)


@pytest.mark.parametrize(
    "fields, error, message",
    [
        ((1, 0, 1, 1, True), TypeError, "delta must be an int, got bool"),
        ((1.0, 0, 1, 1, 2.5), TypeError, "n must be an int, got float"),
        ((2, 0, 1, 1, 2, Fraction(1)), TypeError, "epsilon must be an int, got Fraction"),
        ((0, 0, 1, 1, 1), ValueError, "n must be >= 1, got 0"),
        ((1, 0, 1, 3, 2), ValueError, "gamma <= delta required, got gamma=3, delta=2"),
        ((1, 0, 1, 1, 0), ValueError, "delta must be >= 1, got 0"),
        ((2, 0, 1, 1, 2, 2), ValueError, "epsilon must be 0 or 1, got 2"),
    ],
)
def test_enumerate_simplex_is_given_only_a_checked_spec(fields, error, message):
    # the public path checks every field, the first bad one named; the empty
    # range delta == gamma - 1 that the identity sides count is refused here
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        enumerate_simplex(SimplexSpec(*fields))


def test_every_identity_term_is_a_spec_or_the_empty_range(monkeypatch):
    # the kernel that counts the identity sides checks no field: each term the
    # identity table builds is a valid SimplexSpec or has delta == gamma - 1
    terms = []
    for least, build in multisets._IDENTITIES.values():
        lhs, rhs = build(**least)
        terms += lhs + rhs
    terms += _counted_terms(monkeypatch, _run_shipped_grids)
    assert any(term[4] == term[3] - 1 for term in terms)
    for n, alpha, beta, gamma, delta, *epsilon in terms:
        # an empty range has its other fields checked at delta = gamma
        SimplexSpec(n, alpha, beta, gamma, gamma if delta == gamma - 1 else delta, *epsilon)


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
    assert FIG1.items() == ((0, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 2), (7, 1), (8, 1), (9, 1))
    assert FIG1.total() == 10


counts = st.dictionaries(st.integers(-20, 20), st.integers(-5, 5), max_size=12)


@given(counts, counts, counts)
def test_union_commutes_and_associates(a, b, c):
    ma, mb, mc = (SignedMultiset.from_counts(x) for x in (a, b, c))
    assert ma.union(mb) == mb.union(ma)
    assert ma.union(mb).union(mc) == ma.union(mb.union(mc))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SignedMultiset.from_counts({1.5: 1, 2: 0.9}),
        lambda: SignedMultiset.from_counts({1: 0.9}),
        lambda: SignedMultiset.from_counts({2.0: 1}),
        lambda: SignedMultiset.from_counts({True: 1}),
        lambda: SignedMultiset.from_counts({1: True}),
        lambda: SignedMultiset.from_counts({Fraction(1): 1}),
        lambda: SignedMultiset.from_counts({1: Fraction(2)}),
        lambda: SignedMultiset([1.5]),
        lambda: SignedMultiset([1, 1.0]),
        lambda: SignedMultiset([False]),
        lambda: SignedMultiset([Fraction(3)]),
    ],
    ids=["float-both", "float-multiplicity", "integral-float", "bool-element",
         "bool-multiplicity", "fraction-element", "fraction-multiplicity", "float-element",
         "float-after-int", "bool-in-list", "fraction-in-list"],
)
def test_non_int_elements_and_multiplicities_raise_type_error(build):
    with pytest.raises(TypeError, match="int element or multiplicity expected"):
        build()


def test_union_and_negate_keep_ints_and_drop_zeros():
    a = SignedMultiset.from_counts({1: 2, 3: -1, 4: 0})
    assert a.items() == ((1, 2), (3, -1))
    for result in (a.union(a.negate()), a.negate(), a.union(a)):
        assert all(type(e) is int and type(m) is int and m for e, m in result.items())
    assert a.union(a.negate()) == SignedMultiset()


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


@pytest.fixture
def forbid_counting(monkeypatch):
    """Make counting any term an error, so a refusal is seen to come first."""

    def no_work(counts, sign, *term):
        raise AssertionError(f"counted {term}")

    monkeypatch.setattr(multisets, "_count_into", no_work)


@pytest.mark.parametrize(
    "identity, params, name",
    [
        ("MI1", (True, 0, 1, 2), "n"),
        ("MI1", (1, 0, 1, 2.5), "delta"),
        ("MI1", (1, False, 1, 2), "alpha"),
        ("MI1a", (1, 0, 2.0), "delta"),
        ("MI6", (2, 4.0, 4), "beta"),
        ("MI4", (Fraction(2), 3, 4), "n"),
    ],
)
def test_identity_params_must_be_ints(forbid_counting, identity, params, name):
    with pytest.raises(TypeError, match=f"{name} must be an int"):
        verify_identity(identity, params)


def _mi1_at(identity, n, beta, delta):
    """The MI1 parameters (n, alpha, beta, delta) that MI1a, MI1b or MI1c substitutes."""
    return {
        "MI1a": (n, 0, beta, delta),
        "MI1b": (n + 1, beta - 1, beta - 1, delta - 1),
        "MI1c": (n, (beta - 1) * (delta - 1), 1, delta),
    }[identity]


@pytest.mark.parametrize("identity", ["MI1a", "MI1b", "MI1c"])
def test_mi1_variants_are_mi1_at_substituted_parameters(identity):
    # the multiset --sweep grid of the three-parameter identities
    for n in range(1, 5):
        for beta in range(1, 7):
            for delta in range(2, 7):
                report = verify_identity(identity, (n, beta, delta))
                mi1_params = _mi1_at(identity, n, beta, delta)
                if mi1_params[3] < 2:
                    # MI1b at delta = 2 is MI1 at delta = 1, below MI1's side
                    # condition: both sides are the one face k = 0
                    face = enumerate_simplex(SimplexSpec(*mi1_params[:3], 1, 1))
                    assert report.lhs == report.rhs == face
                    continue
                mi1 = verify_identity("MI1", mi1_params)
                assert (report.lhs, report.rhs) == (mi1.lhs, mi1.rhs), (n, beta, delta)


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


@pytest.mark.parametrize("w, i, j", [(2, 3.0, 3), (True, 3, 3), (2, 3, True), (2.0, 4, 4)])
def test_lift_duality_refuses_non_int_indices(forbid_counting, w, i, j):
    with pytest.raises(TypeError, match="must be an int"):
        lift_duality(w, i, j)


def test_lift_duality_is_mi6_regrouped():
    # the lift's (w, i, j) is MI6 at (n, beta, delta) = (w - 1, j - w + 1, i - w + 1):
    # each lift side differs from an MI6 side by the same pair of terms
    for w, i, j in cli.LIFT_GRID:
        lhs, rhs = lift_duality(w, i, j)
        mi6 = verify_identity("MI6", (w - 1, j - w + 1, i - w + 1))
        lhs1 = enumerate_simplex(SimplexSpec(w, j - w, j - w, 1, i - w))
        rhs1 = enumerate_simplex(SimplexSpec(w - 1, (j - w) * (i - w), 1, 1, i - w + 1))
        assert lhs.union(lhs1).union(rhs1) == mi6.lhs, (w, i, j)
        assert rhs.union(rhs1).union(lhs1) == mi6.rhs, (w, i, j)


def test_lift_duality_small_grid():
    for w in (2, 3):
        for i in range(w + 1, w + 4):
            for j in range(w + 1, w + 4):
                lhs, rhs = lift_duality(w, i, j)
                assert lhs == rhs


def test_lift_duality_error_carries_difference():
    err = LiftDualityError(2, 3, 3, SignedMultiset.from_counts({7: 1}))
    assert err.w == 2 and "7" in str(err)


def test_lift_duality_raises_on_a_planted_fault(monkeypatch):
    # MI6 with its first term shifted by one: the regrouped sides no longer agree
    real = multisets._mi6

    def shifted(n, beta, delta):
        ((n0, alpha0, *rest0), lhs1), rhs = real(n, beta, delta)
        return [(n0, alpha0 + 1, *rest0), lhs1], rhs

    monkeypatch.setattr(multisets, "_mi6", shifted)
    (lhs0, lhs1), (rhs0, rhs1) = shifted(1, 2, 2)  # (w, i, j) = (2, 3, 3)

    def side(plus, minus):
        return enumerate_simplex(SimplexSpec(*plus)).difference(enumerate_simplex(SimplexSpec(*minus)))

    lhs, rhs = side(lhs0, rhs1), side(rhs0, lhs1)
    with pytest.raises(LiftDualityError, match=r"w=2, i=3, j=3") as caught:
        lift_duality(2, 3, 3)
    err = caught.value
    assert (err.w, err.i, err.j) == (2, 3, 3)
    assert err.difference == lhs.difference(rhs)
    assert err.difference
