"""Acceptance suite: the eight exit criteria, one test each, all exact.

Every comparison is exact equality of rationals, polynomials, or multisets;
no tolerances appear anywhere.  Each test prints a single pass/fail line
(run with ``pytest -s`` to see them on success).
"""

import json
import time
from fractions import Fraction
from functools import lru_cache
from math import comb

from gaussdet import cli
from gaussdet.closedform import (
    ai1_grid_holds,
    ai2_grid_holds,
    factored_determinant,
    series_determinant,
    superfactorial,
    verify_closed_form,
)
from gaussdet.multisets import (
    IDENTITY_NAMES,
    SignedMultiset,
    SimplexSpec,
    enumerate_simplex,
    identity_param_names,
    lift_duality,
    verify_identity,
)
from gaussdet.neville import brute_force_det, diagonal_product, neville_eliminate
from gaussdet.tpprobe import MinorIndex, all_minors_positive

TP_ETAS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


@lru_cache(maxsize=None)
def symbolic_trace(n):
    return tuple(neville_eliminate(n))


def report(name, ok, extra=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{extra}")
    assert ok, name


def test_criterion_1_closed_form_u_matches_every_stage():
    started = time.perf_counter()
    ok = True
    for n in range(1, 11):
        result = verify_closed_form(n, blocks=symbolic_trace(n))
        ok = ok and result.agree and result.entries_checked == n ** 3
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    report("1 closed-form U, n=1..10", ok, f" ({elapsed:.2f}s)")


def test_criterion_2_determinant_factorization_three_way():
    ok = True
    for n in range(1, 11):
        expansion = factored_determinant(n).expand()
        ok = ok and diagonal_product(symbolic_trace(n)) == expansion
        if n <= 6:
            points = range(1, n + 1)
            ok = ok and brute_force_det(MinorIndex(points, points)) == expansion
    ok = ok and str(factored_determinant(3).expand()) == "1 - 2*eta^2 + 2*eta^6 - eta^8"
    report("2 determinant factorization (3-way n<=6, 2-way n<=10)", ok)


def test_criterion_3_leading_term_series_oracle():
    ok = True
    for n in range(2, 9):
        target = n * (n - 1) // 2
        series = series_determinant(n, target)
        ok = ok and all(series[m] == 0 for m in range(target))
        ok = ok and series[target] == superfactorial(n - 1) * 2 ** target
    ok = ok and series_determinant(4, 6)[6] == 768
    report("3 leading term via series product, n=2..8", ok)


def test_criterion_4_multiset_identities_on_the_full_grid():
    started = time.perf_counter()
    instances = 0
    ok = True
    for identity in IDENTITY_NAMES:
        with_alpha = "alpha" in identity_param_names(identity)
        for n in range(1, 5):
            for beta in range(1, 7):
                for delta in range(2, 7):
                    if with_alpha:
                        for alpha in range(0, 4):
                            ok = ok and verify_identity(identity, (n, alpha, beta, delta)).equal
                            instances += 1
                    else:
                        ok = ok and verify_identity(identity, (n, beta, delta)).equal
                        instances += 1
    elapsed = time.perf_counter() - started

    # the worked MI6 instance reproduces the four displayed multisets verbatim
    displayed = [
        (SimplexSpec(2, 0, 4, 1, 4), SignedMultiset([0, 4, 5, 8, 9, 10, 12, 13, 14, 15])),
        (SimplexSpec(3, 3, 3, 1, 3), SignedMultiset([3, 6, 7, 8, 9, 10, 11, 11, 12, 13])),
        (SimplexSpec(3, 0, 3, 1, 3), SignedMultiset([0, 3, 4, 5, 6, 7, 8, 8, 9, 10])),
        (SimplexSpec(2, 9, 1, 1, 4), SignedMultiset([9, 10, 11, 11, 12, 13, 12, 13, 14, 15])),
    ]
    for spec, expected in displayed:
        ok = ok and enumerate_simplex(spec) == expected
    ok = ok and verify_identity("MI6", (2, 4, 4)).equal

    ok = ok and elapsed < 10.0
    report("4 identities MI1..MI6 on the grid", ok, f" ({instances} instances, {elapsed:.2f}s)")


def test_criterion_5_lift_duality_grid():
    ok = True
    count = 0
    for w in range(2, 6):
        for i in range(w + 1, w + 6):
            for j in range(w + 1, w + 6):
                lhs, rhs = lift_duality(w, i, j)
                ok = ok and lhs == rhs
                count += 1
    report("5 lifting duality, w=2..5", ok, f" ({count} instances)")


def test_criterion_6_all_minors_positive():
    started = time.perf_counter()
    ok = True
    for n in range(1, 8):
        expected_count = sum(comb(n, k) ** 2 for k in range(1, n + 1))
        for eta in TP_ETAS:
            result = all_minors_positive(n, eta)
            ok = ok and result.all_positive and result.minors_checked == expected_count
    elapsed = time.perf_counter() - started
    ok = ok and expected_count == 3431  # n = 7
    ok = ok and elapsed < 120.0
    report("6 strict positivity of all minors, n<=7", ok, f" ({elapsed:.2f}s)")


def test_criterion_7_algebraic_identities():
    ok = ai1_grid_holds() and ai2_grid_holds()
    report("7 AI1 grid and AI2 symbolic", ok)


def test_criterion_8_verify_all_is_deterministic(capsys):
    payloads = []
    codes = []
    for _ in range(2):
        codes.append(cli.main(["verify-all", "--format", "json"]))
        parsed = json.loads(capsys.readouterr().out)
        parsed.pop("elapsed_ms")
        payloads.append(json.dumps(parsed, sort_keys=True))
    ok = codes == [0, 0] and payloads[0] == payloads[1]
    with capsys.disabled():
        report("8 verify-all JSON determinism", ok)
