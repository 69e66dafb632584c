"""Subcommand behavior, exit codes, JSON schema, and output determinism."""

import hashlib
import json
import math
import re
from fractions import Fraction

import pytest

from gaussdet import cli, closedform, multisets, tpprobe


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def run_json(run, *argv):
    code, out, _ = run(*argv, "--format", "json")
    return code, json.loads(out)


# -- verify-u ---------------------------------------------------------------------


def test_verify_u_passes(run):
    code, report = run_json(run, "verify-u", "--n", "5")
    assert code == 0
    assert report["outcome"] == "pass"
    assert report["command"] == "verify-u"
    assert report["details"]["n"] == 5
    assert report["details"]["agree"] is True
    assert report["details"]["entries_checked"] == 125


def test_verify_u_single_point_is_vacuously_true(run):
    code, report = run_json(run, "verify-u", "--n", "1")
    assert code == 0
    assert report["details"]["entries_checked"] == 1


def test_verify_u_rejects_zero(run):
    code, out, err = run("verify-u", "--n", "0")
    assert code == 2
    assert "n" in err


def test_verify_u_requires_n_or_sweep(run):
    code, _, err = run("verify-u")
    assert code == 2
    assert "--n" in err


def test_verify_u_sweep(run):
    code, report = run_json(run, "verify-u", "--sweep")
    assert code == 0
    ns = [entry["n"] for entry in report["details"]["results"]]
    assert ns == list(range(1, 11))
    assert all(entry["agree"] for entry in report["details"]["results"])


# -- verify-det --------------------------------------------------------------------


def test_verify_det_three_points(run):
    code, report = run_json(run, "verify-det", "--n", "3")
    assert code == 0
    details = report["details"]
    assert details["factored"] == "h1^2 * h2"
    assert details["expansion"] == "1 - 2*eta^2 + 2*eta^6 - eta^8"
    assert details["diagonal_matches"] is True
    assert details["oracle_checked"] is True
    assert details["oracle_matches"] is True


def test_verify_det_single_point(run):
    code, report = run_json(run, "verify-det", "--n", "1")
    assert code == 0
    assert report["details"]["factored"] == "1"
    assert report["details"]["expansion"] == "1"


def test_verify_det_at_oracle_bound(run):
    code, report = run_json(run, "verify-det", "--n", "6")
    assert code == 0
    assert report["details"]["oracle_checked"] is True
    assert report["details"]["oracle_matches"] is True


def test_verify_det_beyond_oracle_bound_still_two_way(run):
    code, report = run_json(run, "verify-det", "--n", "7")
    assert code == 0
    assert report["details"]["oracle_checked"] is False
    assert "oracle_matches" not in report["details"]
    assert report["details"]["diagonal_matches"] is True


@pytest.mark.parametrize(
    "argv, n",
    [
        (("verify-det", "--n", "12", "--oracle-bound", "12"), 12),
        (("verify-det", "--sweep", "--oracle-bound", "9"), 9),
        (("verify-all", "--oracle-bound", "10"), 10),
    ],
)
def test_oversized_leibniz_oracle_is_refused_before_work(run, argv, n):
    code, report = run_json(run, *argv)
    assert code == 2
    assert report["outcome"] == "error"
    error = report["details"]["error"]
    assert f"{n}! = {math.factorial(n):,}" in error
    assert report["elapsed_ms"] < 1000


def test_oracle_bound_above_the_cap_is_fine_when_n_is_small(run):
    code, report = run_json(run, "verify-det", "--n", "3", "--oracle-bound", "12")
    assert code == 0
    assert report["details"]["oracle_matches"] is True


def test_oracle_bound_is_clamped_by_the_sweep_cap(run, monkeypatch):
    monkeypatch.setenv("GAUSSDET_MAX_N", "4")
    code, report = run_json(run, "verify-det", "--sweep", "--oracle-bound", "12")
    assert code == 0
    assert [r["oracle_checked"] for r in report["details"]["results"]] == [True] * 4


# -- leading-term ------------------------------------------------------------------


def test_leading_term_four_points(run):
    code, report = run_json(run, "leading-term", "--n", "4")
    assert code == 0
    details = report["details"]
    assert details["closed_form"] == "768 * theta^6 * delta^12"
    assert details["series_matches"] is True
    assert details["series_leading_coefficient"] == "768"


def test_leading_term_two_points(run):
    code, report = run_json(run, "leading-term", "--n", "2")
    assert code == 0
    assert report["details"]["closed_form"] == "2 * theta^1 * delta^2"


def test_leading_term_rejects_one_point(run):
    code, _, err = run("leading-term", "--n", "1")
    assert code == 2
    assert "n" in err


@pytest.mark.parametrize(
    "power, value, message",
    [
        (5, Fraction(1, 7), "series has unexpected coefficient 1/7 at t^5"),
        (6, Fraction(769), "series leading coefficient 769 != 768"),
    ],
    ids=["below-leading", "at-leading"],
)
def test_series_oracle_fails_closed(run, monkeypatch, power, value, message):
    # n = 4: the series must vanish below t^6 and read SF(3) * 2^6 = 768 there
    real = closedform.series_determinant

    def tampered(n, order):
        series = list(real(n, order))
        series[power] = value
        return tuple(series)

    monkeypatch.setattr(closedform, "series_determinant", tampered)
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        closedform.leading_term(4)
    code, report = run_json(run, "leading-term", "--n", "4")
    assert code == 1
    assert report["outcome"] == "fail"
    assert report["details"] == {"n": 4, "error": message}


# -- multiset ----------------------------------------------------------------------


def test_multiset_mi6_worked_example(run):
    code, report = run_json(run, "multiset", "--identity", "MI6", "--params", "2,4,4")
    assert code == 0
    details = report["details"]
    assert details["equal"] is True
    assert details["lhs"] == details["rhs"]
    assert details["lhs"] == (
        "{0, 3, 4, 5, 6, 7, 8^2, 9^2, 10^2, 11^2, 12^2, 13^2, 14, 15}"
    )


def test_multiset_side_condition_violation(run):
    code, out, err = run("multiset", "--identity", "MI2", "--params", "1,1,1")
    assert code == 2
    assert "delta >= 2" in err


def test_multiset_unknown_identity_is_usage_error(run):
    code, _, err = run("multiset", "--identity", "MI9", "--params", "1,2,3")
    assert code == 2


def test_multiset_bad_params_is_usage_error(run):
    code, _, err = run("multiset", "--identity", "MI6", "--params", "2,x,4")
    assert code == 2


def test_multiset_requires_identity_and_params(run):
    assert run("multiset")[0] == 2
    assert run("multiset", "--identity", "MI6")[0] == 2


def test_multiset_sweep_runs_the_full_grid(run):
    code, report = run_json(run, "multiset", "--sweep")
    assert code == 0
    details = report["details"]
    assert details["per_identity"]["MI1"] == 4 * 4 * 6 * 5
    assert details["per_identity"]["MI6"] == 4 * 6 * 5
    assert details["instances"] == 480 + 8 * 120
    assert details["failures"] == []


def test_multiset_above_the_limit_is_refused_before_work(run, monkeypatch):
    def no_work(spec):
        raise AssertionError("a term was counted")

    monkeypatch.setattr(multisets, "enumerate_simplex", no_work)
    code, report = run_json(run, "multiset", "--identity", "MI1", "--params", "100,0,1,100")
    assert code == 2
    assert report["outcome"] == "error"
    # terms (100, 0, 1, 1, 100), (100, 0, 1, 1, 99), (100, 0, 1, 100, 100)
    cost = 10_000 ** 2 + 9_900 ** 2 + 10_000 ** 2
    assert report["details"]["error"] == (
        f"MI1 at (100, 0, 1, 100) would take about {cost:,} count-table additions "
        "(the sum of (n * delta)^2 over its terms); the limit is 10,000,000"
    )


def test_multiset_below_the_limit_runs(run):
    # 4,320,000 estimated additions over three terms; listing them would take ~10^19 elements
    code, report = run_json(run, "multiset", "--identity", "MI1", "--params", "30,0,1,40")
    assert code == 0
    assert report["details"]["equal"] is True


# -- tp-check ----------------------------------------------------------------------


def test_tp_check_three_points(run):
    code, report = run_json(run, "tp-check", "--n", "3", "--eta", "1/2")
    assert code == 0
    details = report["details"]
    assert details["minors_checked"] == 19
    assert details["all_positive"] is True
    assert details["min_minor"] == {"rows": [1], "cols": [3], "value": "1/16"}


def test_tp_check_validates_eta(run):
    assert run("tp-check", "--n", "3", "--eta", "3/2")[0] == 2
    assert run("tp-check", "--n", "3", "--eta", "0")[0] == 2
    assert run("tp-check", "--n", "3", "--eta", "abc")[0] == 2
    assert run("tp-check", "--n", "3")[0] == 2


def test_tp_check_above_the_limit_is_refused_before_work(run, monkeypatch):
    def no_work(matrix):
        raise AssertionError("minors were evaluated")

    monkeypatch.setattr(tpprobe, "_laplace_minors", no_work)
    code, report = run_json(run, "tp-check", "--n", "9", "--eta", "1/2")
    assert code == 2
    assert report["outcome"] == "error"
    assert report["details"]["error"] == (
        "n = 9 would evaluate C(18, 9) - 1 = 48,619 minors; "
        "the all-minors probe is limited to n <= 8"
    )


# -- envelope, formats, determinism ---------------------------------------------------


def test_json_envelope_fields(run):
    code, report = run_json(run, "verify-det", "--n", "2")
    assert code == 0
    assert report["schema_version"] == "1"
    assert report["command"] == "verify-det"
    assert report["inputs"]["n"] == 2
    assert report["outcome"] == "pass"
    assert isinstance(report["elapsed_ms"], int)


def test_text_format_shows_outcome_and_canonical_forms(run):
    code, out, _ = run("verify-det", "--n", "3")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "h1^2 * h2" in out
    assert "1 - 2*eta^2 + 2*eta^6 - eta^8" in out


def test_error_report_in_json_mode(run):
    code, out, err = run("verify-u", "--n", "0", "--format", "json")
    assert code == 2
    report = json.loads(out)
    assert report["outcome"] == "error"
    assert "error" in report["details"]


def report_digest(out):
    """sha256 prefix of a JSON report without elapsed_ms, as the benchmark's golden file has it."""
    report = json.loads(out)
    report.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("verify-u", "--sweep"), "b286bc705f742fc9"),
        (("verify-det", "--sweep"), "92ddda8a9a281b9f"),
        (("leading-term", "--sweep"), "c10b8b30d29d847e"),
        (("tp-check", "--sweep"), "251e5f593fdfaf4b"),
    ],
)
def test_sweep_reports_are_pinned(run, argv, digest):
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert report_digest(out) == digest


@pytest.mark.parametrize(
    "identity, params, digest",
    [
        ("MI6", "8,6,12", "a43540afcdfa84a2"),
        ("MI1", "8,3,6,12", "be8b3d96f4784ffa"),
        ("MI2", "8,2,12", "85b7bed0c015b5d2"),
        ("MI3", "8,4,12", "407b8e21318bcd77"),
        ("MI5", "8,5,12", "61bd16fb07147f19"),
    ],
)
def test_large_multiset_reports_are_pinned(run, identity, params, digest):
    # each report prints both full sides, so any changed count or order shows
    code, out, _ = run("multiset", "--identity", identity, "--params", params, "--format", "json")
    assert code == 0
    assert report_digest(out) == digest


def test_text_report_is_pinned(run):
    code, out, _ = run("verify-det", "--n", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "618a192c5d7c3fbe"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-u", "--sweep", "--n", "3"),
        ("verify-det", "--sweep", "--n", "3"),
        ("leading-term", "--sweep", "--n", "3"),
        ("tp-check", "--sweep", "--n", "3"),
        ("tp-check", "--sweep", "--eta", "1/2"),
        ("multiset", "--sweep", "--identity", "MI6"),
        ("multiset", "--sweep", "--params", "2,4,4"),
    ],
)
def test_sweep_refuses_conflicting_flags_before_any_work(run, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran")

    for name in ("verify_closed_form", "neville_eliminate", "factored_determinant",
                 "leading_term", "verify_identity", "all_minors_positive"):
        monkeypatch.setattr(cli, name, no_work)
    code, report = run_json(run, *argv)
    assert code == 2
    assert report["outcome"] == "error"
    assert report["details"]["error"].startswith("--sweep does not take")


def test_unknown_subcommand_is_usage_error(run):
    assert run("frobnicate")[0] == 2


def test_repeated_invocations_are_byte_identical_modulo_timing(run):
    reports = []
    for _ in range(2):
        _, report = run_json(run, "tp-check", "--n", "4", "--eta", "1/2")
        report.pop("elapsed_ms")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_max_n_env_cap(run, monkeypatch):
    monkeypatch.setenv("GAUSSDET_MAX_N", "4")
    code, _, err = run("verify-u", "--n", "5")
    assert code == 2
    assert "GAUSSDET_MAX_N" in err
    code, report = run_json(run, "verify-u", "--sweep")
    assert code == 0
    assert [entry["n"] for entry in report["details"]["results"]] == [1, 2, 3, 4]


def test_max_n_env_must_be_an_integer(run, monkeypatch):
    monkeypatch.setenv("GAUSSDET_MAX_N", "many")
    assert run("verify-u", "--n", "2")[0] == 2


def test_failed_check_exits_one_with_counterexample(run, monkeypatch):
    from gaussdet.closedform import AgreementReport

    def broken(n, trace=None):
        return AgreementReport(n, 3, False, (1, 1, 2), "eta", "eta^2")

    monkeypatch.setattr(cli, "verify_closed_form", broken)
    code, out, _ = run("verify-u", "--n", "2", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "fail"
    assert report["details"]["first_mismatch"] == {
        "stage": 1,
        "row": 1,
        "col": 2,
        "expected": "eta",
        "actual": "eta^2",
    }


def test_failed_leading_term_is_one_failed_check_of_verify_all(run, monkeypatch):
    real = cli.leading_term

    def broken(n):
        if n == 5:
            raise ArithmeticError("series leading coefficient 0 != 294912")
        return real(n)

    monkeypatch.setattr(cli, "leading_term", broken)
    code, report = run_json(run, "verify-all")
    assert code == 1
    assert report["outcome"] == "fail"
    checks = report["details"]["checks"]
    assert len(checks) == 74
    failed = [check for check in checks if check["outcome"] != "pass"]
    assert failed == [{
        "name": "leading-term n=5",
        "outcome": "fail",
        "error": "series leading coefficient 0 != 294912",
    }]
    assert report["details"]["summary"] == {"passed": 73, "failed": 1}

    code, report = run_json(run, "leading-term", "--n", "5")
    assert code == 1
    assert report["details"] == {"n": 5, "error": "series leading coefficient 0 != 294912"}
