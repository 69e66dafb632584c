"""Subcommand behavior, exit codes, JSON schema, and output determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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


def forbid_checks(monkeypatch):
    """Make every check the CLI can start raise, so a refusal is shown to come first."""

    def no_work(*args, **kwargs):
        raise AssertionError("a check ran")

    for name in ("verify_closed_form", "neville_eliminate", "factored_determinant",
                 "brute_force_det", "leading_term", "verify_identity", "lift_duality",
                 "all_minors_positive", "ai1_grid_holds", "ai2_grid_holds"):
        monkeypatch.setattr(cli, name, no_work)


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


@pytest.mark.parametrize("argv", [("verify-det", "--n", "3"), ("verify-all",)])
def test_oracle_bound_below_one_is_refused_before_work(run, monkeypatch, argv):
    forbid_checks(monkeypatch)
    message = "--oracle-bound must be >= 1, got 0"
    code, out, err = run(*argv, "--oracle-bound", "0")
    assert code == 2
    assert out == ""
    assert message in err
    code, report = run_json(run, *argv, "--oracle-bound", "0")
    assert code == 2
    assert report["outcome"] == "error"
    assert report["details"]["error"] == message


def test_oracle_bound_above_the_cap_is_fine_when_n_is_small(run):
    code, report = run_json(run, "verify-det", "--n", "3", "--oracle-bound", "12")
    assert code == 0
    assert report["details"]["oracle_matches"] is True


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
    def no_work(counts, sign, *term):
        raise AssertionError(f"counted {term}")

    monkeypatch.setattr(multisets, "_count_into", no_work)
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
    # 4,248,900 estimated additions over three terms; listing them would take ~10^19 elements
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
    for n, eta, error in [
        ("9", "1/2", "n = 9 would evaluate C(18, 9) - 1 = 48,619 minors; "
                     "the all-minors probe is limited to n <= 8"),
        # 8 * 7^2 * 200 bits: rendered, such minors overflow Python's 4,300-digit int printing
        ("8", f"1/{10 ** 60}", "n = 8 at an eta whose denominator has 200 bits would give "
                               "minors of up to about n(n-1)^2 * 200 = 78,400 bits; "
                               "the all-minors probe is limited to 14,000 bits"),
        ("8", f"1/{2 ** 35}", "n = 8 at an eta whose denominator has 36 bits would give "
                              "minors of up to about n(n-1)^2 * 36 = 14,112 bits; "
                              "the all-minors probe is limited to 14,000 bits"),
    ]:
        code, report = run_json(run, "tp-check", "--n", n, "--eta", eta)
        assert code == 2
        assert report["outcome"] == "error"
        assert report["details"]["error"] == error


def test_tp_check_of_a_huge_n_is_refused_at_once(run):
    # C(2 * 10^6, 10^6) alone takes tens of seconds and has too many digits to print
    started = time.perf_counter()
    code, report = run_json(run, "tp-check", "--n", "1000000", "--eta", "1/2")
    assert time.perf_counter() - started < 1
    assert code == 2
    assert report["outcome"] == "error"
    error = report["details"]["error"]
    assert error.startswith("n = 1000000 would evaluate")
    assert error.endswith("the all-minors probe is limited to n <= 8")


def test_tp_check_widest_admitted_eta_renders(run):
    # 35 bits is the widest denominator admitted at n = 8 (8 * 7^2 * 35 = 13,720 bits)
    eta = Fraction(2 ** 34, 2 ** 35 - 1)
    code, report = run_json(run, "tp-check", "--n", "8", "--eta", str(eta))
    assert code == 0
    assert report["details"]["minors_checked"] == 12_869
    assert report["details"]["all_positive"] is True
    assert Fraction(report["details"]["min_minor"]["value"]) > 0


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
        (("multiset", "--sweep"), "16340cd796c97d39"),
        (("verify-all",), "f9a3c5ac2dc2fb75"),
    ],
)
def test_sweep_reports_are_pinned(run, argv, digest):
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert report_digest(out) == digest
    assert floats_in(json.loads(out)) == []


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("verify-u", "--n", "20"), "f0045cbd3ff0cf09"),
        (("verify-det", "--n", "20"), "db4f6686260b0a54"),
    ],
)
def test_reports_at_n_twenty_are_pinned(run, argv, digest):
    # recorded with the elimination on the whole eta block, before it moved to z
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert report_digest(out) == digest


def test_verify_det_at_n_thirty_is_pinned(run):
    # recorded with one exact division per entry of the active block, before one per row;
    # the pivot product here has coefficients wider than a 64-bit slot
    code, out, _ = run("verify-det", "--n", "30", "--format", "json")
    assert code == 0
    assert report_digest(out) == "755e7287025e82b6"


@pytest.mark.parametrize(
    "eta, digest",
    [
        (str(Fraction(2 ** 34, 2 ** 35 - 1)), "e7ab9bdb597cf593"),
        ("1/3", "9e67d5f4fc1d4761"),
        ("9/10", "544dac38feb4354e"),
    ],
)
def test_tp_check_reports_at_n_eight_are_pinned(run, eta, digest):
    # recorded with the minors weighted per row and column set, before one q-power per order
    code, out, _ = run("tp-check", "--n", "8", "--eta", eta, "--format", "json")
    assert code == 0
    assert report_digest(out) == digest


def floats_in(value):
    """Every float anywhere in a parsed JSON value; exact reports carry none."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [found for item in value for found in floats_in(item)]
    return []


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("verify-u", "--n", "15"), "230442a381adac6a"),
        (("verify-det", "--n", "15"), "fd9237c72152e0ec"),
        (("verify-det", "--n", "7", "--oracle-bound", "7"), "1875ad2d59152b55"),
        (("leading-term", "--n", "12"), "d9f5b596ee18df64"),
    ],
)
def test_symbolic_reports_are_pinned(run, argv, digest):
    # the reports of the benchmark's symbolic workload, as in its golden file
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


def test_verify_all_text_report_is_pinned(run):
    code, out, _ = run("verify-all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "b217049c232e0e7b"


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
    forbid_checks(monkeypatch)
    code, report = run_json(run, *argv)
    assert code == 2
    assert report["outcome"] == "error"
    assert report["details"]["error"].startswith("--sweep does not take")


@pytest.mark.parametrize("command", ["verify-u", "verify-det", "leading-term"])
def test_symbolic_n_above_the_limit_is_refused_before_work(run, monkeypatch, command):
    limit = cli.CHECKS[command][2]
    forbid_checks(monkeypatch)
    code, report = run_json(run, command, "--n", str(limit + 1))
    assert code == 2
    assert report["outcome"] == "error"
    assert report["details"]["error"] == f"n = {limit + 1} exceeds the {command} limit n <= {limit}"


def test_symbolic_limits():
    limits = {command: cli.CHECKS[command][2] for command in ("verify-u", "verify-det", "leading-term")}
    assert limits == {"verify-u": 30, "verify-det": 30, "leading-term": 30}


@pytest.mark.parametrize("command", ["verify-u", "verify-det", "leading-term"])
def test_symbolic_limit_admits_n_twenty(run, monkeypatch, command):
    # n = 20 and the command's own limit both run
    monkeypatch.setattr(cli, "neville_eliminate", lambda n: None)
    for name in ("_u_entry", "_det_entry", "_leading_entry"):
        monkeypatch.setattr(cli, name, lambda n, *rest: (True, {"n": n}))
    for n in (20, cli.CHECKS[command][2]):
        code, report = run_json(run, command, "--n", str(n))
        assert code == 0
        assert report["details"] == {"n": n}


@pytest.mark.parametrize(
    "argv, largest",
    [
        (("verify-u", "--sweep"), 10),
        (("verify-det", "--sweep"), 10),
        (("verify-u", "--n", "6"), 6),
        (("verify-all",), 10),
    ],
)
def test_one_elimination_per_invocation_at_its_largest_n(run, monkeypatch, argv, largest):
    calls = []
    real = cli.neville_eliminate
    monkeypatch.setattr(cli, "neville_eliminate", lambda n: calls.append(n) or real(n))
    code, _, _ = run(*argv)
    assert code == 0
    assert calls == [largest]


def test_the_environment_changes_no_report(run, monkeypatch):
    # sweep ranges and --n limits come from cli.CHECKS alone
    argvs = [("verify-u", "--sweep"), ("leading-term", "--sweep"), ("verify-all",)]
    monkeypatch.delenv("GAUSSDET_MAX_N", raising=False)
    unset = [_without_timing(run(*argv, "--format", "json")[1]) for argv in argvs]
    for value in ("1", "4", "many"):
        monkeypatch.setenv("GAUSSDET_MAX_N", value)
        for argv, report in zip(argvs, unset):
            code, out, err = run(*argv, "--format", "json")
            assert (code, _without_timing(out), err) == (0, report, ""), (value, argv)


def test_closed_stdout_exits_two_without_traceback():
    # the reader has gone before the report is written, as in `gaussdet ... | head -1`
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "gaussdet.cli", "leading-term", "--n", "3", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == b""


def test_unknown_subcommand_is_usage_error(run):
    assert run("frobnicate")[0] == 2


def test_repeated_invocations_are_byte_identical_modulo_timing(run):
    reports = []
    for _ in range(2):
        _, report = run_json(run, "tp-check", "--n", "4", "--eta", "1/2")
        report.pop("elapsed_ms")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


# one call of every subcommand, in both formats, then a usage error and a valid call
REUSE_CALLS = [
    (*argv, "--format", fmt)
    for argv in [
        ("verify-u", "--n", "5"),
        ("verify-det", "--n", "4"),
        ("leading-term", "--n", "4"),
        ("multiset", "--identity", "MI6", "--params", "3,4,5"),
        ("multiset", "--sweep"),
        ("tp-check", "--n", "3", "--eta", "1/2"),
        ("verify-all",),
    ]
    for fmt in ("json", "text")
] + [("verify-u", "--n", "many"), ("verify-u", "--n", "3", "--format", "json")]


def _without_timing(out):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)


def test_one_parser_serves_every_call_of_a_process(run):
    firsts = []
    for argv in REUSE_CALLS:
        cli._build_parser.cache_clear()
        code, out, err = run(*argv)
        firsts.append((code, _without_timing(out), err))
    assert [code for code, _, _ in firsts] == [0] * (len(REUSE_CALLS) - 2) + [2, 0]
    assert "invalid int value" in firsts[-2][2]
    parser = cli._build_parser()
    for argv, first in zip(REUSE_CALLS, firsts):
        code, out, err = run(*argv)
        assert (code, _without_timing(out), err) == first, argv
    assert cli._build_parser() is parser


def test_reused_parser_reads_patches_at_each_call(run, monkeypatch):
    run("verify-u", "--n", "2")
    forbid_checks(monkeypatch)
    for argv in [("verify-u", "--n", "3"), ("multiset", "--sweep"), ("verify-all",)]:
        with pytest.raises(AssertionError, match="a check ran"):
            run(*argv)


def test_importing_the_cli_builds_no_parser():
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import gaussdet.cli as c; print(c._build_parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                            timeout=60, check=True)
    assert result.stdout == b"0\n"


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


def test_inexact_elimination_quotient_exits_one_naming_the_entry(run, monkeypatch):
    from gaussdet.exact import EtaPoly
    from matrix_elimination import monomial

    # every quotient of the elimination divides by its pivot plus z, which
    # leaves a remainder at the first entry of stage 2
    exact_division = EtaPoly.__truediv__
    monkeypatch.setattr(EtaPoly, "__truediv__",
                        lambda a, b: exact_division(a, b + monomial(1)))
    code, out, _ = run("verify-det", "--n", "2", "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["outcome"] == "fail"
    assert report["details"]["error"].startswith("inexact quotient at stage 2, row 2, column 2: ")


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


def _mismatch_at_n4(real):
    from gaussdet.closedform import AgreementReport

    def broken(n, blocks=None):
        report = real(n, blocks)
        if n != 4:
            return report
        return AgreementReport(4, report.entries_checked, False, (2, 3, 4), "eta^5", "eta^7")

    return broken


def _oracle_off_by_eta_at_n3(real):
    from matrix_elimination import monomial

    def broken(idx):
        det = real(idx)
        return det + monomial(1) if idx.size == 3 else det

    return broken


def _mi3_unequal_at_2_3_4(real):
    from gaussdet.multisets import IdentityReport, SignedMultiset

    def broken(identity, params):
        report = real(identity, params)
        if identity != "MI3" or tuple(params) != (2, 3, 4):
            return report
        diff = SignedMultiset.from_counts({5: 1})
        return IdentityReport(report.identity, report.params, report.lhs,
                              report.rhs.union(diff.negate()), False, diff)

    return broken


def _lift_fails_at_3_5_6(real):
    from gaussdet.multisets import LiftDualityError, SignedMultiset

    def broken(w, i, j):
        if (w, i, j) == (3, 5, 6):
            raise LiftDualityError(w, i, j, SignedMultiset.from_counts({7: 1, 9: -1}))
        return real(w, i, j)

    return broken


def _negative_minor_at_n4_half(real):
    def broken(n, eta):
        report = real(n, eta)
        if (n, eta) != (4, Fraction(1, 2)):
            return report
        minor = (tpprobe.MinorIndex((1, 2), (3, 4)), Fraction(-1, 64))
        return tpprobe.TpReport(4, report.eta_value, report.minors_checked, minor, False)

    return broken


@pytest.mark.parametrize(
    "name, breaker, failed",
    [
        ("verify_closed_form", _mismatch_at_n4, {
            "name": "verify-u n=4", "outcome": "fail", "entries_checked": 64,
            "first_mismatch": {"stage": 2, "row": 3, "col": 4,
                               "expected": "eta^5", "actual": "eta^7"},
        }),
        ("brute_force_det", _oracle_off_by_eta_at_n3, {
            "name": "verify-det n=3", "outcome": "fail", "factored": "h1^2 * h2",
            "oracle_checked": True,
            "counterexample": {
                "n": 3, "factored": "h1^2 * h2", "expansion": "1 - 2*eta^2 + 2*eta^6 - eta^8",
                "diagonal_matches": True, "oracle_checked": True, "oracle_matches": False,
                "oracle": "1 + eta - 2*eta^2 + 2*eta^6 - eta^8",
            },
        }),
        ("verify_identity", _mi3_unequal_at_2_3_4, {
            "name": "multiset MI3 grid", "outcome": "fail", "instances": 120,
            "failures": [{"params": [2, 3, 4], "difference": "{5}"}],
        }),
        ("lift_duality", _lift_fails_at_3_5_6, {
            "name": "lift-duality w=2..5", "outcome": "fail", "instances": 100,
            "counterexample": {"w": 3, "i": 5, "j": 6, "difference": "{7, 9^-1}"},
        }),
        ("all_minors_positive", _negative_minor_at_n4_half, {
            "name": "tp-check n=4 eta=1/2", "outcome": "fail", "minors_checked": 69,
            "min_minor": {"rows": [1, 2], "cols": [3, 4], "value": "-1/64"},
        }),
    ],
    ids=["verify-u", "verify-det-oracle", "multiset", "lift-duality", "tp-check"],
)
def test_each_failed_check_of_verify_all_keeps_its_shape(run, monkeypatch, name, breaker, failed):
    monkeypatch.setattr(cli, name, breaker(getattr(cli, name)))
    code, report = run_json(run, "verify-all")
    assert code == 1
    checks = report["details"]["checks"]
    assert len(checks) == 74
    assert [check for check in checks if check["outcome"] != "pass"] == [failed]
    assert report["details"]["summary"] == {"passed": 73, "failed": 1}
