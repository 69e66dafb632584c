"""Command-line front end: every verification as a subcommand, text or JSON output.

Runs are seed-free and deterministic: identical invocations produce identical
reports except for the elapsed-time field.  Exit codes: 0 all checks passed,
1 a mathematical check failed (the report carries a counterexample),
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

from .closedform import (
    ai1_grid_holds,
    ai2_grid_holds,
    factored_determinant,
    leading_term,
    verify_closed_form,
)
from .multisets import (
    IDENTITY_NAMES,
    LiftDualityError,
    SideConditionError,
    identity_param_names,
    lift_duality,
    verify_identity,
)
from .neville import (
    ORACLE_MAX_N,
    CovarianceParams,
    brute_force_det,
    build_covariance,
    diagonal_product,
    neville_eliminate,
)
from .tpprobe import all_minors_positive

SCHEMA_VERSION = "1"
MAX_N_ENV = "GAUSSDET_MAX_N"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# first and last n of each --sweep; GAUSSDET_MAX_N lowers the last
SWEEP_NS = {"verify-u": (1, 10), "verify-det": (1, 10), "leading-term": (2, 8), "tp-check": (1, 7)}
TP_SWEEP_ETAS = ("1/10", "1/4", "1/2", "3/4", "9/10")
LIFT_GRID = tuple((w, i, j) for w in range(2, 6) for i in range(w + 1, w + 6)
                  for j in range(w + 1, w + 6))
DEFAULT_ORACLE_BOUND = 6


def _max_n_cap() -> int | None:
    raw = os.environ.get(MAX_N_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_N_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{MAX_N_ENV} must be >= 1, got {cap}")
    return cap


def _check_cap(n: int) -> int:
    cap = _max_n_cap()
    if cap is not None and n > cap:
        raise ValueError(f"n = {n} exceeds {MAX_N_ENV} = {cap}")
    return n


def _sweep_ns(command: str) -> range:
    first, last = SWEEP_NS[command]
    cap = _max_n_cap()
    return range(first, (last if cap is None else min(last, cap)) + 1)


def _require_n(args) -> int:
    if args.n is None:
        raise ValueError("--n is required (or use --sweep)")
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    return _check_cap(args.n)


def _sweeping(args, *flags: str) -> bool:
    """Whether --sweep is given; refuses it together with any of the flags."""
    if args.sweep and any(getattr(args, flag) is not None for flag in flags):
        raise ValueError("--sweep does not take " + "/".join(f"--{flag}" for flag in flags))
    return args.sweep


def _ns(args, *flags: str) -> range:
    """The command's sweep range under --sweep, which refuses --n and the flags; else --n."""
    if _sweeping(args, "n", *flags):
        return _sweep_ns(args.command)
    n = _require_n(args)
    return range(n, n + 1)


def _fold(checks, sweep: bool) -> tuple[str, dict]:
    """Outcome and details of (ok, entry) pairs: a sweep lists every entry, else the one."""
    ok = True
    results = []
    for good, entry in checks:
        ok = ok and good
        results.append(entry)
    return ("pass" if ok else "fail"), ({"results": results} if sweep else results[0])


def _parse_eta(text: str) -> Fraction:
    try:
        eta = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--eta must be a rational like 1/2, got {text!r}") from None
    if not 0 < eta < 1:
        raise ValueError(f"--eta must lie in (0, 1), got {eta}")
    return eta


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussdet",
        description=(
            "Exact verification of the determinant structure of the Gaussian "
            "covariance matrix of evenly spaced points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sweep_help: str | None = None):
        p.add_argument("--format", choices=("text", "json"), default="text")
        if sweep_help is not None:
            p.add_argument("--sweep", action="store_true", help=sweep_help)

    def n_command(name: str, help_text: str, sweep_suffix: str = "") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int)
        first, last = SWEEP_NS[name]
        common(p, f"check every n from {first} to {last}{sweep_suffix}")
        return p

    n_command("verify-u", "compare every elimination stage to its closed form")
    p = n_command("verify-det", "factored vs diagonal-product vs Leibniz determinant")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND,
                   help="largest n for the Leibniz cross-check")
    n_command("leading-term", "leading spacing-order term, series cross-check")

    p = sub.add_parser("multiset", help="verify one of the multiset identities MI1..MI6")
    p.add_argument("--identity", choices=IDENTITY_NAMES)
    p.add_argument("--params", type=_csv_ints, help="comma-separated identity parameters")
    common(p, "run the full parameter grid for every identity")

    p = n_command("tp-check", "evaluate every minor exactly and check positivity",
                  f" at eta in {{{', '.join(TP_SWEEP_ETAS)}}}")
    p.add_argument("--eta", help="rational in (0, 1), e.g. 1/2")

    p = sub.add_parser("verify-all", help="run every verification grid in one pass")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    common(p)

    return parser


# -- per-check entries and the grids they run over -----------------------------


def _u_entry(n: int, trace=None) -> tuple[bool, dict]:
    report = verify_closed_form(n, trace=trace)
    entry: dict = {"n": n, "entries_checked": report.entries_checked, "agree": report.agree}
    if not report.agree:
        s, i, j = report.first_mismatch
        entry["first_mismatch"] = {
            "stage": s,
            "row": i,
            "col": j,
            "expected": report.expected,
            "actual": report.actual,
        }
    return report.agree, entry


def _det_entry(n: int, oracle_bound: int, trace=None) -> tuple[bool, dict]:
    factored = factored_determinant(n)
    expansion = factored.expand()
    if trace is None:
        trace = neville_eliminate(build_covariance(CovarianceParams(n=n)))
    diagonal = diagonal_product(trace)
    ok = diagonal == expansion
    entry: dict = {
        "n": n,
        "factored": str(factored),
        "expansion": str(expansion),
        "diagonal_matches": bool(ok),
        "oracle_checked": n <= oracle_bound,
    }
    if not ok:
        entry["diagonal"] = str(diagonal)
    if n <= oracle_bound:
        oracle = brute_force_det(trace.stage(1))
        oracle_ok = oracle == expansion
        entry["oracle_matches"] = bool(oracle_ok)
        if not oracle_ok:
            entry["oracle"] = str(oracle)
        ok = ok and oracle_ok
    return ok, entry


def _check_oracle_bound(oracle_bound: int, largest_n: int) -> None:
    """Refuse, before any work, a run whose Leibniz oracle exceeds ORACLE_MAX_N."""
    if oracle_bound < 1:
        raise ValueError(f"--oracle-bound must be >= 1, got {oracle_bound}")
    n = min(oracle_bound, largest_n)
    if n > ORACLE_MAX_N:
        raise ValueError(
            f"--oracle-bound {oracle_bound} would run the Leibniz oracle at n = {n}, "
            f"about {n}! = {math.factorial(n):,} symbolic permutations; "
            f"the oracle is limited to n <= {ORACLE_MAX_N}"
        )


def _leading_entry(n: int) -> tuple[bool, dict]:
    """The closed-form leading term, which closedform confirms by the series product.

    The series is truncated at t^(n(n-1)/2), the highest power it is compared at.
    """
    try:
        term = leading_term(n)
    except ArithmeticError as exc:
        return False, {"n": n, "error": str(exc)}
    return True, {
        "n": n,
        "closed_form": str(term),
        "coefficient": str(term.coefficient),
        "theta_power": term.theta_power,
        "delta_power": term.delta_power,
        "series_order": term.theta_power,
        "series_zero_below_leading": True,
        "series_leading_coefficient": str(term.coefficient),
        "series_matches": True,
    }


def _identity_grid(identity: str):
    """The standard verification grid, in fixed lexicographic order."""
    ns, alphas, betas, deltas = range(1, 5), range(0, 4), range(1, 7), range(2, 7)
    if "alpha" in identity_param_names(identity):
        return itertools.product(ns, alphas, betas, deltas)
    return itertools.product(ns, betas, deltas)


def _identity_sweep(identity: str) -> tuple[int, list[dict]]:
    """Instances checked and failures over the identity's grid."""
    instances = 0
    failures = []
    for params in _identity_grid(identity):
        report = verify_identity(identity, params)
        instances += 1
        if not report.equal:
            failures.append({"params": list(params), "difference": str(report.difference)})
    return instances, failures


def _tp_entry(n: int, eta: Fraction) -> tuple[bool, dict]:
    report = all_minors_positive(n, eta)
    idx, value = report.min_minor
    entry = {
        "n": n,
        "eta": str(report.eta_value),
        "minors_checked": report.minors_checked,
        "all_positive": report.all_positive,
        "min_minor": {"rows": list(idx.rows), "cols": list(idx.cols), "value": str(value)},
    }
    return report.all_positive, entry


def _tp_sweep(ns: range):
    return (_tp_entry(n, Fraction(eta)) for n in ns for eta in TP_SWEEP_ETAS)


# -- subcommands -----------------------------------------------------------------


def _cmd_verify_u(args) -> tuple[str, dict]:
    return _fold((_u_entry(n) for n in _ns(args)), args.sweep)


def _cmd_verify_det(args) -> tuple[str, dict]:
    ns = _ns(args)
    _check_oracle_bound(args.oracle_bound, ns[-1])
    return _fold((_det_entry(n, args.oracle_bound) for n in ns), args.sweep)


def _cmd_leading_term(args) -> tuple[str, dict]:
    return _fold((_leading_entry(n) for n in _ns(args)), args.sweep)


def _cmd_multiset(args) -> tuple[str, dict]:
    if _sweeping(args, "identity", "params"):
        per_identity = {}
        failures = []
        for identity in IDENTITY_NAMES:
            per_identity[identity], failed = _identity_sweep(identity)
            failures += [{"identity": identity, **failure} for failure in failed]
        details = {
            "instances": sum(per_identity.values()),
            "per_identity": per_identity,
            "failures": failures,
        }
        return ("pass" if not failures else "fail"), details
    if args.identity is None:
        raise ValueError("--identity is required (or use --sweep)")
    if args.params is None:
        raise ValueError(
            f"--params is required: {args.identity} takes "
            f"({', '.join(identity_param_names(args.identity))})"
        )
    report = verify_identity(args.identity, args.params)
    details = {
        "identity": report.identity,
        "params": list(report.params),
        "lhs": str(report.lhs),
        "rhs": str(report.rhs),
        "equal": report.equal,
    }
    if not report.equal:
        details["difference"] = str(report.difference)
    return ("pass" if report.equal else "fail"), details


def _cmd_tp_check(args) -> tuple[str, dict]:
    ns = _ns(args, "eta")
    if args.sweep:
        return _fold(_tp_sweep(ns), sweep=True)
    if args.eta is None:
        raise ValueError("--eta is required (or use --sweep)")
    return _fold([_tp_entry(ns[0], _parse_eta(args.eta))], sweep=False)


def _cmd_verify_all(args) -> tuple[str, dict]:
    u_ns, det_ns = _sweep_ns("verify-u"), _sweep_ns("verify-det")
    _check_oracle_bound(args.oracle_bound, min(u_ns[-1], det_ns[-1]))
    checks: list[dict] = []

    def record(name: str, ok: bool, **extra):
        checks.append({"name": name, "outcome": "pass" if ok else "fail", **extra})

    def pick(entry: dict, *keys: str) -> dict:
        return {key: entry[key] for key in keys if key in entry}

    # verify-u and verify-det alternate on one shared elimination trace per n
    for n in u_ns:
        trace = neville_eliminate(build_covariance(CovarianceParams(n=n)))
        good, entry = _u_entry(n, trace=trace)
        record(f"verify-u n={n}", good, **pick(entry, "entries_checked", "first_mismatch"))
        if n in det_ns:
            good, entry = _det_entry(n, args.oracle_bound, trace=trace)
            record(f"verify-det n={n}", good, **pick(entry, "factored", "oracle_checked"),
                   **({"counterexample": entry} if not good else {}))

    for n in _sweep_ns("leading-term"):
        good, entry = _leading_entry(n)
        record(f"leading-term n={n}", good, **pick(entry, "closed_form", "error"))

    record("ai1-grid |i|,|j|,|n|<=10", ai1_grid_holds(10))
    record("ai2-grid i<=10, j<=10", ai2_grid_holds(10, 10))

    for identity in IDENTITY_NAMES:
        instances, failures = _identity_sweep(identity)
        record(f"multiset {identity} grid", not failures, instances=instances,
               **({"failures": failures} if failures else {}))

    lift_failure = None
    for w, i, j in LIFT_GRID:
        try:
            lift_duality(w, i, j)
        except LiftDualityError as exc:
            if lift_failure is None:
                lift_failure = {"w": exc.w, "i": exc.i, "j": exc.j,
                                "difference": str(exc.difference)}
    record("lift-duality w=2..5", lift_failure is None, instances=len(LIFT_GRID),
           **({"counterexample": lift_failure} if lift_failure else {}))

    for good, entry in _tp_sweep(_sweep_ns("tp-check")):
        record(f"tp-check n={entry['n']} eta={entry['eta']}", good,
               **pick(entry, "minors_checked", "min_minor"))

    passed = sum(1 for c in checks if c["outcome"] == "pass")
    failed = len(checks) - passed
    details = {"checks": checks, "summary": {"passed": passed, "failed": failed}}
    return ("pass" if failed == 0 else "fail"), details


_HANDLERS = {
    "verify-u": _cmd_verify_u,
    "verify-det": _cmd_verify_det,
    "leading-term": _cmd_leading_term,
    "multiset": _cmd_multiset,
    "tp-check": _cmd_tp_check,
    "verify-all": _cmd_verify_all,
}


# -- report emission --------------------------------------------------------


def _echo_inputs(args) -> dict:
    echo: dict = {}
    for key in ("n", "eta", "identity", "params", "oracle_bound", "sweep"):
        value = getattr(args, key, None)
        if value is None:
            continue
        echo[key] = value
    return echo


def _text_block(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_text_block(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_text_block(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit(args, report: dict) -> None:
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return
    print(f"command: {report['command']}")
    if report["inputs"]:
        print("inputs: " + ", ".join(f"{k}={v}" for k, v in report["inputs"].items()))
    for line in _text_block(report["details"]):
        print(line)
    print(report["outcome"].upper())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    started = time.perf_counter()

    def finish(outcome: str, details: dict) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": _echo_inputs(args),
            "outcome": outcome,
            "details": details,
            "elapsed_ms": int((time.perf_counter() - started) * 1000),
        }

    try:
        outcome, details = _HANDLERS[args.command](args)
    except (SideConditionError, ValueError) as exc:
        if args.format == "json":
            print(json.dumps(finish("error", {"error": str(exc)}), indent=2))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LiftDualityError, ArithmeticError) as exc:
        _emit(args, finish("fail", {"error": str(exc)}))
        return EXIT_FAIL

    _emit(args, finish(outcome, details))
    return EXIT_PASS if outcome == "pass" else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
