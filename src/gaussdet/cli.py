"""Command-line front end: every verification as a subcommand, text or JSON output.

Runs are seed-free and deterministic: identical invocations produce identical
reports except for the elapsed-time field.  Exit codes: 0 all checks passed,
1 a mathematical check failed (the report carries a counterexample),
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from .closedform import (
    ai1_grid_holds,
    ai2_grid_holds,
    LeadingTerm,
    factored_determinant,
    series_determinant,
    superfactorial,
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

U_SWEEP_MAX = 10
DET_SWEEP_MAX = 10
LEADING_SWEEP_MAX = 8
TP_SWEEP_MAX = 7
TP_SWEEP_ETAS = ("1/10", "1/4", "1/2", "3/4", "9/10")
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


def _sweep_limit(default: int) -> int:
    cap = _max_n_cap()
    return default if cap is None else min(default, cap)


def _require_n(args) -> int:
    if args.n is None:
        raise ValueError("--n is required (or use --sweep)")
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    return _check_cap(args.n)


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

    p = sub.add_parser("verify-u", help="compare every elimination stage to its closed form")
    p.add_argument("--n", type=int)
    common(p, f"check every n from 1 to {U_SWEEP_MAX}")

    p = sub.add_parser("verify-det", help="factored vs diagonal-product vs Leibniz determinant")
    p.add_argument("--n", type=int)
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND,
                   help="largest n for the Leibniz cross-check")
    common(p, f"check every n from 1 to {DET_SWEEP_MAX}")

    p = sub.add_parser("leading-term", help="leading spacing-order term, series cross-check")
    p.add_argument("--n", type=int)
    p.add_argument("--order", type=int, help="series truncation order (default n(n-1)/2)")
    common(p, f"check every n from 2 to {LEADING_SWEEP_MAX}")

    p = sub.add_parser("multiset", help="verify one of the multiset identities MI1..MI6")
    p.add_argument("--identity", choices=IDENTITY_NAMES)
    p.add_argument("--params", type=_csv_ints, help="comma-separated identity parameters")
    common(p, "run the full parameter grid for every identity")

    p = sub.add_parser("tp-check", help="evaluate every minor exactly and check positivity")
    p.add_argument("--n", type=int)
    p.add_argument("--eta", help="rational in (0, 1), e.g. 1/2")
    common(p, f"n up to {TP_SWEEP_MAX} at eta in {{{', '.join(TP_SWEEP_ETAS)}}}")

    p = sub.add_parser("verify-all", help="run every verification grid in one pass")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)
    common(p)

    return parser


# -- per-command result builders ------------------------------------------


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


def _cmd_verify_u(args) -> tuple[str, dict]:
    if args.sweep:
        if args.n is not None:
            raise ValueError("--sweep does not take --n")
        ns = range(1, _sweep_limit(U_SWEEP_MAX) + 1)
    else:
        ns = [_require_n(args)]
    ok = True
    results = []
    for n in ns:
        good, entry = _u_entry(n)
        ok = ok and good
        results.append(entry)
    details = {"results": results} if args.sweep else results[0]
    return ("pass" if ok else "fail"), details


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
        oracle = brute_force_det(build_covariance(CovarianceParams(n=n)))
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


def _cmd_verify_det(args) -> tuple[str, dict]:
    if args.sweep:
        if args.n is not None:
            raise ValueError("--sweep does not take --n")
        ns = range(1, _sweep_limit(DET_SWEEP_MAX) + 1)
    else:
        ns = [_require_n(args)]
    _check_oracle_bound(args.oracle_bound, max(ns))
    ok = True
    results = []
    for n in ns:
        good, entry = _det_entry(n, args.oracle_bound)
        ok = ok and good
        results.append(entry)
    details = {"results": results} if args.sweep else results[0]
    return ("pass" if ok else "fail"), details


def _leading_entry(n: int, order: int | None) -> tuple[bool, dict]:
    target = n * (n - 1) // 2
    if order is None:
        order = target
    elif order < target:
        raise ValueError(f"--order must be >= n(n-1)/2 = {target}, got {order}")
    expected = superfactorial(n - 1) * 2 ** target
    series = series_determinant(n, order)
    zero_below = all(series.coefficient(m) == 0 for m in range(target))
    series_coeff = series.coefficient(target)
    ok = zero_below and series_coeff == expected
    closed = LeadingTerm(expected, target, n * (n - 1))
    entry = {
        "n": n,
        "closed_form": str(closed),
        "coefficient": str(expected),
        "theta_power": target,
        "delta_power": n * (n - 1),
        "series_order": order,
        "series_zero_below_leading": bool(zero_below),
        "series_leading_coefficient": str(series_coeff),
        "series_matches": bool(ok),
    }
    return ok, entry


def _cmd_leading_term(args) -> tuple[str, dict]:
    if args.sweep:
        if args.n is not None:
            raise ValueError("--sweep does not take --n")
        if args.order is not None:
            raise ValueError("--sweep does not take --order")
        ns = range(2, _sweep_limit(LEADING_SWEEP_MAX) + 1)
    else:
        n = _require_n(args)
        if n < 2:
            raise ValueError("--n must be >= 2: a single point has no spacing dependence")
        ns = [n]
    ok = True
    results = []
    for n in ns:
        good, entry = _leading_entry(n, args.order if not args.sweep else None)
        ok = ok and good
        results.append(entry)
    details = {"results": results} if args.sweep else results[0]
    return ("pass" if ok else "fail"), details


def _identity_grid(identity: str):
    """The standard verification grid, in fixed lexicographic order."""
    names = identity_param_names(identity)
    if "alpha" in names:
        for n in range(1, 5):
            for alpha in range(0, 4):
                for beta in range(1, 7):
                    for delta in range(2, 7):
                        yield (n, alpha, beta, delta)
    else:
        for n in range(1, 5):
            for beta in range(1, 7):
                for delta in range(2, 7):
                    yield (n, beta, delta)


def _cmd_multiset(args) -> tuple[str, dict]:
    if args.sweep:
        if args.identity is not None or args.params is not None:
            raise ValueError("--sweep does not take --identity/--params")
        instances = 0
        per_identity = {}
        failures = []
        for identity in IDENTITY_NAMES:
            count = 0
            for params in _identity_grid(identity):
                report = verify_identity(identity, params)
                count += 1
                if not report.equal:
                    failures.append(
                        {
                            "identity": identity,
                            "params": list(params),
                            "difference": str(report.difference),
                        }
                    )
            per_identity[identity] = count
            instances += count
        details = {"instances": instances, "per_identity": per_identity, "failures": failures}
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


def _cmd_tp_check(args) -> tuple[str, dict]:
    if args.sweep:
        if args.n is not None or args.eta is not None:
            raise ValueError("--sweep does not take --n/--eta")
        ok = True
        results = []
        for n in range(1, _sweep_limit(TP_SWEEP_MAX) + 1):
            for eta_text in TP_SWEEP_ETAS:
                good, entry = _tp_entry(n, Fraction(eta_text))
                ok = ok and good
                results.append(entry)
        return ("pass" if ok else "fail"), {"results": results}
    n = _require_n(args)
    if args.eta is None:
        raise ValueError("--eta is required (or use --sweep)")
    eta = _parse_eta(args.eta)
    good, entry = _tp_entry(n, eta)
    return ("pass" if good else "fail"), entry


def _cmd_verify_all(args) -> tuple[str, dict]:
    _check_oracle_bound(
        args.oracle_bound, min(_sweep_limit(U_SWEEP_MAX), _sweep_limit(DET_SWEEP_MAX))
    )
    checks: list[dict] = []

    def record(name: str, ok: bool, **extra):
        entry = {"name": name, "outcome": "pass" if ok else "fail"}
        entry.update(extra)
        checks.append(entry)

    for n in range(1, _sweep_limit(U_SWEEP_MAX) + 1):
        trace = neville_eliminate(build_covariance(CovarianceParams(n=n)))
        good, entry = _u_entry(n, trace=trace)
        record(f"verify-u n={n}", good, entries_checked=entry["entries_checked"],
               **({"first_mismatch": entry["first_mismatch"]} if not good else {}))
        if n <= _sweep_limit(DET_SWEEP_MAX):
            good, entry = _det_entry(n, args.oracle_bound, trace=trace)
            record(f"verify-det n={n}", good, factored=entry["factored"],
                   oracle_checked=entry["oracle_checked"],
                   **({"counterexample": entry} if not good else {}))

    for n in range(2, _sweep_limit(LEADING_SWEEP_MAX) + 1):
        good, entry = _leading_entry(n, None)
        record(f"leading-term n={n}", good, closed_form=entry["closed_form"])

    record("ai1-grid |i|,|j|,|n|<=10", ai1_grid_holds(10))
    record("ai2-grid i<=10, j<=10", ai2_grid_holds(10, 10))

    for identity in IDENTITY_NAMES:
        instances = 0
        failures = []
        for params in _identity_grid(identity):
            report = verify_identity(identity, params)
            instances += 1
            if not report.equal:
                failures.append({"params": list(params), "difference": str(report.difference)})
        record(f"multiset {identity} grid", not failures, instances=instances,
               **({"failures": failures} if failures else {}))

    lift_ok = True
    lift_failure = None
    lift_count = 0
    for w in range(2, 6):
        for i in range(w + 1, w + 6):
            for j in range(w + 1, w + 6):
                lift_count += 1
                try:
                    lift_duality(w, i, j)
                except LiftDualityError as exc:
                    lift_ok = False
                    if lift_failure is None:
                        lift_failure = {
                            "w": exc.w, "i": exc.i, "j": exc.j,
                            "difference": str(exc.difference),
                        }
    record("lift-duality w=2..5", lift_ok, instances=lift_count,
           **({"counterexample": lift_failure} if lift_failure else {}))

    for n in range(1, _sweep_limit(TP_SWEEP_MAX) + 1):
        for eta_text in TP_SWEEP_ETAS:
            good, entry = _tp_entry(n, Fraction(eta_text))
            record(f"tp-check n={n} eta={eta_text}", good,
                   minors_checked=entry["minors_checked"],
                   min_minor=entry["min_minor"])

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
    for key in ("n", "eta", "identity", "params", "order", "oracle_bound", "sweep"):
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
