"""End-to-end benchmark of the gaussdet CLI, with an optional per-layer trace.

Run from the root of a source checkout (stdlib only, nothing to install):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 44 --trace 0

Each pass of a workload runs in a fresh, single-threaded child Python
process that imports ``gaussdet.cli`` from ``src`` and calls
``gaussdet.cli.main(argv)`` once per invocation, in order (a closed loop:
one caller, each invocation starts after the previous one returned).
Passes repeat until ``--seconds`` is used up.  Every report is checked
against the digests in ``golden.json``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  See README.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 1
VERIFY_ALL_CHECKS = 74
# dedicated spawns per untraced run: one spawn varies by about +-30% on a
# shared machine, so setup_s is the median of these and of every pass's child
SETUP_SPAWNS = 10
CHILD_TIMEOUT_S = 150
DEFAULT_SECONDS = 44

IDENTITIES = ("MI1", "MI1a", "MI1b", "MI1c", "MI2", "MI3", "MI4", "MI5", "MI6")
# (n, alpha, beta, delta) ranges of the identities-wide draw; only MI1 takes alpha
DRAW_N = range(5, 9)
DRAW_ALPHA = range(0, 4)
DRAW_BETA = range(2, 7)
DRAW_DELTA = range(8, 13)

SYMBOLIC_N15 = (
    ("verify-u", "--n", "15"),
    ("verify-det", "--n", "15"),
    ("verify-det", "--n", "7", "--oracle-bound", "7"),
    ("leading-term", "--n", "12"),
)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def _multiset_argv(identity: str, params) -> list[str]:
    return ["multiset", "--identity", identity,
            "--params", ",".join(str(p) for p in params), "--format", "json"]


def identity_draw(seed: int) -> list[list[str]]:
    """One instance per (identity, n, delta) with seeded beta and alpha, shuffled.

    The stratified draw keeps the pass cost nearly the same for every seed,
    since enumeration cost grows with n and delta and far less with beta.
    """
    rng = random.Random(seed)
    argvs = []
    for identity in IDENTITIES:
        for n in DRAW_N:
            for delta in DRAW_DELTA:
                beta = rng.choice(DRAW_BETA)
                if identity == "MI1":
                    params = (n, rng.choice(DRAW_ALPHA), beta, delta)
                else:
                    params = (n, beta, delta)
                argvs.append(_multiset_argv(identity, params))
    rng.shuffle(argvs)
    return argvs


def draw_space() -> list[list[str]]:
    """Every instance identity_draw can pick, for recording golden digests."""
    argvs = []
    for identity in IDENTITIES:
        alphas = DRAW_ALPHA if identity == "MI1" else (None,)
        for n in DRAW_N:
            for alpha in alphas:
                for beta in DRAW_BETA:
                    for delta in DRAW_DELTA:
                        params = (n, beta, delta) if alpha is None else (n, alpha, beta, delta)
                        argvs.append(_multiset_argv(identity, params))
    return argvs


def workload_argvs(name: str, seed: int) -> list[list[str]]:
    if name == "verify-all":
        return [["verify-all", "--format", "json"]]
    if name == "symbolic-n15":
        return [[*argv, "--format", "json"] for argv in SYMBOLIC_N15]
    if name == "identities-wide":
        return [["multiset", "--sweep", "--format", "json"], *identity_draw(seed)]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify-all", "symbolic-n15", "identities-wide")


# -- child processes -----------------------------------------------------------


def child_env() -> dict[str, str]:
    """The pinned environment of every child.

    GAUSSDET_MAX_N would silently clamp the sweeps, and PYTHON* variables can
    change hashing, optimisation or the import path, so all are dropped.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "GAUSSDET_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class ChildError(RuntimeError):
    """A child process exited early, timed out or broke the protocol."""


def run_child(argvs, env, trace: bool = False) -> tuple[float, dict]:
    """Run one pass in a fresh child; return its set-up time and its result."""
    cmd = [sys.executable, str(BENCH / "child.py")] + (["--trace"] if trace else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if not ready.strip():
            raise ChildError(f"child did not start: {proc.stderr.read().strip()[-2000:]}")
        out, err = proc.communicate(json.dumps({"argvs": argvs}) + "\n", timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise ChildError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup, json.loads(out.splitlines()[-1])


def invocation_failures(argvs, result, golden) -> list[str]:
    """One message per failing invocation of a pass; empty when all are correct."""
    failures = []
    reports = result["invocations"]
    for argv, inv in zip(argvs, reports):
        key = " ".join(argv)
        if inv["rc"] != 0 or inv["outcome"] != "pass":
            failures.append(f"{key}: exit {inv['rc']}, outcome {inv['outcome']}")
        elif inv["digest"] != golden.get(key):
            failures.append(f"{key}: report differs from the golden report")
        elif argv[0] == "verify-all" and inv["checks"] != VERIFY_ALL_CHECKS:
            failures.append(f"{key}: {inv['checks']} checks, expected {VERIFY_ALL_CHECKS}")
    failures += [f"{' '.join(argv)}: no report" for argv in argvs[len(reports):]]
    return failures


def environment_record() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "child_env": {"PYTHONPATH": "src", "PYTHONHASHSEED": "0",
                      "dropped": "PYTHON*, GAUSSDET_* (GAUSSDET_MAX_N clamps sweeps)"},
    }


# -- runs -----------------------------------------------------------------------


class Run:
    """Passes of one workload within a time budget, with their failures.

    ``failed`` counts failed invocations; ``failures`` also holds checks on
    the run as a whole, such as counters that differ between traced passes.
    """

    def __init__(self, argvs, seconds: int, golden: dict) -> None:
        self.argvs = argvs
        self.seconds = seconds
        self.golden = golden
        self.env = child_env()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def has_time_for(self, pass_s: float) -> bool:
        return time.perf_counter() - self.started + pass_s <= self.seconds

    def fail(self, message: str, invocations: int = 1) -> None:
        self.failed += invocations
        self.failures.append(message)

    def one_pass(self, trace: bool = False) -> tuple[float, dict | None]:
        """Run and check a pass; the result is None when the child failed."""
        self.attempted += len(self.argvs)
        try:
            setup, result = run_child(self.argvs, self.env, trace)
        except ChildError as exc:
            self.fail(f"pass failed: {exc}", len(self.argvs))
            return 0.0, None
        for message in invocation_failures(self.argvs, result, self.golden):
            self.fail(message)
        return setup, result


def pass_wall(result: dict) -> float:
    return sum(inv["wall_s"] for inv in result["invocations"])


def steady_wall(results: list[dict]) -> float:
    """Sum over the invocations of each one's median host-adjusted wall time.

    An invocation's wall time times the host's speed measured around it (see
    child.py) is the time it takes at the host's nominal speed; the median is
    over the run's passes.
    """
    return sum(statistics.median(walls) for walls in zip(*(
        [inv["wall_s"] * inv["host_speed"] for inv in r["invocations"]] for r in results)))


def measure_end_to_end(run: Run) -> dict[str, float]:
    run_child([], run.env)  # warm-up: byte-compiles the sources once per checkout
    setups = [run_child([], run.env)[0] for _ in range(SETUP_SPAWNS)]
    results = []
    while True:
        pass_start = time.perf_counter()
        setup, result = run.one_pass()
        if result is not None:
            setups.append(setup)
            results.append(result)
        if not run.has_time_for(time.perf_counter() - pass_start):
            break
    if not results:
        raise ChildError("no pass completed: " + "; ".join(run.failures[:3]))
    print(f"{len(results)} passes, pass wall_s "
          + " ".join(f"{pass_wall(r):.4f}" for r in results)
          + ", host speed " + " ".join(
              f"{statistics.median(inv['host_speed'] for inv in r['invocations']):.2f}"
              for r in results)
          + f"; {len(setups)} set-ups, setup_s {min(setups):.4f}..{max(setups):.4f}")
    return {
        "wall_s": steady_wall(results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
    }


def is_time(name: str) -> bool:
    return name.endswith("_s") or name.endswith("us_per_minor")


def measure_layers(run: Run) -> dict[str, float]:
    """Alternate untraced and traced passes; report the median traced pass.

    Reporting one whole pass (the one with the median traced wall time) keeps
    the layer self times and trace.unattributed_s summing to trace.wall_s.
    """
    run_child([], run.env)
    untraced, traced = [], []
    while True:
        pass_start = time.perf_counter()
        _, plain = run.one_pass()
        _, result = run.one_pass(trace=True)
        if plain is not None:
            untraced.append(pass_wall(plain))
        if result is not None:
            if plain is not None:
                for argv, a, b in zip(run.argvs, plain["invocations"], result["invocations"]):
                    if a["digest"] != b["digest"]:
                        run.fail(f"{' '.join(argv)}: traced report differs")
            layers = dict(result["layers"])
            layers["trace.wall_s"] = pass_wall(result)
            layers["trace.unattributed_s"] = layers["trace.wall_s"] - sum(
                layers[name] for name in layers if name.endswith(".self_s"))
            traced.append(layers)
        if not run.has_time_for(time.perf_counter() - pass_start):
            break
    if not traced or not untraced:
        raise ChildError("no traced pass completed: " + "; ".join(run.failures[:3]))
    counts = [{k: v for k, v in t.items() if not is_time(k)} for t in traced]
    if any(c != counts[0] for c in counts):
        run.failures.append("size counters differ between traced passes")
    for t in traced:
        negative = [k for k, v in t.items() if is_time(k) and v < 0]
        if negative:
            run.failures.append(f"negative self time: {', '.join(negative)}")
    print(f"{len(traced)} traced passes, trace.wall_s "
          + " ".join(f"{t['trace.wall_s']:.4f}" for t in traced)
          + "; untraced wall_s " + " ".join(f"{w:.4f}" for w in untraced))
    traced.sort(key=lambda t: t["trace.wall_s"])
    metrics = dict(traced[(len(traced) - 1) // 2])
    metrics["trace.overhead_s"] = (
        statistics.median(t["trace.wall_s"] for t in traced) - statistics.median(untraced))
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("us_per_minor"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_coeff_bits"):
        return "bits"
    if name.endswith("max_degree"):
        return "degree"
    return "count"


def run_workload(name: str, args, golden: dict) -> tuple[Run, dict]:
    """Measure one workload, print its metrics readably; return the run and metrics."""
    run = Run(workload_argvs(name, args.seed), args.seconds, golden)
    if args.trace:
        values = measure_layers(run)
        units = {metric: per_layer_unit(metric) for metric in values}
    else:
        values = measure_end_to_end(run)
        units = END_TO_END_UNITS
    print(f"workload {name}, seed {args.seed}, "
          f"{len(run.argvs)} invocations per pass, {run.attempted} attempted")
    for failure in run.failures:
        print(f"FAIL {failure}")
    for metric in sorted(values):
        print(f"{name} {metric} = {values[metric]:.6g} {units[metric]}")
    if not args.trace:
        print(f"{name} fail_ratio = {run.failed / run.attempted:.6g} (failed / attempted)")
    return run, {metric: {"value": values[metric], "unit": units[metric]} for metric in sorted(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="'all' runs the three in turn; its metrics are prefixed by workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="time budget of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaussdet" / "cli.py").is_file():
        print(f"error: no gaussdet sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("env " + json.dumps(environment_record(), sort_keys=True))
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        try:
            run, values = run_workload(name, args, golden)
        except ChildError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        attempted += run.attempted
        failed += run.failed
        correct = correct and not run.failures
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + metric: value for metric, value in values.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
