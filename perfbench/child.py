"""One pass of a workload, in a fresh process: ``python3 perfbench/child.py``.

Protocol on stdin/stdout, one JSON line each way:

1. after ``gaussdet.cli`` is imported (and, when tracing, the tracer is
   installed) the child prints ``{"ready": true}``;
2. it reads the job ``{"argvs": [[...], ...]}`` from stdin;
3. it calls ``gaussdet.cli.main(argv)`` for each argv in order, capturing
   the report, and prints one result line, then exits.

Each invocation is reported by exit code, wall time, outcome and a digest
of its JSON report without the top-level ``elapsed_ms``.  With ``--trace``
the tracer is installed before step 1 and the result carries its per-layer
summary.

Untraced, the child also times a fixed pure-Python loop every 50 ms from a
timer signal while the invocations run, and reports for each invocation the
host's speed around it: the mean over the loop's runs in a window around the
invocation of its nominal time over its time.  The loop's own time is taken
out of the invocation's wall time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time


PROBE_INTERVAL_S = 0.05
PROBE_LOOPS = 1000
# the probe loop's time on an uncontended core of a 2-vCPU Xeon VM
# (Python 3.11); a fixed reference, so speeds compare between runs
PROBE_NOMINAL_S = 0.00026
# probes this far before and after an invocation also count for it, so that
# a short invocation has about ten
PROBE_WINDOW_S = 0.25


def _probe_step(a: int) -> int:
    return (a * 31 + 7) & 1023


class HostProbe:
    """Times a fixed loop from a timer signal, to see how fast the host runs.

    On a shared host the same code runs up to 1.8x slower for seconds to
    minutes at a time; the loop slows with it, so an invocation's wall time
    times the host's speed is far steadier than the wall time alone.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        # calls, tuples and a small dict, like gaussdet's own interpreter work:
        # this slowed in step with gaussdet better than a bare arithmetic loop
        start = time.perf_counter()
        counts: dict[tuple[int, int], int] = {}
        for i in range(PROBE_LOOPS):
            key = (i & 63, _probe_step(i))
            counts[key] = counts.get(key, 0) + 1
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def within(self, start: float, end: float) -> float:
        """Time the probe itself spent between start and end."""
        return sum(d for t, d in self.samples if start <= t < end)

    def speed(self, start: float, end: float) -> float:
        """The host's mean speed around start..end, 1 at the nominal speed.

        The mean of speeds, not of times, is the work done per second, and an
        interrupted loop run barely moves it.
        """
        return statistics.fmean(PROBE_NOMINAL_S / d for t, d in self.samples
                                if start - PROBE_WINDOW_S <= t <= end + PROBE_WINDOW_S)


def report_digest(text: str) -> tuple[str, dict]:
    """Digest of a JSON report with its elapsed time removed, and the report.

    The report is re-serialized the way the CLI prints it, in its original
    key order, so a reordered or reformatted report changes the digest.
    """
    report = json.loads(text)
    report.pop("elapsed_ms", None)
    body = json.dumps(report, indent=2).encode()
    return hashlib.sha256(body).hexdigest()[:16], report


def main() -> None:
    import gaussdet.cli as cli

    tracer = None
    if "--trace" in sys.argv[1:]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    out = sys.stdout
    print(json.dumps({"ready": True}), file=out, flush=True)
    job = json.loads(sys.stdin.readline())

    results, spans = [], []
    clock = time.perf_counter
    probe = HostProbe()
    with contextlib.nullcontext() if tracer is not None else probe:
        for argv in job["argvs"]:
            buffer = io.StringIO()
            start = clock()
            try:
                try:
                    with contextlib.redirect_stdout(buffer), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(list(argv))
                finally:
                    spans.append((start, clock()))
                digest, report = report_digest(buffer.getvalue())
            except Exception as exc:  # a crash fails this invocation, not the pass
                results.append({"rc": None, "outcome": f"crash: {exc!r}",
                                "digest": None, "checks": None})
                continue
            checks = report["details"].get("checks")
            results.append({
                "rc": code,
                "outcome": report["outcome"],
                "digest": digest,
                "checks": None if checks is None else len(checks),
            })
    for inv, (start, end) in zip(results, spans):
        inv["wall_s"] = end - start - probe.within(start, end)
        if tracer is None:
            inv["host_speed"] = probe.speed(start, end)

    result = {
        "invocations": results,
        # Linux reports ru_maxrss in KiB
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracing.summary(tracer)
    print(json.dumps(result), file=out, flush=True)


if __name__ == "__main__":
    main()
