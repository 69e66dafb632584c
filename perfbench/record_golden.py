"""Record golden.json: the digest of every report the benchmark can request.

    python3 perfbench/record_golden.py

Covers the fixed invocations of verify-all and symbolic-n15, the multiset
sweep, and every instance the identities-wide draw can pick, so the
benchmark checks reports on every seed.  Each invocation must exit 0 with
outcome ``pass`` to be recorded.  The file pins the reports of the commit it
was recorded at; a change that alters a report fails the benchmark.
"""

from __future__ import annotations

import json
import sys

import run

CHUNK = 300


def main() -> int:
    argvs = run.workload_argvs("verify-all", run.DEFAULT_SEED)
    argvs += run.workload_argvs("symbolic-n15", run.DEFAULT_SEED)
    argvs += [["multiset", "--sweep", "--format", "json"], *run.draw_space()]
    env = run.child_env()
    golden = {}
    for first in range(0, len(argvs), CHUNK):
        chunk = argvs[first:first + CHUNK]
        _, result = run.run_child(chunk, env)
        for argv, inv in zip(chunk, result["invocations"], strict=True):
            key = " ".join(argv)
            if inv["rc"] != 0 or inv["outcome"] != "pass":
                print(f"error: {key}: exit {inv['rc']}, outcome {inv['outcome']}",
                      file=sys.stderr)
                return 1
            golden[key] = inv["digest"]
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
