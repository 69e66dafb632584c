"""Exact counts from the tracer, which later changes may cite as evidence.

    python3 -m pytest -q perfbench/test_counts.py

Each pass runs in a child process, as in the benchmark, so the tracer's
patching never touches the interpreter running the tests.  A tracer that
wrapped only the defining modules would miss the calls made through
``from .x import name`` aliases (cli -> tpprobe, closedform -> multisets)
and fail the counts below.
"""

from __future__ import annotations

import json

import pytest

import run
import tracer

ENV = run.child_env()


def traced_pass(argvs, golden=None) -> dict:
    _, result = run.run_child(argvs, ENV, trace=True)
    if golden is not None:
        assert run.invocation_failures(argvs, result, golden) == []
    layers = result["layers"]
    wall = run.pass_wall(result)
    self_times = [v for k, v in layers.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0
    # the layers cover the invocations: little time falls outside every span
    assert 0 <= wall - sum(self_times) <= max(0.05 * wall, 0.01)
    return layers


def counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not run.is_time(k)}


def test_tp_check_n3_counts_19_minors():
    layers = traced_pass([["tp-check", "--n", "3", "--eta", "1/2", "--format", "json"]])
    assert layers["tpprobe.minors"] == 19
    assert layers["tpprobe.calls"] == 1
    assert layers["cli.invocations"] == 1


@pytest.fixture(scope="module")
def golden():
    return json.loads(run.GOLDEN.read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_traced_passes_give_identical_counts(workload, golden):
    argvs = run.workload_argvs(workload, run.DEFAULT_SEED)
    first = traced_pass(argvs, golden)
    second = traced_pass(argvs, golden)
    assert counts(first) == counts(second)
    if workload == "verify-all":
        assert first["tpprobe.minors"] == 23_495
        assert first["neville.oracle_permutations"] == 873
        assert max(tracer.LAYERS, key=lambda n: first[f"{n}.self_s"]) == "tpprobe"
    else:
        assert first["tpprobe.self_s"] == 0
    if workload == "symbolic-n15":
        assert first["multisets.enumerate_calls"] == 1_925
        assert first["neville.oracle_permutations"] == 5_040
