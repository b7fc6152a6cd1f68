"""Self-tests of the benchmark harness (about two minutes).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_OPS = {"torus-build": 1, "torus-query": 12, "torus-interleave": 1, "squares-q": 2}
TRACE_RUN_METRICS = {
    "trace.op_s_p50": "s",
    "trace.untraced_op_s_p50": "s",
    "trace.overhead_s": "s",
    "trace.ops": "count",
}


def test_every_binding_is_wrapped_then_restored():
    before = tracer.unwrapped_bindings()
    assert "decomap.convergence.homology -> homology.homology" in before
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.unwrapped_bindings() == []
    finally:
        t.uninstall()
    assert tracer.unwrapped_bindings() == before


def test_scan_finds_a_missed_binding():
    from decomap import convergence

    t = tracer.Tracer()
    t.install()
    try:
        wrapped = convergence.homology
        convergence.homology = wrapped.__perfbench_original__
        try:
            assert tracer.unwrapped_bindings() == [
                "decomap.convergence.homology -> homology.homology"
            ]
        finally:
            convergence.homology = wrapped
    finally:
        t.uninstall()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_outputs_match_untraced(name):
    wl = workloads.WORKLOADS[name]
    plain = worker.run_ops(wl, wl.prepare(2), n_ops=SMALL_OPS[name])
    t = tracer.Tracer()
    t.install()
    try:
        traced = worker.run_ops(wl, wl.prepare(2), n_ops=SMALL_OPS[name], tracer=t)
    finally:
        t.uninstall()
    assert plain.errors == [] and traced.errors == []
    assert traced.digests == plain.digests
    assert t.spans and (name == "squares-q") == bool(
        [e for e in t.elims if e["field"] == "q"]
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat(name):
    wl = copy.copy(workloads.WORKLOADS[name])
    wl.trace_ops = SMALL_OPS[name]
    runs = [worker.traced_run(wl, seed=3) for _ in range(2)]
    for phase, _, extra in runs:
        assert phase.errors == [] and extra["run_errors"] == []

    def counts(metrics):
        return {k: value for k, (value, unit) in metrics.items() if unit != "s"}

    first, second = (counts(metrics) for _, metrics, _ in runs)
    assert first == second
    assert first["exactlinalg.eliminations"] > 0


def test_benchmark_json_lists_what_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == worker.E2E_UNITS
    layer_metrics, _ = tracer.Tracer().summary()
    reported = {k: unit for k, (_, unit) in layer_metrics.items()} | TRACE_RUN_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_query_blocks_keep_the_same_mix():
    state = workloads.TorusQuery().prepare(5)
    stream = state["stream"]
    for b in range(2):
        block = [stream[b * workloads.QUERY_BLOCK + t] for t in range(workloads.QUERY_BLOCK)]
        firsts = {}
        for t, (k, v) in enumerate(block):
            firsts.setdefault(k, (t, v))
            assert v == firsts[k][1]
        assert len(firsts) == 40
        assert sorted(t for t, _ in firsts.values()) == [
            t for t in range(workloads.QUERY_BLOCK) if workloads._is_cold(t)
        ]


def test_query_blocks_start_from_the_same_caches():
    wl = workloads.TorusQuery()
    state = wl.prepare(5)
    # the oracle's homology cache and the cosheaf's restriction cache;
    # each op calls into each of them once, so a hit is an op that left
    # the cache's size unchanged
    caches = [cache for cache, _ in state["caches"][:2]]
    hits = [[0] * len(caches) for _ in range(2)]
    for i in range(2 * workloads.QUERY_BLOCK):
        inp = wl.inputs(state, i)
        before = [len(c) for c in caches]
        assert wl.check(state, inp, wl.op(state, inp)) is None
        block = hits[i // workloads.QUERY_BLOCK]
        for n, (c, size) in enumerate(zip(caches, before)):
            block[n] += len(c) == size
    assert hits[1] == hits[0]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "squares-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
