"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

They run small fixed-work workers, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"


def _worker(*args):
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic(name):
    wl = workloads.WORKLOADS[name]
    first, again, other = (wl.rounds(3), wl.rounds(3), wl.rounds(4))
    for _ in range(2):
        order = next(first)
        assert order == next(again)
        assert order != next(other)
        assert sorted(order) == list(range(wl.pool))
    for i in order[:10]:
        assert wl.make(i) == wl.make(i)


def test_self_time_of_a_nested_span_tree():
    tr = tracer.Tracer()
    root = tr.add_span("ideal.member", 0.0, 10.0)
    a = tr.add_span("linalg.RowSpace.__init__", 1.0, 4.0, parent=root)
    tr.add_span("ring.Polynomial.__mul__", 2.0, 3.0, parent=a)
    tr.add_span("linalg.RowSpace.reduce", 5.0, 9.0, parent=root)
    assert tracer.self_times(tr.start, tr.end, tr.parent) == [3.0, 2.0, 1.0,
                                                               4.0]
    own = tracer.Summary(tr, total_s=12.0).layer_self()
    assert own["ideal"] == 3.0
    assert own["linalg"] == 6.0
    assert own["ring"] == 1.0
    assert own["other"] == 2.0


def test_inclusive_time_counts_recursion_once():
    tr = tracer.Tracer()
    outer = tr.add_span("n3lab.reduce_invariant", 0.0, 8.0)
    inner = tr.add_span("n3lab.reduce_orbit", 1.0, 7.0, parent=outer)
    tr.add_span("n3lab.reduce_invariant", 2.0, 6.0, parent=inner)
    summary = tracer.Summary(tr, total_s=8.0)
    assert summary.incl_s("n3lab.reduce_invariant") == 8.0
    assert summary.calls("n3lab.reduce_invariant") == 2


def test_corrupted_digest_makes_ops_fail():
    wl = workloads.WORKLOADS["matrix_search"]
    digests = json.loads(workloads.DIGEST_FILE.read_text())[wl.name]
    items = next(wl.rounds(5))[:50]
    inputs = [wl.make(i) for i in items]
    corrupted = list(digests)
    corrupted[items[0]] = "0" * 12
    clean, broken = worker.Gate(wl, digests), worker.Gate(wl, corrupted)
    for gate in (clean, broken):
        worker._run_ops(wl, items, inputs, [], gate)
    assert clean.failed == 0
    assert broken.failed / len(items) > 0


@pytest.mark.parametrize("name", ["member_stream", "matrix_search"])
def test_traced_run_gives_identical_outputs(name):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"selftest-{name}.jsonl.gz"
    plain = _worker("--workload", name, "--seed", "2", "--mode", "fixed")
    traced = _worker("--workload", name, "--seed", "2", "--mode", "fixed",
                     "--trace-file", str(spans))
    spans.unlink()
    assert plain["failed"] == traced["failed"] == 0
    assert plain["outputs"] == traced["outputs"]
    assert traced["per_layer"]["trace.spans"] > 0


def test_refuses_to_run_without_the_sources():
    bare = OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "matrix_search",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
