"""The benchmark's tracer patches sigmaforge from outside; these checks
keep the names it patches in place.

``Tracer.install`` wraps each method in ``tracer.METHODS`` through the
class's own ``__dict__``, so a method that moves to a base class, or is
deleted, breaks a traced run.  Its cache counters read the sizes of two
module-level caches by name.  A method that is present but bypassed
(arithmetic that calls the shared core past the name the tracer
wraps) would still pass the first check, so traced worker runs check
that the wrapped operators are counted.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from collections.abc import Sized
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_defined_on_their_own_classes():
    tracer = load_tracer()
    missing = []
    for layer, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"sigmaforge.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            missing.extend(f"{layer}.{cls_name}.{meth}" for meth in methods
                           if meth not in vars(cls))
    assert missing == []


def test_counted_caches_are_module_level_and_sized():
    tracer = load_tracer()
    for hook, layer, attr in (("ideal.degree_slice", "ideal", "_slice_cache"),
                              ("n3lab.reduce_orbit", "n3lab", "_S_CACHE")):
        cache = getattr(importlib.import_module(f"sigmaforge.{layer}"), attr)
        assert isinstance(cache, Sized), f"{layer}.{attr}"
        size, _ = tracer.HOOKS[hook]
        assert size() == len(cache)


@pytest.mark.parametrize("workload,counters", [
    ("n3_symbolic", ("sigma.commpoly_ops",)),
    ("member_stream", ("ring.add_calls", "ring.mul_calls",
                       "linalg.reduce_calls")),
])
def test_traced_worker_counts_the_wrapped_operators(tmp_path, workload,
                                                    counters):
    spans = tmp_path / f"{workload}.jsonl.gz"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "3", "--mode", "fixed",
         "--trace-file", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    for name in counters:
        assert result["per_layer"][name] > 0, name
