"""The benchmark's tracer patches sigmaforge from outside; these checks
keep the names it patches in place.

``Tracer.install`` wraps each method in ``tracer.METHODS`` through the
class's own ``__dict__``, so a method that moves to a base class, or is
deleted, breaks a traced run.  Its cache counters read the sizes of two
module-level caches by name.
"""

import importlib
import importlib.util
from collections.abc import Sized
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
