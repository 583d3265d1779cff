"""In-memory span tracer that wraps sigmaforge's layers from outside.

``Tracer.install()`` replaces every public function of each layer module
with a wrapper that records a span, and does the same for a few methods
on their classes (``Polynomial.__mul__``, ``RowSpace.reduce``,
``DegreeSlice.certificate_for`` and so on).  A function that another
module imported by value (``n3lab.member``, ``n3lab.degree_slice``,
``n3lab.orbit_decompose``, ...) is replaced where that module looks it
up too.  Nothing under ``src`` is edited.

A span is (name, start, end, parent span, op id); spans live in flat
arrays and are written out as JSON lines when the run ends.  Counters
(rows in, rank out, cache hits, ...) are attached to the span they were
measured at.  Counter work runs inside ``trace.hook`` spans, so it is
kept out of every layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
from array import array
from time import perf_counter

LAYERS = ("ring", "sigma", "cyclic", "atoms", "rewrite", "ideal", "linalg",
          "n3lab", "matmodel", "cli")
HOOK = "trace.hook"

# methods wrapped on their class, by layer
METHODS = {
    "ring": {"Polynomial": ("__add__", "__sub__", "__neg__", "__mul__",
                            "__pow__")},
    "sigma": {"CommPoly": ("__add__", "__sub__", "__neg__", "__mul__",
                           "__pow__")},
    "rewrite": {"AtomExpression": ("add_term", "evaluate", "render")},
    "ideal": {"DegreeSlice": ("__init__", "vector_of", "contains",
                              "residual", "certificate_for")},
    "linalg": {"RowSpace": ("__init__", "reduce", "contains")},
    "n3lab": {"SReduced": ("__add__", "__sub__", "__mul__", "scale",
                           "mul_c", "render")},
}
# private functions that carry a per-layer metric
PRIVATE = {"cli": ("_emit_units",)}


def _nnz(row) -> int:
    if isinstance(row, dict):
        return sum(1 for x in row.values() if x)
    return sum(1 for x in row if x)


def _normalized(row):
    """Sparse, content-free, sign-fixed form of an integer row."""
    items = sorted((c, int(v)) for c, v in (
        row.items() if isinstance(row, dict) else enumerate(row)) if v)
    if not items:
        return ()
    g = 0
    for _, v in items:
        g = math.gcd(g, v)
    if items[0][1] < 0:
        g = -g
    return tuple((c, v // g) for c, v in items)


def _rowspace_counts(tr, sid, pre, args, kwargs, out):
    space, rows = args[0], args[1]
    if not isinstance(rows, (list, tuple)):
        return
    distinct = {_normalized(r) for r in rows}
    distinct.discard(())
    tr.count(sid, rows_in=len(rows), rows_distinct=len(distinct),
             nnz_in=sum(_nnz(r) for r in rows), rank_out=space.rank,
             nnz_rref=sum(_nnz(r) for r in space._rows))


def _slice_counts(tr, sid, pre, args, kwargs, out):
    tr.count(sid, cols=len(args[0].basis))


def _mul_counts(tr, sid, pre, args, kwargs, out):
    terms = getattr(out, "terms", None)
    if terms is not None:
        tr.count(sid, terms_out=len(terms))


def _cache_hooks(layer, attr):
    """A hit or a miss, from whether a module-level cache grew across
    the call."""
    def size(args=None, kwargs=None):
        return len(getattr(sys.modules[f"sigmaforge.{layer}"], attr))

    def after(tr, sid, pre, args, kwargs, out):
        grew = size() > pre
        tr.count(sid, misses=int(grew), hits=int(not grew))

    return size, after


def _candidate_counts(tr, sid, pre, args, kwargs, out):
    tr.count(sid, candidates=int(out[1] is not None))


# name -> (before(args, kwargs) -> state, after(tr, sid, state, args, kwargs, out))
HOOKS = {
    "linalg.RowSpace.__init__": (None, _rowspace_counts),
    "ideal.DegreeSlice.__init__": (None, _slice_counts),
    "ring.Polynomial.__mul__": (None, _mul_counts),
    "ideal.degree_slice": _cache_hooks("ideal", "_slice_cache"),
    "n3lab.reduce_orbit": _cache_hooks("n3lab", "_S_CACHE"),
    "matmodel.examine_tuple": (None, _candidate_counts),
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.nid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.counters = {}
        self.stack = []
        self.active = False
        self.op_id = -1
        self._hook = self.name_id(HOOK)

    # -- recording ---------------------------------------------------

    def name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def begin(self, nid: int) -> int:
        sid = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int):
        self.end[sid] = perf_counter()
        self.stack.pop()

    def add_span(self, name, start, end, op=-1, parent=-1) -> int:
        sid = len(self.nid)
        self.nid.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return sid

    def count(self, sid: int, **values):
        got = self.counters.setdefault(sid, {})
        for k, v in values.items():
            got[k] = got.get(k, 0) + v

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        before, after = HOOKS.get(name, (None, None))
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            sid = tr.begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.finish(sid)
            if after:
                hid = tr.begin(tr._hook)
                try:
                    after(tr, sid, pre, args, kwargs, out)
                finally:
                    tr.finish(hid)
            return out

        return traced

    # -- installing ----------------------------------------------------

    def install(self):
        """Wrap every layer; callers' by-value imports included."""
        modules = {layer: importlib.import_module(f"sigmaforge.{layer}")
                   for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(cls.__dict__[meth],
                                                 f"{layer}.{cls_name}.{meth}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                got = replaced.get(id(obj))
                if got is not None and got[0] is obj:
                    setattr(mod, attr, got[1])

    # -- output ----------------------------------------------------------

    def records(self):
        for sid in range(len(self.nid)):
            rec = {"span": sid, "name": self.names[self.nid[sid]],
                   "start": self.start[sid], "end": self.end[sid],
                   "parent": self.parent[sid], "op": self.op[sid]}
            if sid in self.counters:
                rec["counters"] = self.counters[sid]
            yield rec

    def write(self, path, header=None):
        """Gzip-compressed JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            if header is not None:
                fh.write(json.dumps(header) + "\n")
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")

    def load(self, path, op: int):
        """Append the spans a child process wrote, under one op id."""
        base = len(self.nid)
        with gzip.open(path, "rt") as fh:
            for line in fh:
                rec = json.loads(line)
                if "span" not in rec:
                    continue
                parent = rec["parent"]
                sid = self.add_span(rec["name"], rec["start"], rec["end"],
                                    op=op,
                                    parent=parent + base if parent >= 0 else -1)
                if "counters" in rec:
                    self.counters[sid] = rec["counters"]


def self_times(starts, ends, parents):
    """Each span's duration minus the time its direct children cover."""
    own = [e - s for s, e in zip(starts, ends)]
    for sid, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[sid] - starts[sid]
    return own


class Summary:
    """Per-name and per-layer aggregates of one tracer's spans."""

    def __init__(self, tr: Tracer, total_s: float):
        self.tr = tr
        self.total_s = total_s
        self.own = self_times(tr.start, tr.end, tr.parent)
        self.by_name = {}
        for sid, nid in enumerate(tr.nid):
            self.by_name.setdefault(tr.names[nid], []).append(sid)

    def calls(self, *names) -> int:
        return sum(len(self.by_name.get(n, ())) for n in names)

    def self_s(self, *names) -> float:
        return sum(self.own[sid] for n in names for sid in self.by_name.get(n, ()))

    def incl_s(self, name) -> float:
        """Inclusive time of the spans with no same-named ancestor."""
        tr = self.tr
        total = 0.0
        nid = tr._name_ids.get(name)
        for sid in self.by_name.get(name, ()):
            p = tr.parent[sid]
            while p >= 0 and tr.nid[p] != nid:
                p = tr.parent[p]
            if p < 0:
                total += tr.end[sid] - tr.start[sid]
        return total

    def counter(self, name, key) -> float:
        got = self.tr.counters
        return sum(got.get(sid, {}).get(key, 0)
                   for sid in self.by_name.get(name, ()))

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS + ("trace",), 0.0)
        for name, sids in self.by_name.items():
            layer = name.split(".", 1)[0]
            out[layer] += sum(self.own[sid] for sid in sids)
        out["other"] = self.total_s - sum(out.values())
        return out

    def children_incl(self, parent_name, layers) -> float:
        """Time of direct children in the given layers, under spans of one name."""
        tr = self.tr
        pid = tr._name_ids.get(parent_name)
        total = 0.0
        for sid, p in enumerate(tr.parent):
            if p >= 0 and tr.nid[p] == pid \
                    and tr.names[tr.nid[sid]].split(".", 1)[0] in layers:
                total += tr.end[sid] - tr.start[sid]
        return total


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, total_s: float) -> dict:
    """The per-layer metrics of one traced run, by metric name."""
    s = Summary(tr, total_s)
    poly = "ring.Polynomial."
    comm = ["sigma.CommPoly." + m for m in METHODS["sigma"]["CommPoly"]]
    rs = "linalg.RowSpace.__init__"
    slice_rows = sum(
        tr.counters.get(sid, {}).get("rows_in", 0)
        for sid in s.by_name.get(rs, ())
        if tr.parent[sid] >= 0
        and tr.names[tr.nid[tr.parent[sid]]] == "ideal.DegreeSlice.__init__")
    m = {
        "linalg.rowspace_builds": s.calls(rs),
        "linalg.rowspace_s": s.incl_s(rs),
        "linalg.rows_in": s.counter(rs, "rows_in"),
        "linalg.rank_out": s.counter(rs, "rank_out"),
        "linalg.rank_per_row": _ratio(s.counter(rs, "rank_out"),
                                      s.counter(rs, "rows_distinct")),
        "linalg.nnz_in": s.counter(rs, "nnz_in"),
        "linalg.nnz_rref": s.counter(rs, "nnz_rref"),
        "linalg.reduce_calls": s.calls("linalg.RowSpace.reduce"),
        "linalg.reduce_s": s.incl_s("linalg.RowSpace.reduce"),
        "ideal.slice_builds": s.calls("ideal.DegreeSlice.__init__"),
        "ideal.slice_build_s": s.self_s("ideal.DegreeSlice.__init__"),
        "ideal.slice_rows": slice_rows,
        "ideal.slice_cols": s.counter("ideal.DegreeSlice.__init__", "cols"),
        "ideal.slice_cache_hits": s.counter("ideal.degree_slice", "hits"),
        "ideal.slice_cache_misses": s.counter("ideal.degree_slice", "misses"),
        "ideal.member_calls": s.calls("ideal.member"),
        "ideal.member_s": s.incl_s("ideal.member") - s.children_incl(
            "ideal.member", ("ideal", "linalg")),
        "ideal.residual_s": s.incl_s("ideal.DegreeSlice.residual"),
        "ideal.certificate_s": s.incl_s("ideal.DegreeSlice.certificate_for"),
        "ring.mul_calls": s.calls(poly + "__mul__"),
        "ring.mul_s": s.self_s(poly + "__mul__"),
        "ring.mul_terms_out": s.counter(poly + "__mul__", "terms_out"),
        "ring.add_calls": s.calls(poly + "__add__"),
        "ring.add_s": s.self_s(poly + "__add__", poly + "__sub__",
                               poly + "__neg__"),
        "ring.basis_words_s": s.incl_s("ring.basis_words"),
        "sigma.build_sigma_s": s.incl_s("sigma.build_sigma"),
        "sigma.commpoly_ops": s.calls(*comm),
        "sigma.commpoly_s": s.self_s(*comm),
        "cyclic.orbit_polynomial_calls": s.calls("cyclic.orbit_polynomial"),
        "cyclic.orbit_polynomial_s": s.incl_s("cyclic.orbit_polynomial"),
        "cyclic.act_s": s.self_s("cyclic.act"),
        "atoms.orbit_max_calls": s.calls("atoms.orbit_max"),
        "atoms.orbit_max_s": s.incl_s("atoms.orbit_max"),
        "atoms.factor_calls": s.calls("atoms.factor_atoms"),
        "atoms.factor_s": s.incl_s("atoms.factor_atoms"),
        "rewrite.orbit_decompose_calls": s.calls("rewrite.orbit_decompose"),
        "rewrite.orbit_decompose_s": s.incl_s("rewrite.orbit_decompose"),
        "rewrite.rewrite_invariant_s": s.incl_s("rewrite.rewrite_invariant"),
        "n3lab.reduce_invariant_s": s.incl_s("n3lab.reduce_invariant"),
        "n3lab.reduce_orbit_calls": s.calls("n3lab.reduce_orbit"),
        "n3lab.orbit_cache_hit_ratio": _ratio(
            s.counter("n3lab.reduce_orbit", "hits"),
            s.calls("n3lab.reduce_orbit")),
        "n3lab.expand_to_ring_s": s.incl_s("n3lab.expand_to_ring"),
        "n3lab.suite_s": s.incl_s("n3lab.verify_n3_suite"),
        "matmodel.tuples": s.calls("matmodel.examine_tuple"),
        "matmodel.check_c12_s": s.incl_s("matmodel.check_c12"),
        "matmodel.mat_mul_calls": s.calls("matmodel.mat_mul"),
        "matmodel.mat_mul_s": s.incl_s("matmodel.mat_mul"),
        "matmodel.mat_rank_calls": s.calls("matmodel.mat_rank"),
        "matmodel.mat_rank_s": s.incl_s("matmodel.mat_rank"),
        "matmodel.candidate_ratio": _ratio(
            s.counter("matmodel.examine_tuple", "candidates"),
            s.calls("matmodel.examine_tuple")),
        "cli.import_s": s.incl_s("cli.import"),
        "cli.main_s": s.incl_s("cli.main"),
        "cli.emit_s": s.incl_s("cli._emit_units"),
    }
    own = s.layer_self()
    traced = total_s - own["trace"]
    for layer in LAYERS + ("other",):
        m[f"{layer}.self_s"] = own[layer]
        m[f"{layer}.self_share"] = _ratio(own[layer], traced)
    m["trace.hook_s"] = own["trace"]
    m["trace.spans"] = len(tr.nid)
    return m

