"""One benchmark process: set up, then run one workload's ops.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--seconds T] [--trace-file PATH]

Modes:
  setup   set up, print READY and exit (a set-up time sample)
  timed   set up, print READY, then run whole rounds of ops until their
          timed duration reaches T seconds; latencies and durations are
          scaled to the reference speed (see speed.py)
  fixed   set up, print READY, then run the first ``fixed_ops`` ops of the
          seed's first round; with --trace-file the layers are traced and the
          spans written to PATH
  record  print the digest of every pool item as one JSON list

The last line of stdout is a JSON result.  Run it through ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import sigmaforge.cli

    where = Path(sigmaforge.cli.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"sigmaforge imported from {where}, not {SRC}")


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Gate:
    """Checks op outputs against the recorded digests, outside timing."""

    def __init__(self, wl, digests):
        self.wl = wl
        self.digests = digests
        self.failed = 0
        self.trail = hashlib.sha256()
        self._checked = {}

    def __call__(self, i, x, out):
        if isinstance(out, Exception):
            text = f"raised {type(out).__name__}: {out}"
            ok = False
        else:
            text = self.wl.render(x, out)
            d = _digest(text)
            ok = i < len(self.digests) and d == self.digests[i]
            if ok:
                key = (i, d)
                if key not in self._checked:
                    self._checked[key] = self.wl.check(x, out)
                ok = self._checked[key]
        self.trail.update(text.encode() + b"\0")
        self.failed += not ok


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _run_ops(wl, items, inputs, lat, gate, tracer=None):
    """Closed loop over pre-made inputs; returns the loop's duration."""
    outs = []
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    for x in inputs:
        if tracer is not None:
            tracer.op_id += 1
        t = perf_counter()
        try:
            out = wl.run(x)
        except Exception as exc:  # a raising op is a failed op
            out = exc
        lat.append(perf_counter() - t)
        outs.append(out)
    wall = perf_counter() - start
    if tracer is not None:
        tracer.active = False
    for i, x, out in zip(items, inputs, outs):
        gate(i, x, out)
    return wall


def _run_probed(wl, items, inputs, lat, gate, tracer=None):
    """_run_ops in chunks of ``probe_every`` ops with a speed probe
    between chunks; each chunk's latencies are scaled by the mean of
    the probes on its two sides.  Returns (raw, scaled) duration."""
    raw = scaled = 0.0
    kind = speed.WORKLOAD_PROBE[wl.name]
    before = speed.probe(kind)
    step = wl.probe_every
    for lo in range(0, len(inputs), step):
        chunk = []
        wall = _run_ops(wl, items[lo:lo + step], inputs[lo:lo + step],
                        chunk, gate, tracer)
        after = speed.probe(kind)
        factor = speed.REFERENCE_S[kind] / ((before + after) / 2)
        lat.extend(t * factor for t in chunk)
        raw += wall
        scaled += wall * factor
        before = after
    return raw, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "fixed", "record"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    t0 = perf_counter()
    _import_package()
    t_import = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = None
    in_children = isinstance(wl, workloads.CertifyCold)
    if args.trace_file and not in_children:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.add_span("cli.import", t0, t_import)
        tracer.install()
        tracer.active = True
    wl.setup()
    setup_s = perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if args.mode == "record":
        digests = [_digest(wl.render(x, wl.run(x)))
                   for x in map(wl.make, range(wl.pool))]
        print(json.dumps(digests))
        return 0

    with open(workloads.DIGEST_FILE) as fh:
        gate = Gate(wl, json.load(fh)[wl.name])
    rounds = wl.rounds(args.seed)
    lat = []
    wall = raw_wall = 0.0
    spans_dir = None
    if args.mode == "timed":
        made = [wl.make(i) for i in range(wl.pool)]
        while raw_wall < args.seconds:
            items = next(rounds)
            wl.start_round()
            raw, scaled = _run_probed(wl, items, [made[i] for i in items],
                                      lat, gate)
            raw_wall += raw
            wall += scaled
    else:
        items = next(rounds)[:wl.fixed_ops]
        inputs = [wl.make(i) for i in items]
        if args.trace_file and in_children:
            spans_dir = tempfile.mkdtemp(prefix="spans-",
                                         dir=Path(args.trace_file).parent)
            wl.trace_dir = spans_dir
        wl.start_round()
        raw_wall, wall = _run_probed(wl, items, inputs, lat, gate, tracer)

    result = {
        "ops": len(lat),
        "failed": gate.failed,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3
        if len(lat) > 1 else lat[0] * 1e3,
        "peak_rss_mb": _peak_rss_mb(in_children),
        "outputs": gate.trail.hexdigest(),
    }
    if args.trace_file:
        import tracer as tracing

        total = setup_s + raw_wall  # spans are not speed-scaled
        if spans_dir is not None:
            tracer = tracing.Tracer()
            for k in range(len(lat)):
                path = Path(spans_dir) / f"op-{k + 1}.jsonl.gz"
                tracer.load(path, op=k)
                os.remove(path)
            os.rmdir(spans_dir)
            total = raw_wall
        result["per_layer"] = tracing.layer_metrics(tracer, total)
        tracer.write(args.trace_file, header={"workload": wl.name,
                                              "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
