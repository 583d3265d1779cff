"""The sigmaforge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --steadiness K [--workload NAME ...] [--seed N]
    python3 perfbench/run.py --record-digests

One run measures one workload.  The program is built from this
checkout's ``src``; nothing is installed.  Every op is seeded, and the
loop is closed: one client, and the next op starts when the previous
one has returned.

``--trace 0`` prints the end-to-end metrics: set-up is measured in
several fresh processes (``setup_s`` is their median); one of them then
runs whole rounds of ops until their timed duration reaches T seconds.

``--trace 1`` prints the per-layer metrics.  It runs the same fixed
list of ops twice, in two fresh processes, first untraced and then
traced, checks that both give identical outputs, and reports the
traced/untraced time as ``trace.overhead_ratio``.  Spans go to
``perfbench/out/``.

Every op's output is checked against ``digests.json``, recorded at the
commit that introduced the benchmark.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 when the run completed, whatever the gates found, and
nonzero, with no result line, when it could not run.

The holdout seed is 7919: it was not used while tuning the benchmark,
and a later claim of a gain must also hold on it.

``--steadiness K`` runs each workload K times with seeds N, N+1, ... and
prints, for every end-to-end metric, the median and the spread between
the quartiles as a share of the median, flagging spreads over the
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("certify_cold", "member_stream", "n3_symbolic", "matrix_search")
SETUP_REPS = {"member_stream": 5}
TIMEOUT_S = 150  # per worker; a hung worker is stopped


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def fingerprint(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "commit": _commit(), "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def _commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(workload, seed, mode, seconds=None, trace_file=None):
    """Start a worker; return (seconds from spawn to READY, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT_S, proc.terminate)
    watchdog.start()
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = perf_counter() - t0
            elif line.strip():
                last = line
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
    if rc != 0 or ready is None:
        raise BenchError(f"worker {workload} ({mode}) exited with {rc}")
    return ready, (json.loads(last) if mode != "setup" else None)


def _setup_sample(workload, seed, mode, seconds=None):
    """Spawn-to-READY time, scaled by a speed probe taken just before."""
    factor = speed.factor(workload)
    ready, res = _worker(workload, seed, mode, seconds)
    return ready * factor, res


def run_end_to_end(workload, seed, seconds):
    samples = []
    for _ in range(SETUP_REPS.get(workload, 9) - 1):
        samples.append(_setup_sample(workload, seed, "setup")[0])
    ready, res = _setup_sample(workload, seed, "timed", seconds)
    samples.append(ready)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (res["ops"] / res["wall_s"], "1/s"),
        "op_p50_ms": (res["op_p50_ms"], "ms"),
        "op_p90_ms": (res["op_p90_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    info = {"ops": res["ops"], "wall_s": res["wall_s"],
            "raw_wall_s": res["raw_wall_s"],
            "setup_samples": len(samples),
            "failed_frac": res["failed"] / res["ops"]}
    return res["ops"], res["failed"], metrics, info


def run_traced(workload, seed):
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-{seed}.jsonl.gz"
    _, plain = _worker(workload, seed, "fixed")
    _, traced = _worker(workload, seed, "fixed", trace_file=trace_file)
    same = plain["outputs"] == traced["outputs"]
    failed = plain["failed"] + traced["failed"] + (0 if same else traced["ops"])
    units = {"_s": "s", "_calls": "count", "_ops": "count", "_ratio": "ratio",
             "_share": "ratio", "_row": "ratio"}
    metrics = {}
    for name, value in traced["per_layer"].items():
        unit = next((u for suf, u in units.items() if name.endswith(suf)),
                    "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"],
                                      "ratio")
    info = {"ops": traced["ops"], "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"], "outputs_identical": same,
            "trace_file": str(trace_file.relative_to(ROOT))}
    return plain["ops"] + traced["ops"], failed, metrics, info


def run_one(args) -> int:
    if not (ROOT / "src" / "sigmaforge" / "__init__.py").is_file():
        raise BenchError(f"no sigmaforge sources under {ROOT / 'src'}")
    if args.trace:
        attempted, failed, metrics, info = run_traced(args.workload, args.seed)
    else:
        attempted, failed, metrics, info = run_end_to_end(
            args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, **fingerprint(args.seed), **info,
              "attempted": attempted, "failed": failed,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "commit", "nproc", "cpu", "python",
                       "platform")}))
    for k, v in info.items():
        print(f"{k} = {v}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def steadiness(args) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    report = {}
    for wl in args.workloads or WORKLOADS:
        values = {}
        for k in range(args.steadiness):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(args.seed + k), "--seconds", str(seconds),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed={args.seed + k} failed={res['failed']} " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = "OVER" if bound is not None and spread > bound else (
                "over 1/3" if bound is not None and spread > bound / 3 else "ok")
            report.setdefault(wl, {})[name] = {
                "median": med, "spread": spread, "bound": bound,
                "values": vals}
            print(f"  {wl:14s} {name:12s} median={med:<10.4g} "
                  f"spread={spread:.3f} bound={bound} {flag}", flush=True)
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps(report, indent=1))
    return 0


def record_digests() -> int:
    digests = {}
    for wl in WORKLOADS:
        _, digests[wl] = _worker(wl, 0, "record")
    (HERE / "digests.json").write_text(json.dumps(digests) + "\n")
    return 0


def stop_on_sigterm():
    """Turn SIGTERM into SystemExit, so that ``finally`` blocks stop and
    wait for the processes this one started."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", dest="workloads",
                    choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    stop_on_sigterm()
    speed.pin_to_one_cpu()
    try:
        if args.record_digests:
            return record_digests()
        if args.steadiness:
            return steadiness(args)
        if not args.workloads or len(args.workloads) != 1:
            ap.error("name exactly one --workload")
        args.workload = args.workloads[0]
        args.seconds = args.seconds or 10.0
        return run_one(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
