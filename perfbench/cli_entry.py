"""Traced CLI process for the certify_cold workload.

    python3 perfbench/cli_entry.py SPANS.jsonl.gz ARGS...

Imports sigmaforge from the checkout's ``src``, wraps its layers, runs
``sigmaforge.cli.main(ARGS)`` and writes the spans to SPANS.jsonl.gz.  The
exit code and stdout are those of the CLI.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import sigmaforge.cli  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    tr = tracer.Tracer()
    tr.add_span("cli.import", t0, perf_counter())
    tr.install()
    tr.active = True
    try:
        rc = sigmaforge.cli.main(sys.argv[2:])
    finally:
        tr.active = False
        sys.stdout.flush()
        tr.write(sys.argv[1])
    return rc


if __name__ == "__main__":
    sys.exit(main())
