"""Machine-speed probes for normalizing timings.

On a shared machine the same pure-Python work runs a third slower in
some minutes than in others, and up to 2.5 times slower within an hour.
A probe is a fixed task of the same
kind as a workload's own work that does not use sigmaforge, so a change
to sigmaforge cannot change it:

  rows    integer row elimination, as in linalg (certify_cold, member_stream)
  poly    sparse polynomial products over Fractions, as in ring and sigma
          (n3_symbolic)
  matrix  products of small integer tuple-matrices, as in matmodel
          (matrix_search)

Timings are scaled by ``REFERENCE_S[kind] / probe(kind)``, measured next
to them, so a slow minute scales back to the reference speed.
"""

from __future__ import annotations

import os
import random
import statistics
from fractions import Fraction
from time import perf_counter

#: median probe times on the machine the benchmark was tuned on
#: (2-core Xeon VM, CPython 3.11.7)
REFERENCE_S = {"rows": 0.004, "poly": 0.003, "matrix": 0.0045}

_rng = random.Random(1)
_ROWS = [[_rng.randint(-3, 3) for _ in range(200)] for _ in range(20)]
_POLY = {(_rng.randint(0, 3), _rng.randint(0, 3), _rng.randint(0, 2)):
         Fraction(_rng.randint(-9, 9), _rng.randint(1, 4)) for _ in range(24)}
_MATS = [tuple(tuple(_rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
         for _ in range(4)]
_PRIME = 1000003


def _rows():
    rows = [list(r) for r in _ROWS]
    for j in range(8):
        piv = rows[j]
        lead = piv[j] or 1
        for r in rows[j + 1:]:
            f = r[j]
            if f:
                for k in range(j, len(r)):
                    r[k] = (lead * r[k] - f * piv[k]) % _PRIME
    return rows[-1][-1]


def _poly():
    prod = {}
    for e1, c1 in _POLY.items():
        for e2, c2 in _POLY.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod[e] = prod.get(e, Fraction(0)) + c1 * c2
    return len(prod)


def _matrix():
    acc = _MATS[0]
    for m in _MATS[1:] * 100:
        cols = tuple(zip(*m))
        acc = tuple(tuple(sum(x * y for x, y in zip(row, col)) % 101
                          for col in cols) for row in acc)
    return acc


TASKS = {"rows": _rows, "poly": _poly, "matrix": _matrix}
#: the probe that matches each workload's work
WORKLOAD_PROBE = {"certify_cold": "rows", "member_stream": "rows",
                  "n3_symbolic": "poly", "matrix_search": "matrix"}


def probe(kind: str, reps: int = 5) -> float:
    """Median seconds of ``reps`` runs of one fixed task."""
    task = TASKS[kind]
    times = []
    for _ in range(reps):
        t = perf_counter()
        task()
        times.append(perf_counter() - t)
    return statistics.median(times)


def factor(workload: str) -> float:
    """Scale that brings a time measured now to the reference speed."""
    kind = WORKLOAD_PROBE[workload]
    return REFERENCE_S[kind] / probe(kind)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU: no migrations."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
