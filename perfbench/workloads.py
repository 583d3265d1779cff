"""Seeded inputs, ops and output gates of the four benchmark workloads.

Every workload draws its ops from a fixed pool of inputs.  Pool item
``i`` is generated from its own random stream (``"<workload>:<i>"``), so
the pool never depends on the run seed and the expected output of every
item can be recorded once, in ``digests.json``.  A round is the whole
pool in an order drawn from the run seed, and a run is whole rounds, so
every run does the same mix of work.  Op costs are heavy-tailed (an n=4
rewrite takes 0.2 to 90 ms), and drawing items independently would make
throughput and tail latency depend on how often a seed drew the few
heaviest items.

An op's output is rendered to text after its latency is taken.  The
gate compares the text's digest with the recorded one and applies the
workload's own semantic check; both run outside the timed phase.

This module imports sigmaforge, so it is imported only by the processes
that run ops (``worker.py``), after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from sigmaforge import cyclic, ideal, matmodel, n3lab, rewrite
from sigmaforge.ring import Monomial, Polynomial, render_poly

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _word(rng: random.Random, n: int, d: int) -> Monomial:
    return Monomial.from_letters([rng.randint(1, n) for _ in range(d)])


class Workload:
    """One seeded, single-client, closed-loop stream of ops."""

    name = ""
    pool = 0          # distinct inputs; one round visits each once
    fixed_ops = 0     # ops of the fixed-work (traced / untraced) runs
    probe_every = 100  # ops between speed probes (speed.py)

    def setup(self):
        """Warm state the workload declares; counted in setup_s."""

    def start_round(self):
        """Called before each round's ops, outside the timed phase."""

    def rounds(self, seed: int):
        """Endless rounds of pool indices for one run seed."""
        rng = random.Random(f"{self.name}:stream:{seed}")
        while True:
            order = list(range(self.pool))
            rng.shuffle(order)
            yield order

    def make(self, i: int):
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def render(self, x, out) -> str:
        raise NotImplementedError

    def check(self, x, out) -> bool:
        """Semantic gate on top of the digest."""
        return True


class CertifyCold(Workload):
    """The CLI ``verify`` jobs at their default bounds, one process each."""

    name = "certify_cold"
    JOBS = (("thm_1_1", "--n", "3"), ("thm_1_1", "--n", "4"),
            ("thm_1_1", "--n", "5"), ("factored_coeffs", "--n", "5"),
            ("n3",))
    # each job three times per round: with one copy, p90 of the five
    # latencies would extrapolate past the slowest job, and with two it
    # is the slower of the two factored_coeffs runs
    pool = 3 * len(JOBS)
    fixed_ops = pool
    probe_every = 1
    trace_dir = None  # set by the traced run: children then write spans
    _child = 0

    def make(self, i: int):
        return self.JOBS[i % len(self.JOBS)]

    def run(self, job):
        argv = ["verify", *job, "--output", "json"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "sigmaforge.cli", *argv]
        else:
            self._child += 1
            spans = Path(self.trace_dir) / f"op-{self._child}.jsonl.gz"
            cmd = [sys.executable, str(HERE / "cli_entry.py"), str(spans),
                   *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=170)
        return proc.returncode, proc.stdout

    def render(self, job, out):
        return out[1]

    def check(self, job, out):
        rc, text = out
        units = [json.loads(line) for line in text.splitlines()]
        return rc == 0 and bool(units) and all(
            u["status"] == "pass" for u in units)


class MemberStream(Workload):
    """Seeded ``ideal.member`` queries against slices built in set-up."""

    name = "member_stream"
    pool = 1500
    fixed_ops = 600
    probe_every = 125
    # degree bounds of the plain and the tagged (certificate) slices
    PLAIN = {3: 6, 4: 5}
    TAGGED = {3: 5, 4: 4}

    def setup(self):
        for n in (3, 4):
            gset = ideal.commutator_generators(n)
            for d in range(2, self.PLAIN[n] + 1):
                ideal.degree_slice(gset, d)
            for d in range(2, self.TAGGED[n] + 1):
                ideal.degree_slice(gset, d, with_tags=True)

    def make(self, i):
        """(n, p, certify, constructed member?) for pool item i."""
        rng = random.Random(f"{self.name}:{i}")
        n = rng.choice((3, 4))
        certify = rng.random() < 0.25
        d = rng.randint(2, (self.TAGGED if certify else self.PLAIN)[n])
        gens = [g for g in ideal.commutator_generators(n).gens
                if g.degree() <= d]
        p = Polynomial.zero(n)
        while p.is_zero():
            for _ in range(rng.randint(1, 4)):
                g = rng.choice(gens)
                rest = d - g.degree()
                a = rng.randint(0, rest)
                u = Polynomial.from_monomial(_word(rng, n, a), n)
                v = Polynomial.from_monomial(_word(rng, n, rest - a), n)
                p = p + u * g * v * _rat(rng)
        is_member = rng.random() < 0.5
        if not is_member:
            p = p + Polynomial.from_monomial(_word(rng, n, d), n, _rat(rng))
        return n, p, certify, is_member

    def run(self, x):
        n, p, certify, _ = x
        return ideal.member(p, ideal.commutator_generators(n), certify=certify)

    def render(self, x, res):
        parts = ["member" if res.member else "nonmember"]
        for d in sorted(res.residuals):
            parts.append(f"{d}: {render_poly(res.residuals[d])}")
        return "\n".join(parts)

    def check(self, x, res):
        n, p, certify, is_member = x
        if res.member != is_member:
            return False
        if not (certify and is_member):
            return True
        gens = ideal.commutator_generators(n).gens
        total = Polynomial.zero(n)
        for coeff, u, gi, v in res.certificate:
            total = total + (Polynomial.from_monomial(u, n) * gens[gi]
                             * Polynomial.from_monomial(v, n)) * coeff
        return total == p


class N3Symbolic(Workload):
    """Orbit-sum invariants: n3 reductions and n=4 atom rewrites."""

    name = "n3_symbolic"
    pool = 800
    fixed_ops = 800
    probe_every = 25
    # n=4 rewrites are bimodal (half under 2.5 ms, half 12 to 90 ms); at
    # this share the slow half stays well above the 90th percentile
    N3_SHARE = 0.9
    N3_ORBITS = 100   # orbit sums the n=3 invariants draw from
    _orbits = None

    def n3_orbits(self):
        """Fixed working set of n=3 orbit representatives, degrees 5-7."""
        if self._orbits is None:
            rng = random.Random(f"{self.name}:orbits")
            reps = set()
            while len(reps) < self.N3_ORBITS:
                letters = [1] + [rng.randint(1, 3)
                                 for _ in range(rng.randint(5, 7) - 1)]
                reps.add(Monomial.from_letters(letters))
            self._orbits = sorted(reps, key=Monomial.sort_key)
        return self._orbits

    def start_round(self):
        """Every round starts from a cold orbit cache, so rounds are alike."""
        n3lab._S_CACHE.clear()

    def rounds(self, seed: int):
        """Each round starts with the cold fill: every working-set orbit
        sum once, in a fixed order."""
        fill = list(range(self.N3_ORBITS))
        for order in super().rounds(seed):
            yield fill + [i for i in order if i >= self.N3_ORBITS]

    def make(self, i):
        if i < self.N3_ORBITS:
            return 3, cyclic.orbit_polynomial(self.n3_orbits()[i], 3)
        rng = random.Random(f"{self.name}:{i}")
        n = 3 if rng.random() < self.N3_SHARE else 4
        p = Polynomial.zero(n)
        while p.is_zero():
            for _ in range(rng.randint(1, 3)):
                if n == 3:
                    rep = rng.choice(self.n3_orbits())
                else:
                    rep = _word(rng, 4, rng.randint(4, 5))
                p = p + cyclic.orbit_polynomial(rep, n) * _rat(rng)
        return n, p

    def run(self, x):
        n, p = x
        if n == 3:
            return n3lab.reduce_invariant(p)
        return rewrite.rewrite_invariant(p)

    def render(self, x, out):
        return out.render()

    def check(self, x, out):
        n, p = x
        return n == 3 or out.evaluate() == p


class MatrixSearch(Workload):
    """Seeded matrix tuples through ``matmodel.examine_tuple``."""

    name = "matrix_search"
    pool = 1500
    fixed_ops = 1500
    probe_every = 125

    def make(self, i):
        rng = random.Random(f"{self.name}:{i}")
        family = rng.choice(matmodel.FAMILIES)
        n = rng.randint(3, 4)
        dim = rng.randint(2, 4)
        return i, matmodel.random_tuple(family, n, dim, rng)

    def run(self, x):
        i, t = x
        return matmodel.examine_tuple(t, i)

    def render(self, x, out):
        return json.dumps(out, sort_keys=True)


WORKLOADS = {w.name: w for w in (CertifyCold(), MemberStream(),
                                 N3Symbolic(), MatrixSearch())}

DIGEST_FILE = HERE / "digests.json"
