"""Each generator family in closed form in terms of the other.

``ideal._difference_in_commutators(n, k, r)`` writes the shift
difference D(k, r) = s_k - act(r, s_k) as a sum of u*[x_i, s_m]*v, and
``ideal._commutator_in_differences(n, i, m)`` writes [x_i, s_m] with
four differences.  The tests rebuild every certificate with
``Polynomial`` products, apart from the module's own integer check, and
pin the fallbacks of thm_1_1 and factored_coeffs when a closed form is
corrupted.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from sigmaforge import ideal
from sigmaforge.ideal import (commutator_generators, difference_generators,
                              run_check)
from sigmaforge.ring import Polynomial

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW_7 = pytest.param(7, marks=pytest.mark.slow)


def rebuild(form, where, gset):
    """sum c*(u*g*v) over the closed form ``form``, g the generator
    ``where[name]`` of ``gset``, multiplied as ``Polynomial``."""
    n = gset.n
    total = Polynomial.zero(n)
    for c, u, name, v in form:
        total = total + (Polynomial.from_monomial(u, n)
                         * gset.gens[where[name]]
                         * Polynomial.from_monomial(v, n)) * c
    return total


def assert_each_rebuilds(n, values, form, other, other_values):
    """Every nonzero ``values[name]`` rebuilds from ``form(n, *name)``
    in the family ``other``, named by ``other_values``."""
    where = ideal._positions(other, other_values)
    count = 0
    for name, g in values.items():
        if g.is_zero():
            continue
        assert ideal._certified(other, g, form(n, *name), where), name
        assert rebuild(form(n, *name), where, other) == g, name
        count += 1
    return count


@pytest.mark.parametrize("n", [3, 4, 5, 6, SLOW_7])
def test_differences_rebuild_from_commutators(n):
    comm = commutator_generators(n)
    count = assert_each_rebuilds(
        n, ideal._differences(n), ideal._difference_in_commutators, comm,
        ideal._commutators(n))
    assert count == len(difference_generators(n).gens) == (n - 1) ** 2


@pytest.mark.parametrize("n", [3, 4, 5, 6, SLOW_7])
def test_commutators_rebuild_from_four_differences(n):
    diff = difference_generators(n)
    count = assert_each_rebuilds(
        n, ideal._commutators(n), ideal._commutator_in_differences, diff,
        ideal._differences(n))
    assert count == len(commutator_generators(n).gens) == n * n
    for i in range(1, n + 1):
        for m in range(1, n + 1):
            assert len(ideal._commutator_in_differences(n, i, m)) <= 4


def test_closed_forms_stay_short():
    """The mirror form for r > n/2 keeps every difference short: at most
    20 terms at n=5 (100 over all 16), at most 115 at n=6."""
    for n, most, total in ((5, 20, 100), (6, 115, None)):
        sizes = [len(ideal._difference_in_commutators(n, k, r))
                 for k in range(2, n + 1) for r in range(1, n)]
        assert max(sizes) == most
        if total is not None:
            assert sum(sizes) == total


def test_missing_generator_has_no_certificate():
    n = 4
    comm = commutator_generators(n)
    dropped = ideal.GeneratorSet("dropped", n, comm.gens[1:])
    where = ideal._positions(dropped, ideal._commutators(n))
    name = next(name for name, gi in ideal._positions(
        comm, ideal._commutators(n)).items() if gi == 0)
    assert where[name] is None
    uses = [(k, r) for k in range(2, n + 1) for r in range(1, n)
            if any(t[2] == name
                   for t in ideal._difference_in_commutators(n, k, r))]
    assert uses
    for k, r in uses:
        g = ideal._differences(n)[k, r]
        assert not ideal._certified(
            dropped, g, ideal._difference_in_commutators(n, k, r), where)
    assert not ideal._each_in_other(dropped, difference_generators(n))


def flipped(form):
    """``form`` with the sign of its first coefficient flipped."""
    def wrapper(*args):
        out = form(*args)
        if out:
            c, u, name, v = out[0]
            out[0] = (-c, u, name, v)
        return out
    return wrapper


@pytest.mark.parametrize("name", ["_difference_in_commutators",
                                  "_commutator_in_differences"])
def test_flipped_sign_is_refused_and_checks_fall_back(monkeypatch, name):
    n = 4
    ideal.clear_caches()
    want = {check: json.dumps(run_check(check, n))
            for check in ("factored_coeffs", "thm_1_1")}
    ideal.clear_caches()
    calls = []
    member = ideal.member

    def counted(p, gset, certify=False):
        calls.append(p.degree())
        return member(p, gset, certify)

    monkeypatch.setattr(ideal, name, flipped(getattr(ideal, name)))
    monkeypatch.setattr(ideal, "member", counted)
    comm, diff = commutator_generators(n), difference_generators(n)
    assert not ideal._each_in_other(comm, diff)
    assert json.dumps(run_check("thm_1_1", n)) == want["thm_1_1"]
    # the fallback compared the two families' slices degree by degree
    assert all((gset.cache_key(), d) in ideal._slice_cache
               for gset in (comm, diff)
               for d in range(2, ideal.default_degree_bound(n) + 1))
    assert calls == []
    assert json.dumps(run_check("factored_coeffs", n)) == want[
        "factored_coeffs"]
    if name == "_difference_in_commutators":
        # each nonzero difference, D(k, r) for k = 2..4 and r = 1..3,
        # went to member
        assert sorted(calls) == [2, 2, 2, 3, 3, 3, 4, 4, 4]
    else:
        assert calls == []
    ideal.clear_caches()


def test_flipped_sign_is_refused_under_optimize():
    script = textwrap.dedent("""
        import json
        import sys
        from sigmaforge import ideal

        print("optimize", sys.flags.optimize)
        want = json.dumps(ideal.run_check("factored_coeffs", 4))
        form = ideal._difference_in_commutators

        def flipped(n, k, r):
            out = form(n, k, r)
            if out:
                c, u, name, v = out[0]
                out[0] = (-c, u, name, v)
            return out

        ideal._difference_in_commutators = flipped
        comm = ideal.commutator_generators(4)
        where = ideal._positions(comm, ideal._commutators(4))
        g = ideal._differences(4)[3, 1]
        if not ideal._certified(comm, g, flipped(4, 3, 1), where):
            print("refused")
        if not ideal._each_in_other(comm, ideal.difference_generators(4)):
            print("thm_1_1 refused")
        ideal.clear_caches()
        if json.dumps(ideal.run_check("factored_coeffs", 4)) == want:
            print("same units")
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "optimize 1", "refused", "thm_1_1 refused", "same units", ""]


def test_default_jobs_build_no_slice_of_the_other_family(monkeypatch):
    """factored_coeffs at n=5 and n=6 calls member 0 times and builds no
    slice; thm_1_1 builds no slice of the differences."""
    calls = []
    member = ideal.member
    monkeypatch.setattr(ideal, "member",
                        lambda *a, **k: calls.append(a) or member(*a, **k))
    for n in (5, 6):
        ideal.clear_caches()
        units = run_check("factored_coeffs", n)
        assert len(units) == n
        assert all(u["status"] == "pass" for u in units)
        assert not ideal._slice_cache
    assert calls == []
    for n in sorted(ideal.DEFAULT_DEGREE_BOUND):
        ideal.clear_caches()
        units = run_check("thm_1_1", n)
        assert all(u["status"] == "pass" for u in units)
        key = commutator_generators(n).cache_key()
        assert sorted(ideal._slice_cache) == [
            (key, d) for d in range(2, ideal.default_degree_bound(n) + 1)]
    ideal.clear_caches()
