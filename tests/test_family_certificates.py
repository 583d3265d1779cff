"""Each generator family in closed form in terms of the other, and the
characteristic identities read off the shift differences.

``ideal._difference_in_commutators(n, k, r)`` writes the shift
difference D(k, r) = s_k - act(r, s_k) as a sum of u*[x_i, s_m]*v, and
``ideal._commutator_in_differences(n, i, m)`` writes [x_i, s_m] with
four differences.  The tests rebuild every certificate with
``Polynomial`` products, apart from the module's own integer check,
hold the factored, root and inverse identities against slice
membership, and pin that a corrupted closed form or a changed family is
an internal error of every check that rests on it, also through the CLI
under ``python -O``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from sigmaforge import cyclic, ideal
from sigmaforge.ideal import (commutator_generators, difference_generators,
                              member, run_check)
from sigmaforge.ring import InternalError, Polynomial, commutator
from sigmaforge.sigma import (build_sigma, char_poly_image,
                              factored_char_coefficients,
                              inverse_identity_image)

SRC = Path(__file__).resolve().parents[1] / "src"
SLOW_7 = pytest.param(7, marks=pytest.mark.slow)
#: the checks that are exact free-ring identities over the differences
IDENTITY_CHECKS = ("factored_coeffs", "root_identity", "inverse_identity")
#: the checks that rest on the closed forms
CLOSED_FORM_CHECKS = ("thm_1_1",) + IDENTITY_CHECKS


def rebuild(form, values, gset):
    """sum c*(u*g*v) over the closed form ``form``, g = values[name] a
    generator of ``gset``, multiplied as ``Polynomial``."""
    n = gset.n
    total = Polynomial.zero(n)
    for c, u, name, v in form:
        g = values[name]
        assert g in gset.gens, name
        total = total + (Polynomial.from_monomial(u, n) * g
                         * Polynomial.from_monomial(v, n)) * c
    return total


def assert_each_rebuilds(n, values, form, other, other_values):
    """Every ``values[name]`` rebuilds from ``form(n, *name)`` in the
    family ``other``, named by ``other_values``, both in the module's
    integer check and as ``Polynomial`` products."""
    ideal._rebuild_each(values, form, other, other_values)
    for name, g in values.items():
        assert rebuild(form(n, *name), other_values, other) == g, name
    return len(values)


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_characteristic_identities_hold_in_the_free_ring(n):
    """With D(k, r) = s_k - act(r, s_k) built here from ``build_sigma``
    and ``cyclic.act``: factored difference (r, k) = (-1)^(k+1) D(k, r);
    char_poly_image(n, i) = sum_k (-1)^k D(k, i)*x_i^(n-k); and
    inverse_identity_image(n, i) is that plus sum_{k=1..n-1} (-1)^k
    [x_i, s_k]*x_i^(n-1-k).  The checks read their units off the same
    identities."""
    def shift_difference(k, r):
        s = build_sigma(n, k)
        return s - cyclic.act(r, s, n)

    zero = Polynomial.zero(n)
    for r in range(n):
        for k, diff in factored_char_coefficients(n, r).items():
            assert diff == shift_difference(k, r) * (-1) ** (k + 1), (r, k)
    for i in range(1, n + 1):
        xi = Polynomial.variable(i, n)
        root = sum((shift_difference(k, i) * xi ** (n - k) * (-1) ** k
                    for k in range(n + 1)), zero)
        assert char_poly_image(n, i) == root, i
        inverse = root + sum(
            (commutator(xi, build_sigma(n, k)) * xi ** (n - 1 - k)
             * (-1) ** k for k in range(1, n)), zero)
        assert inverse_identity_image(n, i) == inverse, i
    for check in IDENTITY_CHECKS:
        units = run_check(check, n)
        assert len(units) == n
        assert all(u["status"] == "pass" for u in units)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_slice_membership_accepts_the_characteristic_identities(n):
    """The second route: the degree-n slice of the commutator ideal
    holds every root and inverse image and every factored difference."""
    comm = commutator_generators(n)
    for i in range(1, n + 1):
        assert member(char_poly_image(n, i), comm).member, i
        assert member(inverse_identity_image(n, i), comm).member, i
    for r in range(n):
        for k, diff in factored_char_coefficients(n, r).items():
            assert member(diff, comm).member, (r, k)
    ideal.clear_caches()


def test_missing_generator_has_no_certificate(monkeypatch):
    """With the first commutator [x_1, s_1] dropped from the family, the
    closed form of D(2, 1) names a generator the family does not have,
    so every check that rests on the closed forms raises InternalError
    before it builds a slice."""
    n = 4
    comm = commutator_generators(n)
    dropped = ideal.GeneratorSet("dropped", n, comm.gens[1:])
    assert any(t[2] == (1, 1)
               for t in ideal._difference_in_commutators(n, 2, 1))
    ideal.clear_caches()
    with monkeypatch.context() as m:
        m.setattr(ideal, "commutator_generators", lambda _: dropped)
        for check in CLOSED_FORM_CHECKS:
            with pytest.raises(InternalError,
                               match="does not rebuild in 'dropped'"):
                run_check(check, n)
    assert not ideal._slice_cache


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
def test_flipped_sign_raises_internal_error(monkeypatch, name):
    """A flipped sign in a closed form is an internal error of every
    check that rebuilds it, with no second route tried: no member call
    and no slice.  The differences' closed form carries all four checks;
    the commutators' closed form only thm_1_1, so the other three still
    pass."""
    n = 4
    uses = (CLOSED_FORM_CHECKS if name == "_difference_in_commutators"
            else ("thm_1_1",))
    calls = []
    monkeypatch.setattr(ideal, name, flipped(getattr(ideal, name)))
    monkeypatch.setattr(ideal, "member", lambda *a, **k: calls.append(a))
    ideal.clear_caches()
    for check in uses:
        with pytest.raises(InternalError, match="does not rebuild"):
            run_check(check, n)
    assert not ideal._slice_cache
    for check in CLOSED_FORM_CHECKS:
        if check not in uses:
            assert all(u["status"] == "pass" for u in run_check(check, n))
    assert calls == []


FAULTY_CLI = textwrap.dedent("""
    import sys
    from sigmaforge import cli, ideal

    if __debug__:
        sys.exit(3)
    if sys.argv.pop(1) == "flipped":
        form = ideal._difference_in_commutators

        def flipped(n, k, r):
            out = form(n, k, r)
            if out:
                c, u, name, v = out[0]
                out[0] = (-c, u, name, v)
            return out

        ideal._difference_in_commutators = flipped
    else:
        comm = ideal.commutator_generators(4)
        dropped = ideal.GeneratorSet("dropped", 4, comm.gens[1:])
        ideal.commutator_generators = lambda n: dropped
    sys.exit(cli.main(sys.argv[1:]))
""")


def test_flipped_sign_is_refused_under_optimize():
    """Under ``python -O``, a flipped sign in the differences' closed
    form, or a commutator dropped from the family, makes ``sigmaforge
    verify <check> --n 4`` exit 1 with ``internal error:`` on stderr and
    nothing on stdout, for each check that rests on the closed forms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for fault in ("flipped", "dropped"):
        for check in CLOSED_FORM_CHECKS:
            proc = subprocess.run(
                [sys.executable, "-O", "-c", FAULTY_CLI, fault, "verify",
                 check, "--n", "4"],
                env=env, capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout) == (1, ""), (
                fault, check, proc.stderr)
            assert proc.stderr.startswith("internal error: "), proc.stderr


def test_default_jobs_build_no_slice_of_the_other_family(monkeypatch):
    """factored_coeffs, root_identity and inverse_identity at n=5 and
    n=6 call member 0 times and build no slice; thm_1_1 builds no slice
    of the differences."""
    calls = []
    monkeypatch.setattr(ideal, "member", lambda *a, **k: calls.append(a))
    for check in IDENTITY_CHECKS:
        for n in (5, 6):
            ideal.clear_caches()
            units = run_check(check, n)
            assert len(units) == n
            assert all(u["status"] == "pass" for u in units)
            assert not ideal._slice_cache
    for n in sorted(ideal.DEFAULT_DEGREE_BOUND):
        ideal.clear_caches()
        units = run_check("thm_1_1", n)
        assert all(u["status"] == "pass" for u in units)
        key = commutator_generators(n).cache_key()
        assert sorted(ideal._slice_cache) == [
            (key, d) for d in range(2, ideal.default_degree_bound(n) + 1)]
    assert calls == []
    ideal.clear_caches()
