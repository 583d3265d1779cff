"""Integral orbit forms, and rationals only at the ``reduce_invariant``
boundary.

``reference_reduce`` is the rational route: it sums each orbit's public
form scaled by its coefficient with ``SReduced`` arithmetic, one copy of
the running total per orbit.  ``reduce_invariant`` sums the cached
integer forms in one term map over the coefficients' common denominator
and divides once; the two must agree, and every public value stays a
``Fraction``.  ``all_atoms_split`` is the composite split over the
product of every atom's orbit sum, where ``n3lab`` splits off the first
atom only; every composite form must satisfy both.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from sigmaforge import cyclic, n3lab
from sigmaforge.atoms import factor_atoms, is_atom, orbit_max
from sigmaforge.n3lab import SReduced, reduce_invariant, reduce_orbit
from sigmaforge.ring import ONE, Monomial, Polynomial, parse_poly
from sigmaforge.rewrite import orbit_decompose, orbit_product


def reference_reduce(p):
    total = SReduced.zero()
    for rep, coeff in orbit_decompose(p).items():
        total = total + (coeff if rep.is_unit()
                         else reduce_orbit(rep).scale(coeff))
    return total


def all_atoms_split(rep):
    """The form of a composite orbit sum: the product of its atoms'
    orbit sums, less the lower orbits of that product."""
    prod, sprod = {ONE: 1}, SReduced.scalar(1)
    for f in factor_atoms(rep, 3):
        prod = orbit_product(prod, f, 3)
        sprod = sprod * reduce_orbit(f)
    assert prod.pop(rep) == 1
    for other, c in prod.items():
        assert other < rep
        sprod = sprod - reduce_orbit(other).scale(c)
    return sprod


def representatives(top):
    """Every arity-3 orbit representative of degree 1..top."""
    words = [(1,)]
    out = []
    for _ in range(top):
        out.extend(Monomial.from_letters(w) for w in words)
        words = [w + (c,) for w in words for c in (1, 2, 3)]
    return out


def assert_fraction_valued(sr):
    assert type(sr) is SReduced
    assert all(type(c) is Fraction and c for c in sr.terms.values())


def test_every_representative_to_degree_7_matches_the_rational_sum():
    n3lab.clear_caches()
    reps = representatives(7)
    assert len(reps) == sum(3 ** k for k in range(7))
    for i, rep in enumerate(reps):
        coeff = Fraction(i % 7 - 3 or 5, i % 4 + 1)
        p = cyclic.orbit_polynomial(rep, 3) * coeff + Fraction(i % 3, 2)
        got = reduce_invariant(p)
        assert got == reference_reduce(p), rep
        assert_fraction_valued(got)
        form = reduce_orbit(rep)
        assert_fraction_valued(form)
        assert form.terms is not n3lab._S_CACHE[rep].terms
    # the cache holds one integer form per orbit met
    assert set(reps) <= set(n3lab._S_CACHE)
    for form in n3lab._S_CACHE.values():
        assert type(form) is SReduced and form.terms
        assert all(type(c) is int and c for c in form.terms.values())


def test_composite_forms_to_degree_7_satisfy_the_all_atoms_split():
    for rep in representatives(7):
        if not is_atom(rep, 3):
            assert reduce_orbit(rep) == all_atoms_split(rep), rep


def test_seeded_rational_invariants_match_the_rational_sum():
    rng = random.Random("integer-forms")
    for i in range(50):
        orbits = {ONE: Fraction(rng.randint(-9, 9), rng.randint(1, 8))}
        for _ in range(rng.randint(1, 4)):
            word = [rng.randint(1, 3) for _ in range(rng.randint(1, 7))]
            rep = orbit_max(Monomial.from_letters(word), 3)
            orbits[rep] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                                   rng.randint(1, 9))
        p = Polynomial.zero(3)
        for rep, c in orbits.items():
            p = p + (Polynomial.constant(c, 3) if rep.is_unit()
                     else cyclic.orbit_polynomial(rep, 3) * c)
        got = reduce_invariant(p)
        assert got == reference_reduce(p), i
        assert_fraction_valued(got)
    assert reduce_invariant(Polynomial.zero(3)) == SReduced.zero()


def test_degree_8_power_sum_render_is_pinned():
    sr = reduce_invariant(parse_poly("x1^8+x2^8+x3^8", 3))
    assert_fraction_valued(sr)
    assert sr.render() == (
        "s1^8 - 8*s1^6*s2 + 8*s1^5*s3 + 20*s1^4*s2^2 - 32*s1^3*s2*s3"
        " - 16*s1^2*s2^3 + 12*s1^2*s3^2 + 24*s1*s2^2*s3 + 2*s2^4"
        " - 8*s2*s3^2 + (s1^6 - 5*s1^4*s2 + 4*s1^3*s3 + 6*s1^2*s2^2"
        " - 6*s1*s2*s3 - s2^3 + s3^2)*c")


FRACTIONS_UNDER_O = """
from fractions import Fraction
from sigmaforge import n3lab
from sigmaforge.ring import InternalError, Monomial


def outcome(name, call):
    try:
        call()
    except InternalError as err:
        print(name, "raised", err)
    else:
        print(name, "returned")


n3lab.clear_caches()
base_table = n3lab.base_table
n3lab.base_table = lambda: {
    k: v * Fraction(1, 2) for k, v in base_table().items()}
outcome("fractional_form",
        lambda: n3lab.reduce_orbit(Monomial((1, 2))))
n3lab.base_table = base_table
n3lab.clear_caches()
trace, norm = n3lab.d_square_rewrite()
n3lab.d_square_rewrite = lambda: (trace * Fraction(1, 3), norm)
outcome("fractional_d_square_rule",
        lambda: n3lab.reduce_orbit(Monomial((1, 2, 1)))
        * n3lab.reduce_orbit(Monomial((1, 3, 1))))
print("debug", __debug__)
"""


def test_fractional_forms_raise_under_python_O():
    src = str(Path(n3lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", FRACTIONS_UNDER_O],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.splitlines() == [
        "fractional_form raised orbit form has a fractional coefficient",
        "fractional_d_square_rule raised the d^2 rule has a fractional"
        " coefficient",
        "debug False",
    ]
