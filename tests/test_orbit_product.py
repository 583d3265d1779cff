"""The closed-form product of orbit sums, against the free-ring route.

``free_ring_reduce_composite`` and ``free_ring_rewrite`` are the
reductions that expand products of orbit sums in the free ring and split
the result back into orbits; they are kept here as the reference the
closed-form versions must agree with.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sigmaforge import cyclic, n3lab, rewrite
from sigmaforge.atoms import factor_atoms, orbit_max
from sigmaforge.ring import Monomial, ONE, Polynomial
from sigmaforge.rewrite import (
    AtomExpression,
    orbit_decompose,
    orbit_product,
    rewrite_invariant,
)


def free_ring_reduce_composite(rep):
    factors = factor_atoms(rep, 3)
    prod = Polynomial.constant(1, 3)
    sprod = n3lab.SReduced.scalar(1)
    for f in factors:
        prod = prod * cyclic.orbit_polynomial(f, 3)
        sprod = sprod * n3lab.reduce_orbit(f)
    rest = prod - cyclic.orbit_polynomial(rep, 3)
    for other in orbit_decompose(rest):
        assert other.is_unit() or other.sort_key() < rep.sort_key()
    return sprod - n3lab.reduce_invariant(rest)


def free_ring_rewrite(p):
    n = p.arity
    orbit_decompose(p)
    expr = AtomExpression.zero(n)
    r = p
    guard = None
    while not r.is_zero():
        lead = max(r.terms, key=lambda m: m.sort_key())
        if lead.is_unit():
            expr = expr.add_term((), r.terms[lead])
            r = r - Polynomial.constant(r.terms[lead], n)
            continue
        assert guard is None or lead.sort_key() < guard
        guard = lead.sort_key()
        coeff = r.terms[lead]
        factors = factor_atoms(lead, n)
        prod = Polynomial.constant(1, n)
        for f in factors:
            prod = prod * cyclic.orbit_polynomial(f, n)
        expr = expr.add_term(tuple(factors), coeff)
        r = r - prod * coeff
    return expr


def random_word(rng, n, degree):
    return Monomial.from_letters([rng.randint(1, n) for _ in range(degree)])


def random_rational(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def as_polynomial(orbits, n):
    total = Polynomial.zero(n)
    for rep, c in orbits.items():
        if rep.is_unit():
            total = total + Polynomial.constant(c, n)
        else:
            total = total + cyclic.orbit_polynomial(rep, n) * c
    return total


@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbit_product_matches_free_ring_product(n):
    rng = random.Random(f"orbit-product:{n}")
    for trial in range(80):
        orbits = {}
        if trial % 2 == 0:
            orbits[ONE] = random_rational(rng)
        for _ in range(rng.randint(0 if orbits else 1, 3)):
            rep = orbit_max(random_word(rng, n, rng.randint(1, 4)), n)
            orbits[rep] = random_rational(rng)
        b = random_word(rng, n, rng.randint(1, 4))
        got = orbit_product(orbits, b, n)
        expected = orbit_decompose(
            as_polynomial(orbits, n) * cyclic.orbit_polynomial(b, n))
        assert got == expected
        assert ONE not in got
        if ONE in orbits:
            assert got[orbit_max(b, n)] == orbits[ONE]


def test_orbit_product_unit_only_and_rejects_non_representatives():
    b = Monomial((2, 3), (2, 1))
    assert orbit_product({ONE: Fraction(5, 3)}, b, 3) == {
        orbit_max(b, 3): Fraction(5, 3)}
    assert orbit_product({}, b, 3) == {}
    with pytest.raises(ValueError):
        orbit_product({Monomial((2,), (1,)): 1}, b, 3)


def n3_invariants():
    """Seeded arity-3 invariants: orbit sums of degree 2 to 7 with
    rational coefficients, plus a constant every third time."""
    rng = random.Random("differential:n3")
    out = []
    for i in range(110):
        orbits = {}
        if i % 3 == 0:
            orbits[ONE] = random_rational(rng)
        top = 7 if i % 10 == 0 else 6
        for _ in range(rng.randint(1, 3)):
            rep = orbit_max(random_word(rng, 3, rng.randint(2, top)), 3)
            orbits[rep] = random_rational(rng)
        out.append(as_polynomial(orbits, 3))
    return out


def rewrite_invariants():
    """Seeded invariants for the rewriter: arity 4 words of degree 4-5,
    and arity-3 orbit sums up to degree 6."""
    rng = random.Random("differential:rewrite")
    out = []
    for i in range(90):
        n = 4 if i % 3 else 3
        orbits = {ONE: random_rational(rng)} if i % 4 == 0 else {}
        for _ in range(rng.randint(1, 2)):
            degree = rng.randint(4, 5) if n == 4 else rng.randint(1, 6)
            orbits[orbit_max(random_word(rng, n, degree), n)] = \
                random_rational(rng)
        out.append(as_polynomial(orbits, n))
    return out


def test_n3_reduction_matches_free_ring_split(monkeypatch):
    invariants = n3_invariants()
    n3lab.clear_caches()
    with monkeypatch.context() as m:
        m.setattr(n3lab, "_reduce_composite", free_ring_reduce_composite)
        expected = [n3lab.reduce_invariant(p) for p in invariants]
    n3lab.clear_caches()
    got = [n3lab.reduce_invariant(p) for p in invariants]
    assert got == expected
    assert max(p.degree() for p in invariants) == 7


def test_rewrite_matches_free_ring_rewrite():
    for p in rewrite_invariants():
        got = rewrite_invariant(p)
        assert got == free_ring_rewrite(p)
        assert got.terms and all(isinstance(c, Fraction)
                                 for c in got.terms.values())


CHECKS_UNDER_O = """
from fractions import Fraction
from sigmaforge import n3lab, rewrite
from sigmaforge.ring import InternalError, Monomial, parse_poly

closed_form = rewrite.orbit_product
square = Monomial((1,), (2,))


def outcome(name, call, exc):
    n3lab.clear_caches()
    try:
        call()
    except exc as err:
        print(name, "raised", type(err).__name__)
    else:
        print(name, "returned")


outcome("invariance_gate",
        lambda: rewrite.rewrite_invariant(parse_poly("x1*x2", 3)), ValueError)
# a product that leaves the leading orbit behind
rewrite.orbit_product = lambda orbits, b, n: {}
outcome("lead_decreases",
        lambda: rewrite.rewrite_invariant(parse_poly("x1^2 + x2^2 + x3^2", 3)),
        InternalError)
n3lab.orbit_product = lambda orbits, b, n: {
    k: 2 * c for k, c in closed_form(orbits, b, n).items()}
outcome("leading_coefficient_one",
        lambda: n3lab.reduce_orbit(square), InternalError)
n3lab.orbit_product = lambda orbits, b, n: {
    **closed_form(orbits, b, n), Monomial((1,), (9,)): Fraction(1)}
outcome("composite_decreases",
        lambda: n3lab.reduce_orbit(square), InternalError)
print("debug", __debug__)
"""


def test_reduction_checks_raise_under_python_O():
    src = str(Path(rewrite.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # a guard that does not fire leaves the rewriter looping: time out
    out = subprocess.run([sys.executable, "-O", "-c", CHECKS_UNDER_O],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.splitlines() == [
        "invariance_gate raised ValueError",
        "lead_decreases raised InternalError",
        "leading_coefficient_one raised InternalError",
        "composite_decreases raised InternalError",
        "debug False",
    ]
