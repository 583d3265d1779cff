"""Laws of the closed-form orbit product, as Hypothesis properties.

``rewrite.orbit_product`` multiplies a {representative: coeff} map by
one orbit sum without expanding anything in the free ring.  Extended
to a product of two maps, it must be associative, and it must agree
with the free-ring product of the orbit polynomials it stands for.
"""

import pytest

from sigmaforge import cyclic
from sigmaforge.atoms import orbit_max
from sigmaforge.rewrite import orbit_product
from sigmaforge.ring import Monomial, Polynomial

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def orbit_maps(n):
    """Combinations of at most three orbit sums of words of length 1-3."""
    reps = st.lists(st.integers(min_value=1, max_value=n), min_size=1,
                    max_size=3).map(
        lambda w: orbit_max(Monomial.from_letters(w), n))
    return st.dictionaries(reps, COEFFS, min_size=1, max_size=3).map(
        lambda m: {rep: c for rep, c in m.items() if c})


def times(left, right, n):
    """The product of two orbit-sum combinations, one orbit at a time."""
    out = {}
    for b, y in right.items():
        for rep, c in orbit_product(left, b, n).items():
            out[rep] = out.get(rep, 0) + y * c
    return {rep: c for rep, c in out.items() if c}


def expand(orbits, n):
    """The combination as a free-ring polynomial."""
    total = Polynomial.zero(n)
    for rep, c in orbits.items():
        total = total + cyclic.orbit_polynomial(rep, n) * c
    return total


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_product_is_associative(n):
    @given(orbit_maps(n), orbit_maps(n), orbit_maps(n))
    def check(a, b, c):
        assert times(times(a, b, n), c, n) == times(a, times(b, c, n), n)

    check()


@pytest.mark.parametrize("n", [3, 4])
def test_orbit_product_matches_the_free_ring_product(n):
    @given(orbit_maps(n), orbit_maps(n))
    def check(a, b):
        for rep in b:
            assert expand(orbit_product(a, rep, n), n) \
                == expand(a, n) * cyclic.orbit_polynomial(rep, n)
        assert expand(times(a, b, n), n) == expand(a, n) * expand(b, n)

    check()
