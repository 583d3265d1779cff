"""Reference routes: second computations of values the package computes
another way, kept in the tests so that they cannot drift with the code
they check."""

import itertools
from fractions import Fraction

from sigmaforge import cyclic
from sigmaforge.ideal import degree_slice
from sigmaforge.n3lab import N, _symbol_polys
from sigmaforge.rewrite import orbit_decompose
from sigmaforge.ring import Monomial, Polynomial
from sigmaforge.sigma import build_sigma


def sigma_on(letters, k: int, n: int) -> Polynomial:
    """Sum of increasing-position k-subword products of ``letters``."""
    letters = tuple(letters)
    if k < 0 or k > len(letters):
        return Polynomial.zero(n)
    if k == 0:
        return Polynomial.one(n)
    terms = {}
    for combo in itertools.combinations(letters, k):
        m = Monomial(combo)
        terms[m] = terms.get(m, Fraction(0)) + 1
    return Polynomial(terms, n)


def sigma_via_recursion_first(letters, k: int, n: int) -> Polynomial:
    """Peel the first generator: s_k(L) = L0 * s_{k-1}(L') + s_k(L')."""
    letters = tuple(letters)
    if k < 0 or k > len(letters):
        return Polynomial.zero(n)
    if k == 0:
        return Polynomial.one(n)
    head, rest = letters[0], letters[1:]
    return (Polynomial.word([head], n)
            * sigma_via_recursion_first(rest, k - 1, n)
            + sigma_via_recursion_first(rest, k, n))


def sigma_via_recursion_last(letters, k: int, n: int) -> Polynomial:
    """Peel the last generator: s_k(L) = s_{k-1}(L') * Llast + s_k(L')."""
    letters = tuple(letters)
    if k < 0 or k > len(letters):
        return Polynomial.zero(n)
    if k == 0:
        return Polynomial.one(n)
    rest, tail = letters[:-1], letters[-1]
    return (sigma_via_recursion_last(rest, k - 1, n)
            * Polynomial.word([tail], n)
            + sigma_via_recursion_last(rest, k, n))


def cyclic_letters(n: int, start: int) -> tuple:
    """n-1 indices start, start+1, ..., wrapping mod n (one index left out)."""
    return tuple((start - 1 + t) % n + 1 for t in range(n - 1))


def spans_equal(a, b, degree: int) -> bool:
    """Do two generator families span the same degree-d slice?"""
    if a.n != b.n:
        raise ValueError("arity mismatch")
    return degree_slice(a, degree).space == degree_slice(b, degree).space


def expand_to_ring(sr) -> Polynomial:
    """Evaluate a canonical form in the free ring, factors in the fixed
    order s1, s2, s3, c3, d, c.  The package certifies a form on normal
    forms and never expands it; ``member`` checks this expansion
    against those normal forms."""
    syms = _symbol_polys()
    total = Polynomial.zero(N)
    for key, coeff in sorted(sr.terms.items()):
        prod = Polynomial.constant(coeff, N)
        for sym, e in zip(syms, key):
            for _ in range(e):
                prod = prod * sym
        total = total + prod
    return total


def sigma_alpha_decomposition(n: int, k: int) -> dict:
    """Orbit-sum coefficients of the shift-averaged k-th sum.

    Summing the k-th increasing-word sum over the whole shift group
    gives an exact combination of orbit sums whose coefficient at each
    orbit is the number of strictly increasing words it contains; both
    sides are computed independently and compared before returning
    {representative: coefficient}.
    """
    sk = build_sigma(n, k)
    total = Polynomial.zero(n)
    for r in range(n):
        total = total + cyclic.act(r, sk, n)
    got = orbit_decompose(total)
    expected = {}
    for rep, c in got.items():
        rising = sum(
            1 for w in cyclic.orbit(rep, n)
            if all(a < b for a, b in zip(w, w[1:])))
        expected[rep] = Fraction(rising)
    if got != expected:
        raise AssertionError(
            "orbit coefficients disagree with increasing-word counts")
    return got
