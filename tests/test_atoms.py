"""Atoms, orbit representatives, and free factorization."""

import random
import time

import pytest

from sigmaforge.atoms import (
    enumerate_atoms,
    factor_atoms,
    is_atom,
    orbit_max,
    semigroup_product,
)
from sigmaforge.cyclic import orbit
from sigmaforge.ring import Monomial, ONE, parse_monomial


def M(text, n=3):
    return parse_monomial(text, n)


def semigroup_mul(u, v, n):
    """The twisted product of two factors."""
    return semigroup_product((u, v), n)


def random_monomial(rng, n, max_runs=5, max_exp=4):
    runs = rng.randint(1, max_runs)
    letters = []
    prev = None
    for _ in range(runs):
        c = rng.choice([i for i in range(1, n + 1) if i != prev])
        letters.append(c)
        prev = c
    exps = [rng.randint(1, max_exp) for _ in range(runs)]
    return Monomial(i for i, e in zip(letters, exps) for _ in range(e))


def test_orbit_max_starts_with_one():
    rng = random.Random(3)
    for n in (3, 4, 5):
        for _ in range(60):
            m = random_monomial(rng, n)
            rep = orbit_max(m, n)
            assert rep[0] == 1
            assert rep in orbit(m, n)


def test_orbit_max_is_largest_in_orbit():
    rng = random.Random(4)
    for n in (3, 4):
        for _ in range(60):
            m = random_monomial(rng, n)
            rep = orbit_max(m, n)
            assert rep == max(orbit(m, n), key=lambda w: w.sort_key())


def test_orbit_max_rejects_unit():
    with pytest.raises(ValueError):
        orbit_max(ONE, 3)


def test_orbit_max_rejects_foreign_letters():
    with pytest.raises(ValueError):
        orbit_max(M("x1*x4", 4), 3)


def test_is_atom():
    assert is_atom(M("x1"), 3)
    assert is_atom(M("x1*x2"), 3)
    assert is_atom(M("x1*x3"), 3)
    assert is_atom(M("x1*x2*x1*x2"), 3)
    assert not is_atom(M("x1^2"), 3)
    assert not is_atom(M("x2*x3"), 3)  # does not start with 1
    assert not is_atom(M("x1*x2^2"), 3)
    assert not is_atom(ONE, 3)


def test_enumerate_atoms_counts():
    for n in (3, 4, 5):
        for d in range(1, 7):
            atoms = enumerate_atoms(n, d)
            assert len(atoms) == (n - 1) ** (d - 1)
            assert all(is_atom(a, n) for a in atoms)
            assert len(set(atoms)) == len(atoms)


def test_enumerate_atoms_order():
    # largest first; for equal-degree square-free words that is
    # increasing lexicographic order of letter strings
    atoms = enumerate_atoms(3, 3)
    assert list(atoms) == [
        (1, 2, 1), (1, 2, 3), (1, 3, 1), (1, 3, 2)]
    for earlier, later in zip(atoms, atoms[1:]):
        assert earlier.sort_key() > later.sort_key()
    assert list(enumerate_atoms(3, 1)) == [(1,)]
    assert list(enumerate_atoms(3, 2)) == [(1, 2), (1, 3)]


def test_sort_key_matches_operator_order():
    rng = random.Random(9)
    pool = [random_monomial(rng, 3) for _ in range(40)] + [ONE]
    for a in pool:
        for b in pool:
            ka, kb = a.sort_key(), b.sort_key()
            assert (a > b) == (ka > kb)
            assert (a < b) == (ka < kb)
            assert (a >= b) == (ka >= kb)
            assert (a <= b) == (ka <= kb)


def test_sort_key_trichotomy_and_transitivity():
    rng = random.Random(10)
    pool = [random_monomial(rng, 4) for _ in range(80)]
    for _ in range(2000):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        ka, kb, kc = a.sort_key(), b.sort_key(), c.sort_key()
        assert [ka < kb, ka == kb, ka > kb].count(True) == 1
        assert (ka < kb) == (kb > ka)
        if ka <= kb and kb <= kc:
            assert ka <= kc
        if ka >= kb and kb >= kc:
            assert ka >= kc


def test_semigroup_mul_basics():
    n = 3
    # boundary letters merge into one run
    assert semigroup_mul(M("x1"), M("x1"), n) == M("x1^2")
    assert semigroup_mul(M("x1*x2"), M("x1"), n) == M("x1*x2^2")
    # second factor rotates to start at the first factor's last letter
    assert semigroup_mul(M("x1*x2"), M("x1*x2"), n) == M("x1*x2^2*x3")
    assert semigroup_mul(M("x1*x3"), M("x1*x2"), n) == M("x1*x3^2*x1")
    # unit is a two-sided identity
    assert semigroup_mul(ONE, M("x1*x2"), n) == M("x1*x2")
    assert semigroup_mul(M("x1*x2"), ONE, n) == M("x1*x2")


def test_semigroup_mul_preserves_representatives():
    rng = random.Random(12)
    for n in (3, 4):
        for _ in range(80):
            u = orbit_max(random_monomial(rng, n), n)
            v = orbit_max(random_monomial(rng, n), n)
            w = semigroup_mul(u, v, n)
            assert w[0] == 1 and w.max_index() <= n
            assert w.degree == u.degree + v.degree


def test_semigroup_mul_associative():
    rng = random.Random(13)
    n = 3
    for _ in range(60):
        u = orbit_max(random_monomial(rng, n, max_runs=3), n)
        v = orbit_max(random_monomial(rng, n, max_runs=3), n)
        w = orbit_max(random_monomial(rng, n, max_runs=3), n)
        left = semigroup_mul(semigroup_mul(u, v, n), w, n)
        right = semigroup_mul(u, semigroup_mul(v, w, n), n)
        assert left == right


def test_long_product_is_linear_in_its_length():
    """20000 one-letter factors multiply in one pass over the letters;
    concatenating one factor at a time rescans the product each time."""
    start = time.perf_counter()
    prod = semigroup_product([M("x1")] * 20000, 3)
    assert time.perf_counter() - start < 1
    assert prod == Monomial((1,) * 20000)
    assert factor_atoms(prod, 3) == [M("x1")] * 20000


def test_factor_atoms_frozen_example():
    factors = factor_atoms(M("x1*x3^4*x1^2*x2"), 3)
    assert factors == [
        (1, 3), (1,), (1,), (1, 2), (1, 2)]
    assert all(is_atom(f, 3) for f in factors)


def test_factor_atoms_simple_families():
    n = 3
    # pure powers of one letter split into degree-1 atoms
    assert factor_atoms(M("x1^4"), n) == [M("x1")] * 4
    # square-free representatives are single atoms
    for a in enumerate_atoms(3, 4):
        assert factor_atoms(a, n) == [a]
    # the unit factors as the empty product
    assert factor_atoms(ONE, n) == []


def test_factor_atoms_canonicalizes_orbit():
    # factorization only sees the orbit representative
    n = 3
    m = M("x2*x1^4*x3^2")
    assert factor_atoms(m, n) == factor_atoms(orbit_max(m, n), n)


def test_factor_atoms_roundtrip_random():
    rng = random.Random(14)
    for n in (3, 4, 5):
        for _ in range(160):
            m = random_monomial(rng, n, max_runs=6, max_exp=3)
            factors = factor_atoms(m, n)
            assert all(is_atom(f, n) for f in factors)
            assert semigroup_product(factors, n) == orbit_max(m, n)


def test_factorization_is_free():
    # multiplying random atom lists and refactoring recovers the list
    rng = random.Random(15)
    for n in (3, 4):
        for _ in range(120):
            factors = [
                rng.choice(enumerate_atoms(n, rng.randint(1, 4)))
                for _ in range(rng.randint(1, 5))]
            prod = semigroup_product(factors, n)
            assert factor_atoms(prod, n) == factors
