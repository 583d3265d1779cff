"""Closed-form rewriting of invariants over atom orbit sums."""

import random
from fractions import Fraction

import pytest

from oracles import sigma_alpha_decomposition
from sigmaforge import cyclic, rewrite
from sigmaforge.atoms import factor_atoms, is_atom, semigroup_product
from sigmaforge.rewrite import (
    AtomExpression,
    orbit_decompose,
    orbit_product,
    rewrite_invariant,
)
from sigmaforge.ring import Monomial, ONE, Polynomial, parse_monomial, parse_poly


def om(text, n=3):
    return parse_monomial(text, n)


def a(letters):
    return Monomial(letters)


def test_rewrite_squares_worked_example():
    n = 3
    p = cyclic.orbit_polynomial(om("x1^2"), n)
    e = rewrite_invariant(p)
    assert e.terms == {
        (a([1]), a([1])): Fraction(1),
        (a([1, 2]),): Fraction(-1),
        (a([1, 3]),): Fraction(-1),
    }
    assert e.render() == "-O[x1*x2] - O[x1*x3] + O[x1]^2"
    assert e.evaluate() == p


def test_rewrite_cubes_worked_example():
    n = 3
    p = cyclic.orbit_polynomial(om("x1^3"), n)
    e = rewrite_invariant(p)
    assert e.terms == {
        (a([1]),) * 3: Fraction(1),
        (a([1, 2, 1]),): Fraction(1),
        (a([1, 2, 3]),): Fraction(1),
        (a([1, 3, 1]),): Fraction(1),
        (a([1, 3, 2]),): Fraction(1),
        (a([1]), a([1, 2])): Fraction(-1),
        (a([1, 2]), a([1])): Fraction(-1),
        (a([1]), a([1, 3])): Fraction(-1),
        (a([1, 3]), a([1])): Fraction(-1),
    }
    assert e.render() == (
        "O[x1*x2*x1] + O[x1*x2*x3] + O[x1*x3*x1] + O[x1*x3*x2]"
        " - O[x1*x2]*O[x1] - O[x1*x3]*O[x1]"
        " - O[x1]*O[x1*x2] - O[x1]*O[x1*x3] + O[x1]^3")
    assert e.evaluate() == p


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_orbit_expansion_shape(n):
    """One orbit expands to n^(k-1) keys, one per word of the product of
    its k atoms' orbit sums, each with sign (-1)^(glued boundaries)."""
    rng = random.Random(f"expansion-shape:{n}")
    for _ in range(25):
        word = [rng.randint(1, n) for _ in range(rng.randint(1, 6))]
        factors = tuple(factor_atoms(Monomial.from_letters(word), n))
        k = len(factors)
        expansion = rewrite._orbit_expansion(factors, n)
        assert len(expansion) == n ** (k - 1)
        assert expansion[factors] == 1
        product = {ONE: 1}
        for f in factors:
            product = orbit_product(product, f, n)
        # letter positions of the k-1 boundaries between the atoms
        ends = [sum(f.degree for f in factors[:i]) for i in range(1, k)]
        words = set()
        for key, sign in expansion.items():
            assert sign in (1, -1)
            assert all(is_atom(f, n) for f in key)
            w = semigroup_product(key, n)
            assert tuple(factor_atoms(w, n)) == key
            glued = sum(w[e - 1] != w[e] for e in ends)
            assert sign == (-1) ** glued
            words.add(w)
        assert words == set(product)


def test_rewrite_seventh_power_orbit_has_4096_terms():
    p = cyclic.orbit_polynomial(om("x1^7", 4), 4)
    e = rewrite_invariant(p)
    assert len(e.terms) == 4 ** 6
    assert set(e.terms.values()) == {1, -1}
    assert e.terms[(a([1]),) * 7] == 1


def test_orbit_decompose_basics():
    n = 3
    p = cyclic.orbit_polynomial(om("x1*x2"), n) * 2 \
        + Polynomial.constant(Fraction(5, 2), n)
    dec = orbit_decompose(p)
    assert dec == {om("x1*x2"): 2, ONE: Fraction(5, 2)}


def test_orbit_decompose_rejects_noninvariant():
    n = 3
    with pytest.raises(ValueError):
        orbit_decompose(parse_poly("x1*x2", n))
    # full orbit but unequal coefficients
    bad = parse_poly("2*x1*x2 + x2*x3 + x3*x1", n)
    with pytest.raises(ValueError):
        orbit_decompose(bad)


def test_orbit_decompose_agrees_with_invariance():
    rng = random.Random(21)
    n = 3
    from sigmaforge.ring import basis_words

    words = [w for d in (0, 1, 2, 3) for w in basis_words(n, d)]
    for _ in range(150):
        p = Polynomial(
            {w: Fraction(rng.randint(-3, 3))
             for w in rng.sample(words, rng.randint(1, 8))}, n)
        try:
            dec = orbit_decompose(p)
            ok = True
        except ValueError:
            ok = False
        assert ok == (cyclic.act(1, p, n) == p)
        if ok:
            total = Polynomial.constant(dec.get(ONE, 0), n)
            for rep, c in dec.items():
                if not rep.is_unit():
                    total = total + cyclic.orbit_polynomial(rep, n) * c
            assert total == p


def test_rewrite_rejects_noninvariant():
    with pytest.raises(ValueError):
        rewrite_invariant(parse_poly("x1", 3))


def test_rewrite_zero_and_constants():
    n = 3
    assert rewrite_invariant(Polynomial.zero(n)).is_zero()
    e = rewrite_invariant(Polynomial.constant(Fraction(-7, 3), n))
    assert e.terms == {(): Fraction(-7, 3)}
    assert e.render() == "-7/3"


def test_rewrite_roundtrip_random():
    # random invariant polynomials: rational combinations of orbit sums
    rng = random.Random(22)
    for n in (3, 4):
        pool = []
        for d in (1, 2, 3):
            from sigmaforge.ring import basis_words

            pool.extend(basis_words(n, d))
        for _ in range(100):
            p = Polynomial.constant(Fraction(rng.randint(-4, 4)), n)
            for _ in range(rng.randint(1, 4)):
                m = rng.choice(pool)
                c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                p = p + cyclic.orbit_polynomial(m, n) * c
            e = rewrite_invariant(p)
            assert e.evaluate() == p


def test_rewrite_handles_sigma_powers():
    # invariant products of the increasing-word sums round-trip too
    from sigmaforge.sigma import build_sigma

    n = 3
    s1, s2 = build_sigma(n, 1), build_sigma(n, 2)
    shift_sum = sum((cyclic.act(r, s2, n) for r in range(n)),
                    Polynomial.zero(n))
    for p in (s1 * s1, shift_sum, s1 * s1 * s1):
        e = rewrite_invariant(p)
        assert e.evaluate() == p


def test_atom_expression_algebra():
    n = 3
    e = AtomExpression({(a([1]),): Fraction(2)}, n)
    f = AtomExpression({(a([1]),): Fraction(-2), (): Fraction(1)}, n)
    assert (e + f).terms == {(): Fraction(1)}
    assert (e - e).is_zero()
    assert (-e).terms == {(a([1]),): Fraction(-2)}
    assert AtomExpression.zero(n).render() == "0"
    assert e != f
    assert hash(e) == hash(AtomExpression({(a([1]),): 2}, n))


def test_atom_expression_rejects_non_atoms():
    with pytest.raises(ValueError):
        AtomExpression({(om("x1^2"),): 1}, 3)
    with pytest.raises(ValueError):
        AtomExpression({(om("x2*x3"),): 1}, 3)


def test_atom_expression_render_collapsing():
    n = 3
    e = AtomExpression(
        {(a([1]), a([1]), a([1, 2]), a([1])): Fraction(3, 2)}, n)
    assert e.render() == "3/2*O[x1]^2*O[x1*x2]*O[x1]"


def test_sigma_alpha_frozen_tables():
    def table(n, k):
        return {"*".join(f"x{i}" for i in rep): int(c)
                for rep, c in sigma_alpha_decomposition(n, k).items()}

    assert table(4, 1) == {"x1": 4}
    assert table(4, 2) == {"x1*x2": 3, "x1*x3": 2, "x1*x4": 1}
    assert table(4, 3) == {"x1*x2*x3": 2, "x1*x2*x4": 1, "x1*x3*x4": 1}
    assert table(4, 4) == {"x1*x2*x3*x4": 1}
    assert table(3, 2) == {"x1*x2": 2, "x1*x3": 1}
    assert table(3, 3) == {"x1*x2*x3": 1}
    assert table(5, 2) == {"x1*x2": 4, "x1*x3": 3, "x1*x4": 2, "x1*x5": 1}


def test_sigma_alpha_total_count():
    # coefficients over all orbits add up to n * (number of increasing
    # words), counted once per group element
    import math

    for n in (3, 4, 5):
        for k in range(1, n + 1):
            dec = sigma_alpha_decomposition(n, k)
            assert sum(dec.values()) == math.comb(n, k)


def test_sigma_average_matches_ideal_version():
    # group sum minus n copies of the plain sum lands in the ideal
    from sigmaforge.ideal import commutator_generators, member
    from sigmaforge.sigma import build_sigma

    for n in (3, 4):
        gset = commutator_generators(n)
        for k in range(1, n + 1):
            sk = build_sigma(n, k)
            total = Polynomial.zero(n)
            for r in range(n):
                total = total + cyclic.act(r, sk, n)
            assert member(total - sk * n, gset).member
