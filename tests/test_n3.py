"""Canonical reduction and the verification suite for three letters."""

import random
from fractions import Fraction

import pytest

from sigmaforge import cyclic, n3lab
from sigmaforge.ideal import commutator_generators, member
from sigmaforge.n3lab import (
    SReduced,
    base_table,
    c_element,
    expand_to_ring,
    extra_symbol_poly,
    reduce_invariant,
    reduce_orbit,
    reduce_to_S_form,
    verify_n3_suite,
)
from sigmaforge.ring import Monomial, Polynomial, parse_monomial, parse_poly
from sigmaforge.sigma import CommPoly, build_sigma


def om(text):
    return parse_monomial(text, 3)


def sym(i):
    return CommPoly.variable(i, 5)


def test_base_table_frozen():
    table = {k.complexion: v for k, v in base_table().items()}
    assert table[(1,)] == SReduced(sym(1), 0, 0)
    assert table[(1, 2)] == SReduced(sym(2), 1, 0)
    assert table[(1, 3)] == SReduced(sym(2), -2, 0)
    assert table[(1, 2, 1)] == SReduced(sym(5), 0, 0)
    assert table[(1, 2, 3)] == SReduced(sym(3) * 3, 0, 0)
    assert table[(1, 3, 1)] == SReduced(
        sym(1) * sym(2) - sym(3) * 3 - sym(5), 0, 0)
    assert table[(1, 3, 2)] == SReduced(sym(3) * 3, -sym(1), 0)


def test_base_table_certified():
    gset = commutator_generators(3)
    for atom, sr in base_table().items():
        diff = cyclic.orbit_polynomial(atom, 3) - expand_to_ring(sr)
        assert member(diff, gset).member, atom


def test_sreduced_product_example():
    # (s2 + c)(s2 - 2c) = s2^2 - s2*c - 2c^2
    left = reduce_orbit(om("x1*x2"))
    right = reduce_orbit(om("x1*x3"))
    prod = left * right
    assert prod == SReduced(sym(2) ** 2, -sym(2),
                            CommPoly({(0, 0, 0, 0, 0): -2}, 5))
    # and the collapse is certified in the free ring
    u12 = cyclic.orbit_polynomial(om("x1*x2"), 3)
    u13 = cyclic.orbit_polynomial(om("x1*x3"), 3)
    diff = u12 * u13 - expand_to_ring(prod)
    assert member(diff, commutator_generators(3)).member


def test_sreduced_mul_c_wraps_cube():
    one = SReduced(1, 0, 0)
    c1 = one.mul_c()
    assert c1 == SReduced(0, 1, 0)
    c2 = c1.mul_c()
    assert c2 == SReduced(0, 0, 1)
    c3 = c2.mul_c()
    assert c3 == SReduced(sym(4), 0, 0)


def test_sreduced_normalizes_d_square():
    d = sym(5)
    # constructing with d^2 rewrites to d-degree <= 1
    sr = SReduced(d * d, 0, 0)
    assert all(ev[4] <= 1 for z in sr.parts for ev in z.terms)
    trace = sym(1) * sym(2) - sym(3) * 3
    norm = (sym(4) + sym(2) ** 3 + sym(3) ** 2 * 9
            - sym(1) * sym(2) * sym(3) * 6 + sym(1) ** 3 * sym(3))
    assert sr == SReduced(trace * d - norm, 0, 0)


def test_conjugate_orbit_sums():
    # u121 and u131 have invariant sum and product
    gset = commutator_generators(3)
    u121 = cyclic.orbit_polynomial(om("x1*x2*x1"), 3)
    u131 = cyclic.orbit_polynomial(om("x1*x3*x1"), 3)
    s1, s2, s3 = (build_sigma(3, k) for k in (1, 2, 3))
    c = c_element()
    assert member(u121 + u131 - (s1 * s2 - s3 * 3), gset).member
    prod = (c * c * c + s2 * s2 * s2 + s3 * s3 * 9
            - s1 * s2 * s3 * 6 + s1 * s1 * s1 * s3)
    assert member(u121 * u131 - prod, gset).member


def test_extra_symbol_is_not_a_member():
    gset = commutator_generators(3)
    assert not member(extra_symbol_poly(), gset).member
    # while the cyclic gaps of the full word are members
    w = parse_poly("x1*x2*x3", 3)
    for r in (1, 2):
        gap = w - cyclic.act(cyclic.CyclicShift(r, 3), w)
        assert member(gap, gset).member


def test_reduce_orbit_matches_certification_corpus():
    gset = commutator_generators(3)
    from sigmaforge.atoms import enumerate_atoms

    for d in range(1, 6):
        for atom in enumerate_atoms(3, d):
            sr = reduce_orbit(atom)
            diff = cyclic.orbit_polynomial(atom, 3) - expand_to_ring(sr)
            assert member(diff, gset).member, atom


def test_reduce_composite_representatives():
    gset = commutator_generators(3)
    for text in ("x1^2", "x1^3", "x1^2*x2", "x1*x2^2*x3",
                 "x1*x3^2*x1*x2", "x1^2*x2^2", "x1*x2*x1^2*x2"):
        rep = om(text)
        sr = reduce_orbit(rep)
        diff = cyclic.orbit_polynomial(rep, 3) - expand_to_ring(sr)
        assert member(diff, gset).member, text


def test_reduce_invariant_certified_random():
    rng = random.Random(31)
    gset = commutator_generators(3)
    from sigmaforge.ring import basis_words

    pool = [w for d in (1, 2, 3) for w in basis_words(3, d)]
    for _ in range(25):
        p = Polynomial.constant(Fraction(rng.randint(-3, 3)), 3)
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(pool)
            p = p + cyclic.orbit_polynomial(m, 3) * \
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        sr = reduce_to_S_form(p, certify=True)
        assert member(p - expand_to_ring(sr), gset).member


def test_reduce_is_multiplicative():
    # canonical forms multiply like the classes they stand for
    rng = random.Random(32)
    from sigmaforge.ring import basis_words

    pool = [w for d in (1, 2, 3) for w in basis_words(3, d)]
    for _ in range(12):
        ps = []
        for _ in range(2):
            p = Polynomial.zero(3)
            for _ in range(rng.randint(1, 2)):
                p = p + cyclic.orbit_polynomial(rng.choice(pool), 3) * \
                    Fraction(rng.randint(-4, 4))
            ps.append(p)
        p, q = ps
        both = reduce_invariant(p * q)
        split = reduce_invariant(p) * reduce_invariant(q)
        assert both == split


def test_reduce_is_linear():
    u = reduce_orbit(om("x1*x2"))
    v = reduce_orbit(om("x1^2"))
    p = cyclic.orbit_polynomial(om("x1*x2"), 3) * 3 \
        - cyclic.orbit_polynomial(om("x1^2"), 3) * Fraction(1, 2)
    assert reduce_invariant(p) == u * 3 - v * Fraction(1, 2)


def test_reduce_rejects_noninvariant():
    with pytest.raises(ValueError):
        reduce_invariant(parse_poly("x1*x2", 3))


def test_reduce_certify_bound():
    p = cyclic.orbit_polynomial(om("x1^7"), 3)
    with pytest.raises(ValueError):
        reduce_to_S_form(p, certify=True, max_degree=6)
    # without certification high degrees still reduce
    sr = reduce_to_S_form(p)
    assert not sr.is_zero()


def test_degree_guard_refuses_before_reducing(monkeypatch):
    def reached(p):
        raise AssertionError("the reduction ran before the guard")

    monkeypatch.setattr(n3lab, "reduce_invariant", reached)
    with pytest.raises(ValueError, match="below degree 7"):
        reduce_to_S_form(parse_poly("x1^7 + x2^7 + x3^7", 3), certify=True)


def test_clear_caches_gives_equal_reductions():
    reps = [om("x1^2*x2*x1*x3"), om("x1*x2*x1*x3*x2"), om("x1^3*x2^2"),
            om("x1*x3*x1*x3*x2*x1")]
    inv = cyclic.orbit_polynomial(om("x1^2*x3^3"), 3) * Fraction(3, 2) + 1
    before = [reduce_orbit(r) for r in reps] + [reduce_invariant(inv)]
    n3lab.clear_caches()
    assert n3lab._S_CACHE == {}
    for cached in (n3lab.d_square_rewrite, n3lab._symbol_polys,
                   base_table, n3lab._sym):
        assert cached.cache_info().currsize == 0
    after = [reduce_orbit(r) for r in reps] + [reduce_invariant(inv)]
    assert after == before


def test_sreduced_render():
    sr = SReduced(sym(2), -sym(1), 3)
    text = sr.render()
    assert "s2" in text and "*c" in text and "c^2" in text
    assert SReduced.zero().render() == "0"
    assert SReduced.zero().is_zero()


def test_cubic_for_degree_two_orbit_sum():
    # t = u12 satisfies t^3 - 3 s2 t^2 + 3 s2^2 t - (s2^3 + c^3) mod I
    gset = commutator_generators(3)
    t = cyclic.orbit_polynomial(om("x1*x2"), 3)
    s2 = build_sigma(3, 2)
    c = c_element()
    good = (t * t * t - s2 * t * t * 3 + s2 * s2 * t * 3
            - (s2 * s2 * s2 + c * c * c))
    assert member(good, gset).member
    # the inhomogeneous misreading cannot be a member
    bad = (t * t * t - s2 * t * t * 3 + s2 * t * 3
           - (s2 * s2 * s2 + c * c * c))
    assert not member(bad, gset).member


def test_suite_all_pass():
    units = verify_n3_suite(max_degree=6)
    assert len(units) >= 35
    for u in units:
        assert u["status"] == "pass", u
        assert u["n"] == 3
        assert u["check"].startswith("n3_")


def test_suite_rejects_low_bound():
    with pytest.raises(ValueError):
        verify_n3_suite(max_degree=4)


def test_run_check_dispatches_n3():
    from sigmaforge.ideal import run_check

    units = run_check("n3", 3)
    assert all(u["status"] == "pass" for u in units)
    with pytest.raises(ValueError):
        run_check("n3", 4)
