"""Canonical reduction and the verification suite for three letters."""

import random
from fractions import Fraction

import pytest

from oracles import expand_to_ring
from sigmaforge import cyclic, n3lab
from sigmaforge.ideal import commutator_generators, degree_slice, member
from sigmaforge.n3lab import (
    SReduced,
    base_table,
    c_element,
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
    table = base_table()
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
        gap = w - cyclic.act(r, w, 3)
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


def random_invariants(rng, count):
    """Seeded inhomogeneous invariants: a constant plus up to three
    rational multiples of orbit sums of words of degree 1 to 3."""
    from sigmaforge.ring import basis_words

    pool = [w for d in (1, 2, 3) for w in basis_words(3, d)]
    for _ in range(count):
        p = Polynomial.constant(Fraction(rng.randint(-3, 3)), 3)
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(pool)
            p = p + cyclic.orbit_polynomial(m, 3) * \
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        yield p


def test_reduce_invariant_certified_random():
    gset = commutator_generators(3)
    for p in random_invariants(random.Random(31), 25):
        sr = reduce_to_S_form(p, certify=True)
        assert member(p - expand_to_ring(sr), gset).member


def symbol_keys(max_weight):
    return [key for d in range(1, max_weight + 1)
            for key in n3lab._s_monomials(d)]


@pytest.mark.parametrize("max_weight", [
    6, pytest.param(8, marks=pytest.mark.slow)])
def test_symbol_normal_forms_match_the_expansion(max_weight):
    """NF(key), built from its prefix's normal form, against the full
    free-ring expansion: their difference is a member, and NF(key) has
    no pivot word of its slice, so it is the canonical normal form."""
    gset = commutator_generators(3)
    for key in symbol_keys(max_weight):
        nf = n3lab._key_normal_form(key)
        full = expand_to_ring(SReduced._trusted({key: Fraction(1)}, 5))
        assert member(full - nf, gset).member, key
        sl = degree_slice(gset, n3lab._key_weight(key))
        pivots = {sl.basis[c] for c in sl.space.pivots}
        assert not pivots & set(nf.terms), key
        assert sl.normal_form(full) == nf, key


def test_normal_form_verdicts_match_membership():
    """The normal-form verdict against member(p - expand_to_ring(sr)) on
    200 seeded invariants, each also with its form moved by one symbol
    monomial, which both routes must reject."""
    gset = commutator_generators(3)
    rng = random.Random(33)
    keys = symbol_keys(4)
    for p in random_invariants(rng, 200):
        sr = reduce_invariant(p)
        bad = sr + SReduced._trusted(
            {rng.choice(keys): Fraction(rng.choice((-2, -1, 1, 3)))}, 5)
        for form, want in ((sr, True), (bad, False)):
            verdict = n3lab._certifies(p, form)
            assert verdict == member(p - expand_to_ring(form), gset).member
            assert verdict is want


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
    before = ([reduce_orbit(r) for r in reps] + [reduce_invariant(inv)]
              + [reduce_to_S_form(inv, certify=True)])
    assert n3lab._NF_CACHE
    n3lab.clear_caches()
    assert n3lab._S_CACHE == {}
    assert n3lab._NF_CACHE == {}
    for cached in (n3lab.d_square_rewrite, n3lab._d_square_terms,
                   n3lab._symbol_polys, base_table, n3lab._sym):
        assert cached.cache_info().currsize == 0
    after = ([reduce_orbit(r) for r in reps] + [reduce_invariant(inv)]
             + [reduce_to_S_form(inv, certify=True)])
    assert after == before


def test_sreduced_render():
    sr = SReduced(sym(2), -sym(1), 3)
    text = sr.render()
    assert "s2" in text and "*c" in text and "c^2" in text
    assert SReduced.zero().render() == "0"
    assert SReduced.zero().is_zero()


# -- the triple arithmetic, kept as the oracle for the one-map form ------


def oracle_normalize_d(z):
    trace = sym(1) * sym(2) - sym(3) * 3
    norm = (sym(4) + sym(2) ** 3 + sym(3) ** 2 * 9
            - sym(1) * sym(2) * sym(3) * 6 + sym(1) ** 3 * sym(3))
    while True:
        high = {ev: c for ev, c in z.terms.items() if ev[4] >= 2}
        if not high:
            return z
        for ev, c in high.items():
            rest = ev[:4] + (ev[4] - 2,)
            z = (z - CommPoly({ev: c}, 5)
                 + CommPoly({rest: c}, 5) * (trace * sym(5) - norm))


class Triple:
    """z0 + z1*c + z2*c^2 as three CommPoly entries, with the product
    written out part by part and every entry rewritten to d-degree at
    most 1 afterwards."""

    def __init__(self, z0, z1, z2):
        self.parts = tuple(
            oracle_normalize_d(z if isinstance(z, CommPoly)
                               else CommPoly.constant(z, 5))
            for z in (z0, z1, z2))

    def __add__(self, other):
        return Triple(*(a + b for a, b in zip(self.parts, other.parts)))

    def __neg__(self):
        return Triple(*(-z for z in self.parts))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return Triple(*(z * Fraction(c) for z in self.parts))

    def __mul__(self, other):
        if isinstance(other, CommPoly):
            return Triple(*(z * other for z in self.parts))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        z0, z1, z2 = self.parts
        w0, w1, w2 = other.parts
        c3 = sym(4)
        return Triple(z0 * w0 + c3 * (z1 * w2 + z2 * w1),
                      z0 * w1 + z1 * w0 + c3 * (z2 * w2),
                      z0 * w2 + z1 * w1 + z2 * w0)

    def mul_c(self):
        z0, z1, z2 = self.parts
        return Triple(sym(4) * z2, z0, z1)

    def __eq__(self, other):
        return self.parts == other.parts

    def render(self):
        chunks = []
        for z, tail in zip(self.parts, ("", "*c", "*c^2")):
            if z.is_zero():
                continue
            body = z.render(n3lab.SYMBOL_NAMES)
            if tail and body == "1":
                chunks.append(tail[1:])
                continue
            if tail and body == "-1":
                chunks.append("-" + tail[1:])
                continue
            if tail and (" " in body or len(z.terms) > 1):
                body = f"({body})"
            chunks.append(body + tail)
        return " + ".join(chunks) if chunks else "0"


def random_part(rng):
    """A 5-symbol CommPoly of d-degree at most 1."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        ev = tuple(rng.randint(0, 2) for _ in range(4)) + (rng.randint(0, 1),)
        terms[ev] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return CommPoly(terms, 5)


def assert_agrees(sr, oracle):
    """sr is the triple the oracle computed, and a value the validating
    constructor would have built."""
    assert type(sr) is SReduced and sr.parts == oracle.parts
    assert sr == SReduced(*sr.parts) and sr.render() == oracle.render()
    for key, c in sr.terms.items():
        assert len(key) == 6 and key[4] <= 1 and key[5] <= 2
        assert type(c) is Fraction and c != 0


def test_sreduced_agrees_with_the_triple_oracle():
    rng = random.Random(41)
    d, one = sym(5), CommPoly.constant(1, 5)
    # d*c^2 times d*c: the c^3 wrap and the d^2 rewrite in one term
    pool = [(SReduced(*t), Triple(*t)) for t in (
        (0, 0, d), (0, d, 0), (d, 0, one + d), (0, 0, 0), (1, 0, 0))]
    pool += [(sr, Triple(*sr.parts)) for sr in base_table().values()]
    for _ in range(60):
        parts = [random_part(rng) for _ in range(3)]
        pool.append((SReduced(*parts), Triple(*parts)))
    for sr, oracle in pool:
        assert_agrees(sr, oracle)
    wrapped = 0
    for _ in range(300):
        (a, oa), (b, ob) = rng.choice(pool), rng.choice(pool)
        q = random_part(rng) + sym(5) ** rng.randint(0, 2)
        r = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert_agrees(a + b, oa + ob)
        assert_agrees(a - b, oa - ob)
        assert_agrees(-a, -oa)
        assert_agrees(a * b, oa * ob)
        assert_agrees(a * q, oa * q)
        assert_agrees(q * a, oa * q)
        assert_agrees(a * r, oa * r)
        assert_agrees(r * a, oa * r)
        assert_agrees(a.scale(r), oa.scale(r))
        assert_agrees(a.mul_c(), oa.mul_c())
        assert (a == b) == (oa == ob)
        assert hash(a) == hash(SReduced(*oa.parts))
        wrapped += any(k1[4] + k2[4] == 2 and k1[5] + k2[5] >= 3
                       for k1 in a.terms for k2 in b.terms)
    assert wrapped > 20
    # (d*c^2)(d*c) = c3*d^2, which the constructor rewrites on its own
    assert pool[0][0] * pool[1][0] == SReduced(sym(4) * d * d, 0, 0)


def test_sreduced_scalars_follow_the_core_rule():
    sr = reduce_orbit(om("x1*x2"))
    assert SReduced.scalar(2) == 2 and hash(SReduced.scalar(2)) == hash(2)
    assert SReduced.zero() == 0 and sr != 2
    assert sr + 1 == sr + SReduced.scalar(1) == 1 + sr
    assert sr - Fraction(1, 2) == sr + SReduced.scalar(Fraction(-1, 2))
    assert sr ** 2 == sr * sr and sr ** 0 == 1


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
