"""Membership certificates read off the elimination records.

``DegreeSlice.certificate_for`` unwinds ``RowSpace.combination`` into
``[(c, u, gi, v)]`` with ``sum c*(u*gens[gi]*v) == p``.  Each test here
rebuilds the certificates it gets with ``Polynomial`` products, apart
from the slice's own integer check.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from sigmaforge import ideal
from sigmaforge.linalg import RowSpace
from sigmaforge.ring import Monomial, Polynomial, parse_poly

SRC = Path(__file__).resolve().parents[1] / "src"


def rebuild(cert, gset):
    n = gset.n
    total = Polynomial.zero(n)
    for c, u, gi, v in cert:
        total = total + (Polynomial.from_monomial(u, n) * gset.gens[gi]
                         * Polynomial.from_monomial(v, n)) * c
    return total


def random_word(rng, n, d):
    return Monomial.from_letters([rng.randint(1, n) for _ in range(d)])


def random_member(rng, gset, d, terms=3):
    """A nonzero sum of rational multiples of u*g*v in degree d."""
    n = gset.n
    gens = [g for g in gset.gens if g.degree() <= d]
    p = Polynomial.zero(n)
    while p.is_zero():
        for _ in range(terms):
            g = rng.choice(gens)
            rest = d - g.degree()
            a = rng.randint(0, rest)
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                         rng.randint(1, 4))
            p = p + (Polynomial.from_monomial(random_word(rng, n, a), n)
                     * g
                     * Polynomial.from_monomial(
                         random_word(rng, n, rest - a), n)) * c
    return p


def assert_certified(p, gset):
    res = ideal.member(p, gset, certify=True)
    assert res.member and res.residuals == {}
    assert rebuild(res.certificate, gset) == p
    return res


def assert_refused(p, gset):
    """A non-member gets no certificate and the plain residuals."""
    res = ideal.member(p, gset, certify=True)
    assert not res.member and res.certificate is None
    assert res.residuals == ideal.member(p, gset).residuals
    assert res.residuals


# -- the generator's integerizing scale ------------------------------


def scaled_families():
    comm12 = parse_poly("x1*x2 - x2*x1", 3)
    comm23 = parse_poly("x2*x3 - x3*x2", 3)
    yield ideal.GeneratorSet("half", 3, [comm12 * Fraction(1, 2)])
    yield ideal.GeneratorSet("two-thirds", 3, [comm12 * Fraction(2, 3)])
    yield ideal.GeneratorSet("mixed", 3, [
        comm12 * Fraction(1, 2), comm23 * Fraction(2, 3),
        parse_poly("3/5*x1*x3*x1 - 1/4*x3^3 + x2^3", 3)])


@pytest.mark.parametrize("gset", list(scaled_families()),
                         ids=lambda g: g.name)
def test_certificates_use_the_generator_scale(gset):
    comm12 = parse_poly("x1*x2 - x2*x1", 3)
    res = assert_certified(comm12, gset)
    # c * g == [x1, x2]: the coefficient undoes the generator's scale
    (c, u, gi, v), = res.certificate
    assert (u, gi, v) == (Monomial(), 0, Monomial())
    assert c == 1 / gset.gens[0].coefficient(Monomial.from_letters([1, 2]))
    rng = random.Random(3)
    for d in (2, 3, 4):
        for _ in range(6):
            assert_certified(random_member(rng, gset, d), gset)
    assert_refused(parse_poly("x1*x2", 3), gset)


# -- seeded random members on the default slices ---------------------


@pytest.mark.parametrize("family,n,bound", [
    (ideal.COMMUTATORS, 3, 5), (ideal.COMMUTATORS, 4, 4),
    (ideal.DIFFERENCES, 3, 5), (ideal.DIFFERENCES, 4, 4)])
def test_seeded_random_members_rebuild(family, n, bound):
    gset = ideal.generator_set(family, n)
    rng = random.Random(f"{family}:{n}")
    for d in range(2, bound + 1):
        for _ in range(8):
            p = random_member(rng, gset, d)
            assert_certified(p, gset)
            # no word is in the ideal: it lies in the commutator ideal
            assert_refused(
                p + Polynomial.from_monomial(random_word(rng, n, d), n),
                gset)
    # several homogeneous components certify together
    mixed = random_member(rng, gset, 3) + random_member(rng, gset, bound)
    assert_certified(mixed, gset)


def test_zero_needs_no_certificate():
    gset = ideal.commutator_generators(3)
    res = ideal.member(Polynomial.zero(3), gset, certify=True)
    assert res.member and res.certificate == []


def test_certified_membership_reduces_each_component_once(monkeypatch):
    """A certificate or a residual comes from one reduction per
    homogeneous component, member or not."""
    gset = ideal.commutator_generators(3)
    rng = random.Random(11)
    for d in (2, 3, 4):
        ideal.degree_slice(gset, d)  # built before counting
    calls = []
    reduce = RowSpace.reduce

    def counting(self, vec, steps=None):
        calls.append(steps is not None)
        return reduce(self, vec, steps)

    monkeypatch.setattr(RowSpace, "reduce", counting)
    members = random_member(rng, gset, 2) + random_member(rng, gset, 4)
    assert_certified(members + random_member(rng, gset, 3), gset)
    assert calls == [True] * 3
    calls.clear()
    off = members + parse_poly("x1*x2*x3", 3)
    res = ideal.member(off, gset, certify=True)
    assert not res.member and set(res.residuals) == {3}
    assert calls == [True] * 3
    calls.clear()
    assert ideal.member(off, gset).residuals == res.residuals
    assert calls == [False] * 3


# -- a corrupted record is caught, also under python -O --------------


def test_corrupted_record_raises_under_optimize():
    script = textwrap.dedent("""
        import sys
        from sigmaforge import ideal
        from sigmaforge.ring import parse_poly

        print("optimize", sys.flags.optimize)
        gset = ideal.commutator_generators(3)
        sl = ideal.degree_slice(gset, 3)
        p = gset.gens[0] * parse_poly("x2", 3)
        records = sl.space._records
        for col, rec in records.items():
            # flip the sign of every insertion multiplier
            records[col] = rec[:1] + (-rec[1],) + rec[2:]
        ideal.member(p, gset, certify=True)
        print("no error")
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert "optimize 1" in proc.stdout
    assert "no error" not in proc.stdout
    assert proc.returncode != 0
    assert "certificate failed reconstruction" in proc.stderr


# -- the north-star degrees ------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("n,d", [(4, 6), (5, 5), (3, 8)])
def test_certified_membership_at_north_star_degrees(n, d):
    gset = ideal.commutator_generators(n)
    rng = random.Random(f"north-star:{n}:{d}")
    for _ in range(3):
        p = random_member(rng, gset, d, terms=4)
        assert_certified(p, gset)
        off = p + Polynomial.from_monomial(random_word(rng, n, d), n)
        assert_refused(off, gset)
