"""Exact reduction laboratory for the three-letter algebra.

Modulo the invariance ideal, the basic quadratic commutator c almost
commutes with the letters (it shifts them), and its cube is central.
Every invariant polynomial reduces to a canonical triple
z0 + z1*c + z2*c^2 whose entries are commutative polynomials in the
three elementary sums, the central cube, and the orbit sum of the
degree-3 alternating atom, held by ``SReduced`` on ``ring.Terms``.
The reduction runs off a seven-entry table of low-degree orbit sums
plus six prefix rules for higher atoms, and every derived identity can
be certified in the free ring by exact ideal membership.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import cyclic
from .atoms import enumerate_atoms, factor_atoms, is_atom, orbit_max
from .ideal import _unit, commutator_generators, degree_slice, member
from .linalg import RowSpace
from .ring import (InternalError, Monomial, ONE, Polynomial, Terms,
                   parse_poly, render_poly)
from .rewrite import orbit_decompose, orbit_product
from .sigma import CommPoly, abelianize, build_sigma

N = 3
SYMBOL_NAMES = ("s1", "s2", "s3", "c3", "d")
SYMBOL_WEIGHTS = (1, 2, 3, 6, 3)


def c_element() -> Polynomial:
    """The basic quadratic commutator."""
    return parse_poly("x1*x2 - x2*x1", N)


def extra_symbol_poly() -> Polynomial:
    """The orbit sum of the degree-3 alternating atom; the one degree-3
    invariant class outside the span of the elementary sums and c.

    The cyclic gaps of the full word are no use for this role: for
    three letters the full word is the top elementary sum, so those
    gaps are difference generators and vanish modulo the ideal (the
    suite records this).
    """
    return cyclic.orbit_polynomial(Monomial((1, 2, 1), (1, 1, 1)), N)


@lru_cache(maxsize=None)
def _sym(i: int) -> CommPoly:
    return CommPoly.variable(i, 5)


@lru_cache(maxsize=None)
def d_square_rewrite():
    """d^2 in terms of lower d-degree: the two degree-3 alternating
    orbit sums are conjugate roots of a quadratic over the invariants,
    with sum s1*s2 - 3*s3 and product c3 + s2^3 + 9*s3^2
    - 6*s1*s2*s3 + s1^3*s3."""
    s1, s2, s3, c3 = _sym(1), _sym(2), _sym(3), _sym(4)
    trace = s1 * s2 - s3 * 3
    norm = c3 + s2 ** 3 + s3 ** 2 * 9 - s1 * s2 * s3 * 6 + s1 ** 3 * s3
    return trace, norm


def _normalize_d(z: CommPoly) -> CommPoly:
    """Rewrite away every d-power of 2 or more; degree in d drops each
    pass, so this terminates."""
    trace, norm = d_square_rewrite()
    while True:
        high = {ev: c for ev, c in z.terms.items() if ev[4] >= 2}
        if not high:
            return z
        for ev, c in high.items():
            base = CommPoly({ev[:4] + (ev[4] - 2,): c}, 5)
            z = z - CommPoly({ev: c}, 5) + base * (trace * _sym(5) - norm)


@lru_cache(maxsize=None)
def _d_square_terms() -> tuple:
    """d^2 = trace*d - norm as (``SReduced`` key, coeff) pairs."""
    trace, norm = d_square_rewrite()
    return tuple((ev + (0,), c)
                 for ev, c in (trace * _sym(5) - norm).terms.items())


class SReduced(Terms):
    """Canonical triple z0 + z1*c + z2*c^2 with commutative entries.

    One map of terms, keyed by the exponents of (s1, s2, s3, c3, d) and
    then the power of c (0, 1 or 2); c commutes with the symbols and c^3
    wraps into c3.  Entries stay at d-degree at most 1, so equal classes
    get equal maps: ``SReduced(z0, z1, z2)`` validates and rewrites every
    power of d, a product (d-degree at most 2) rewrites d^2 once, and
    sums, scalar multiples and ``mul_c`` cannot raise it.
    """

    __slots__ = ()

    def __init__(self, z0, z1, z2):
        terms = {}
        for j, z in enumerate((z0, z1, z2)):
            if not isinstance(z, CommPoly) and isinstance(z, (int, Fraction)):
                z = CommPoly.constant(z, 5)
            if not isinstance(z, CommPoly) or z.arity != 5:
                raise ValueError("entries must be 5-symbol CommPoly values")
            terms.update((ev + (j,), c)
                         for ev, c in _normalize_d(z).terms.items())
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "arity", 5)

    @staticmethod
    def _unit(arity):
        return (0,) * (arity + 1)

    @classmethod
    def zero(cls) -> "SReduced":
        return cls._trusted({}, 5)

    @classmethod
    def scalar(cls, z, arity=5) -> "SReduced":
        """z0 = z, a rational or a CommPoly; also the core's hook for a
        rational scalar (``+ 1``, ``== 2``, ``** 0``), at arity 5."""
        return cls(z, 0, 0)

    constant = scalar

    @property
    def parts(self) -> tuple:
        """The entries (z0, z1, z2), as 5-symbol CommPoly values."""
        split = ({}, {}, {})
        for key, c in self.terms.items():
            split[key[5]][key[:5]] = c
        return tuple(CommPoly._trusted(t, 5) for t in split)

    # bound by name for the benchmark's tracer, as in ring.Polynomial
    __add__, __sub__ = Terms.__add__, Terms.__sub__

    def __mul__(self, other):
        if isinstance(other, CommPoly):
            other = SReduced(other, 0, 0)
        return Terms.__mul__(self, other)

    __rmul__ = __mul__

    def _product(self, other) -> dict:
        terms = {}
        high = {}  # the terms with d^2, d taken out
        right = other.terms.items()
        for k1, x in self.terms.items():
            for k2, y in right:
                key = [a + b for a, b in zip(k1, k2)]
                if key[5] > 2:
                    key[5] -= 3
                    key[3] += 1
                out = terms
                if key[4] == 2:
                    key[4] = 0
                    out = high
                key = tuple(key)
                got = out.get(key)
                out[key] = x * y if got is None else got + x * y
        for key, x in high.items():
            for k2, y in _d_square_terms():
                k = tuple(a + b for a, b in zip(key, k2))
                got = terms.get(k)
                terms[k] = x * y if got is None else got + x * y
        return terms

    def scale(self, c) -> "SReduced":
        return Terms.__mul__(self, Fraction(c))

    def mul_c(self) -> "SReduced":
        """Multiply by one power of c; the cube wraps into the symbol."""
        return self._trusted(
            {(a1, a2, a3, a4 + 1, a5, 0) if j == 2
             else (a1, a2, a3, a4, a5, j + 1): c
             for (a1, a2, a3, a4, a5, j), c in self.terms.items()}, 5)

    def render(self) -> str:
        chunks = []
        for z, tail in zip(self.parts, ("", "*c", "*c^2")):
            if z.is_zero():
                continue
            body = z.render(SYMBOL_NAMES)
            if tail and body in ("1", "-1"):
                body, tail = body[:-1], tail[1:]
            elif tail and len(z.terms) > 1:
                body = f"({body})"
            chunks.append(body + tail)
        return " + ".join(chunks) or "0"

    def __repr__(self):
        return f"SReduced({self.render()!r})"


@lru_cache(maxsize=None)
def _symbol_polys():
    """The free-ring values of s1, s2, s3, c3, d and c."""
    c = c_element()
    return (build_sigma(N, 1), build_sigma(N, 2), build_sigma(N, 3),
            c * c * c, extra_symbol_poly(), c)


def expand_to_ring(sr: SReduced) -> Polynomial:
    """Evaluate a canonical form in the free ring, factors in the fixed
    order s1, s2, s3, c3, d, c."""
    syms = _symbol_polys()
    total = Polynomial.zero(N)
    for key, coeff in sorted(sr.terms.items()):
        prod = Polynomial.constant(coeff, N)
        for sym, e in zip(syms, key):
            for _ in range(e):
                prod = prod * sym
        total = total + prod
    return total


@lru_cache(maxsize=None)
def base_table():
    """Canonical forms of the seven orbit sums of atoms of degree <= 3."""
    s1, s2, s3, d = _sym(1), _sym(2), _sym(3), _sym(5)
    entries = {
        (1,): SReduced(s1, 0, 0),
        (1, 2): SReduced(s2, 1, 0),
        (1, 3): SReduced(s2, -2, 0),
        (1, 2, 1): SReduced(d, 0, 0),
        (1, 2, 3): SReduced(s3 * 3, 0, 0),
        (1, 3, 1): SReduced(s1 * s2 - s3 * 3 - d, 0, 0),
        (1, 3, 2): SReduced(s3 * 3, -s1, 0),
    }
    return {Monomial(w, (1,) * len(w)): sr for w, sr in entries.items()}


_S_CACHE = {}


def _s_of_letters(letters) -> SReduced:
    m = Monomial.from_letters(letters)
    return reduce_orbit(orbit_max(m, N))


def reduce_orbit(rep: Monomial) -> SReduced:
    """Canonical form of the orbit sum of a representative monomial."""
    if rep.is_unit():
        raise ValueError("the unit monomial has no orbit sum")
    rep = orbit_max(rep, N)
    got = _S_CACHE.get(rep)
    if got is not None:
        return got
    table = base_table()
    if rep in table:
        out = table[rep]
    elif is_atom(rep, N):
        out = _reduce_big_atom(rep)
    else:
        out = _reduce_composite(rep)
    _S_CACHE[rep] = out
    return out


def _reduce_big_atom(rep: Monomial) -> SReduced:
    """The six prefix rules for atoms of degree at least 4."""
    L = rep.complexion
    s2s = SReduced.scalar(_sym(2))
    s3s = SReduced.scalar(_sym(3))
    if L[:3] == (1, 2, 3):
        return s3s * _s_of_letters(L[3:])
    if L[:3] == (1, 3, 2):
        return (s3s * _s_of_letters(L[3:])
                - _s_of_letters((2,) + L[3:]).mul_c())
    if L[:4] == (1, 2, 1, 2):
        return (s2s * _s_of_letters((1, 2) + L[4:])
                - s3s * _s_of_letters((1,) + L[4:])
                - s3s * _s_of_letters((2,) + L[4:]))
    if L[:4] == (1, 2, 1, 3):
        return (s3s * _s_of_letters((1,) + L[4:])
                - _s_of_letters((2, 3) + L[4:]).mul_c())
    if L[:4] == (1, 3, 1, 2):
        return s3s * _s_of_letters((1,) + L[4:])
    if L[:4] == (1, 3, 1, 3):
        return (s2s * _s_of_letters((1, 3) + L[4:])
                - s3s * _s_of_letters((3,) + L[4:])
                - _s_of_letters((1, 2, 1, 3) + L[4:]))
    raise InternalError(f"unhandled atom prefix: {rep!r}")


def _reduce_composite(rep: Monomial) -> SReduced:
    """Split a squareful representative along its atom factorization:
    the product of the atoms' orbit sums is O[rep] plus lower orbits."""
    factors = factor_atoms(rep, N)
    prod = {ONE: 1}
    sprod = SReduced.scalar(1)
    for f in factors:
        prod = orbit_product(prod, f, N)
        sprod = sprod * reduce_orbit(f)
    if prod.pop(rep, 0) != 1:
        raise InternalError("composite split lost its leading orbit")
    top = rep.sort_key()
    for other in prod:
        if other.sort_key() >= top:
            raise InternalError("composite split failed to decrease")
    return sprod - _reduce_orbits(prod)


def _reduce_orbits(orbits: dict) -> SReduced:
    """Canonical form of a {representative: coeff} combination."""
    total = SReduced.zero()
    for rep, coeff in orbits.items():
        total = total + (coeff if rep.is_unit()
                         else reduce_orbit(rep).scale(coeff))
    return total


def reduce_invariant(p: Polynomial) -> SReduced:
    """Canonical form of any invariant polynomial (arity 3)."""
    if p.arity != N:
        raise ValueError("expected an arity-3 polynomial")
    return _reduce_orbits(orbit_decompose(p))


def clear_caches():
    """Empty the orbit-sum cache and every cached table and symbol."""
    _S_CACHE.clear()
    for cached in (d_square_rewrite, _d_square_terms, _symbol_polys,
                   base_table, _sym):
        cached.cache_clear()


def reduce_to_S_form(p: Polynomial, certify=False,
                     max_degree=6) -> SReduced:
    """Reduce an invariant polynomial; optionally certify the result by
    exact membership of the difference in the invariance ideal."""
    d = p.degree()
    if certify and d is not None and d > max_degree:
        raise ValueError(
            f"certification bound {max_degree} below degree {d}")
    sr = reduce_invariant(p)
    if certify:
        diff = p - expand_to_ring(sr)
        if not member(diff, commutator_generators(N)).member:
            raise AssertionError("reduction failed ideal certification")
    return sr


# -- the verification suite ------------------------------------------


def _x(i: int) -> Polynomial:
    return Polynomial.variable((i - 1) % N + 1, N)


def _check_base_table():
    out = []
    gset = commutator_generators(N)
    for atom, sr in sorted(base_table().items(),
                           key=lambda kv: kv[0].sort_key(), reverse=True):
        diff = cyclic.orbit_polynomial(atom, N) - expand_to_ring(sr)
        ok = member(diff, gset).member
        out.append(_unit("n3_base_table", N, atom.degree, ok,
                         {"atom": render_poly(
                             Polynomial.from_monomial(atom, N)),
                          "form": sr.render()}))
    return out


def _check_letter_shift():
    gset = commutator_generators(N)
    c = c_element()
    out = []
    for i in (1, 2, 3):
        ok = member(_x(i) * c - c * _x(i + 1), gset).member
        out.append(_unit("n3_xc_shift", N, 3, ok, {"letter": i, "shift": 1}))
    for i in (1, 2, 3):
        ok = member(_x(i) * c * c - c * c * _x(i + 2), gset).member
        out.append(_unit("n3_xc2_shift", N, 5, ok, {"letter": i, "shift": 2}))
    return out


def _check_cube_central(max_degree):
    gset = commutator_generators(N)
    c = c_element()
    c3 = c * c * c
    out = []
    for i in (1, 2, 3):
        lhs = _x(i) * c3 - c3 * _x(i)
        f1 = _x(i) * c - c * _x(i + 1)
        f2 = _x(i + 1) * c - c * _x(i + 2)
        f3 = _x(i + 2) * c - c * _x(i)
        rhs = f1 * c * c + c * f2 * c + c * c * f3
        exact = lhs == rhs
        members = all(member(f, gset).member for f in (f1, f2, f3))
        out.append(_unit("n3_c3_central", N, 7, exact and members,
                         {"letter": i, "identity_exact": exact,
                          "factors_member": members,
                          "route": "structural"}))
    if max_degree >= 7:
        for i in (1, 2, 3):
            ok = member(_x(i) * c3 - c3 * _x(i), gset).member
            out.append(_unit("n3_c3_central_direct", N, 7, ok,
                             {"letter": i, "route": "direct"}))
    return out


def _check_orbit121_central():
    gset = commutator_generators(N)
    u = cyclic.orbit_polynomial(Monomial((1, 2, 1), (1, 1, 1)), N)
    out = []
    for i in (1, 2, 3):
        ok = member(_x(i) * u - u * _x(i), gset).member
        out.append(_unit("n3_orbit121_central", N, 4, ok, {"letter": i}))
    return out


def _check_reversal_nonmember():
    gset = commutator_generators(N)
    p = parse_poly("x1*x3*x2 - x3*x2*x1", N)
    res = member(p, gset)
    wit = {"member": res.member}
    if not res.member:
        wit["residual"] = render_poly(res.residuals[3])
    return [_unit("n3_reversal_nonmember", N, 3, not res.member, wit)]


def _check_word_shift_gaps():
    # for three letters the full word is the top elementary sum, so its
    # cyclic gaps are honest members; this pins down why the extra
    # degree-3 symbol has to be an orbit sum instead
    gset = commutator_generators(N)
    out = []
    w = parse_poly("x1*x2*x3", N)
    for r in (1, 2):
        p = w - cyclic.act(cyclic.CyclicShift(r, N), w)
        ok = member(p, gset).member
        out.append(_unit("n3_word_shift_member", N, 3, ok,
                         {"shift": r, "member": ok}))
    extra = extra_symbol_poly()
    res = member(extra, gset)
    out.append(_unit("n3_extra_symbol_nonmember", N, 3, not res.member,
                     {"member": res.member}))
    return out


def _check_cubic():
    gset = commutator_generators(N)
    s2 = build_sigma(N, 2)
    c = c_element()
    t = cyclic.orbit_polynomial(Monomial((1, 2), (1, 1)), N)
    # the shifted sum solves a cubic with constant term s2^3 + c^3
    good = (t * t * t - s2 * t * t * 3 + s2 * s2 * t * 3
            - (s2 * s2 * s2 + c * c * c))
    ok_good = member(good, gset).member
    out = [_unit("n3_cubic", N, 6, ok_good,
                 {"variant": "homogeneous", "member": ok_good})]
    # dropping one power of s2 leaves an inhomogeneous expression whose
    # degree-4 part survives abelianization, so it cannot be a member
    bad = (t * t * t - s2 * t * t * 3 + s2 * t * 3
           - (s2 * s2 * s2 + c * c * c))
    res = member(bad, gset)
    ab4 = abelianize(bad.homogeneous_component(4))
    out.append(_unit(
        "n3_cubic_misprint_rejected", N, 6, (not res.member)
        and not ab4.is_zero(),
        {"variant": "inhomogeneous", "member": res.member,
         "degree_4_commutative_image_nonzero": not ab4.is_zero()}))
    return out


def _check_d_quadratic():
    # the two alternating degree-3 orbit sums multiply to an invariant
    # expression: certified in the free ring at degree 6
    gset = commutator_generators(N)
    u121 = cyclic.orbit_polynomial(Monomial((1, 2, 1), (1, 1, 1)), N)
    u131 = cyclic.orbit_polynomial(Monomial((1, 3, 1), (1, 1, 1)), N)
    s1, s2, s3 = (build_sigma(N, k) for k in (1, 2, 3))
    c = c_element()
    product = (c * c * c + s2 * s2 * s2 + s3 * s3 * 9
               - s1 * s2 * s3 * 6 + s1 * s1 * s1 * s3)
    ok_prod = member(u121 * u131 - product, gset).member
    trace = s1 * s2 - s3 * 3
    ok_trace = member(u121 + u131 - trace, gset).member
    # the canonical multiplication must collapse the product to the
    # same scalar the rewrite encodes
    left = reduce_orbit(Monomial((1, 2, 1), (1, 1, 1)))
    right = reduce_orbit(Monomial((1, 3, 1), (1, 1, 1)))
    _, norm = d_square_rewrite()
    collapsed = (left * right) == SReduced.scalar(norm)
    return [_unit("n3_d_quadratic", N, 6,
                  ok_prod and ok_trace and collapsed,
                  {"sum_member": ok_trace, "product_member": ok_prod,
                   "canonical_product_collapses": collapsed})]


def _check_central_quadratics():
    gset = commutator_generators(N)
    sl2 = degree_slice(gset, 2)
    sl3 = degree_slice(gset, 3)
    # row t is [residuals of [x_i, w_t] modulo the degree-3 slice | unit
    # vector e_t], w_t = sl2.basis[t]: residual block k at columns from
    # k*m on, m = len(sl3.basis), and e_t at column 3*m + t.  One common
    # scale keeps every row proportional to its exact rational value, so
    # rows pivoting in the unit block carry a basis of the kernel there,
    # in the columns of sl2 (a kernel is a relation among the rows, which
    # RowSpace.combination, a combination for one vector of the span,
    # does not give)
    m = len(sl3.basis)
    real = 3 * m
    blocks = []
    for w in sl2.basis:
        p = Polynomial.from_monomial(w, N)
        blocks.append([sl3.reduce(_x(i) * p - p * _x(i)) for i in (1, 2, 3)])
    scale = math.lcm(*(r.scale * r.alpha for bl in blocks for r in bl))
    rows = []
    for t, bl in enumerate(blocks):
        row = {real + t: scale}
        for k, r in enumerate(bl):
            f = scale // (r.scale * r.alpha)
            row.update((k * m + c, x * f) for c, x in r.row.items())
        rows.append(row)
    space = RowSpace(rows, real + len(sl2.basis))
    kernel = [{c - real: x for c, x in row.items()}
              for j, row in zip(space.pivots, space.rows) if j >= real]
    nullity = len(kernel)
    s1 = build_sigma(N, 1)
    s2 = build_sigma(N, 2)
    span = RowSpace(list(sl2.space.rows)
                    + [sl2.vector_of(q)[1] for q in (s1 * s1, s2)],
                    len(sl2.basis))
    contained = all(span.contains(a) for a in kernel)
    expected = 2 + sl2.rank
    return [_unit("n3_central_quadratics", N, 2,
                  nullity == expected and contained,
                  {"nullity": nullity, "expected": expected,
                   "all_in_span": contained})]


def _s_monomials(total: int):
    """Normal-form ``SReduced`` keys of weighted degree ``total``:
    c-power at most 2 and d-power at most 1."""
    out = []
    for j in (0, 1, 2):
        w = total - 2 * j
        if w < 0:
            continue
        evs = []

        def rec(pos, left, acc):
            if pos == len(SYMBOL_WEIGHTS):
                if left == 0:
                    evs.append(tuple(acc))
                return
            step = SYMBOL_WEIGHTS[pos]
            top = left // step
            if pos == 4:
                top = min(top, 1)
            for e in range(top + 1):
                rec(pos + 1, left - e * step, acc + [e])

        rec(0, w, [])
        out.extend(ev + (j,) for ev in evs)
    return out


def _check_s_independence(max_degree):
    out = []
    gset = commutator_generators(N)
    for d in range(1, max_degree + 1):
        sl = degree_slice(gset, d)
        rows = []
        count = 0
        for key in _s_monomials(d):
            count += 1
            p = expand_to_ring(SReduced._trusted({key: Fraction(1)}, 5))
            rows.append(sl.reduce(p).row)
        rank = RowSpace(rows, len(sl.basis)).rank
        out.append(_unit("n3_s_independence", N, d, rank == count,
                         {"count": count, "rank": rank}))
    return out


def _check_s_reduction(max_degree):
    gset = commutator_generators(N)
    out = []
    # the worked product: (s2 + c)(s2 - 2c) collapses to a clean triple
    left = reduce_orbit(Monomial((1, 2), (1, 1)))
    right = reduce_orbit(Monomial((1, 3), (1, 1)))
    prod = left * right
    expected = SReduced(_sym(2) ** 2, -_sym(2), -2)
    frozen = prod == expected
    u12 = cyclic.orbit_polynomial(Monomial((1, 2), (1, 1)), N)
    u13 = cyclic.orbit_polynomial(Monomial((1, 3), (1, 1)), N)
    certified = member(u12 * u13 - expand_to_ring(prod), gset).member
    out.append(_unit("n3_s_product", N, 4, frozen and certified,
                     {"frozen_form": prod.render(), "matches": frozen,
                      "certified": certified}))
    bound = min(max_degree, 6)
    for d in range(1, bound + 1):
        bad = []
        for atom in enumerate_atoms(N, d):
            sr = reduce_orbit(atom)
            diff = cyclic.orbit_polynomial(atom, N) - expand_to_ring(sr)
            if not member(diff, gset).member:
                bad.append(render_poly(Polynomial.from_monomial(atom, N)))
        out.append(_unit("n3_s_reduce_atoms", N, d, not bad,
                         {"atoms": len(enumerate_atoms(N, d)),
                          "failed": bad}))
    return out


def verify_n3_suite(max_degree=6):
    """Run every three-letter check; returns a list of report units."""
    if max_degree < 6:
        raise ValueError("the suite needs degree bound at least 6")
    units = []
    units.extend(_check_base_table())
    units.extend(_check_letter_shift())
    units.extend(_check_cube_central(max_degree))
    units.extend(_check_orbit121_central())
    units.extend(_check_reversal_nonmember())
    units.extend(_check_word_shift_gaps())
    units.extend(_check_cubic())
    units.extend(_check_d_quadratic())
    units.extend(_check_central_quadratics())
    units.extend(_check_s_independence(max_degree))
    units.extend(_check_s_reduction(max_degree))
    return units
