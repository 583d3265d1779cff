"""The two-sided ideal measuring cyclic invariance, degree by degree.

Everything here reduces to exact linear algebra on homogeneous slices:
the degree-d piece I_d of the ideal generated by homogeneous
polynomials g is spanned by the vectors u*g*v over word pairs (u, v),
expressed in the fixed degree-d word basis (decreasing monomial order).
A spanning row is named by its words, as (generator index, |u|,
position of u, position of v), and a word's column is read off its
base-n code, for the rows a slice builds and the vectors it reduces.
Canonical echelon forms make membership, residual witnesses and
explicit combination certificates deterministic.  There
is one slice per family and degree: certificates are read off the
elimination records of its ``RowSpace``, and each is rebuilt in the
free ring before it is returned.

The ideal is two-sided and homogeneous, so I_d = x*I_{d-1} +
I_{d-1}*x + span(generators of degree d), the recursion behind
letterplace Groebner bases (La Scala and Levandovskyy, J. Symbolic
Comput. 2009).  A slice therefore eliminates only the spanning rows
that this recursion picks from the basis of the slice below it (see
``DegreeSlice``), not every u*g*v: at n=3 degree 8 that is 6591 of
20898 rows.  The canonical rows do not depend on which spanning rows
go in, so neither do ranks, residuals or any output.

The commutators [x_i, s_m] and the shift differences D(k, r) = s_k -
act(r, s_k) need no slice to be compared: each generator of either
family has a closed-form certificate in the other, read off the ordered
generating function E = (1 + x_1 y)...(1 + x_n y) = sum s_k y^k, the
lambda(t) of noncommutative symmetric functions (Gelfand, Krob,
Lascoux, Leclerc, Retakh and Thibon, Adv. Math. 1995).  A certificate
is rebuilt exactly in the free ring by ``_rebuilds``, the one integer
routine that also checks a slice's certificates, and one that does not
rebuild raises InternalError.  The factored, root and inverse
identities are exact free-ring identities over the shift differences
(and, for the inverse identity, the commutators), so those checks build
no slice either.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from . import cyclic
from .linalg import RowSpace
from .ring import (MAX_TERMS, ONE, InternalError, Monomial, Polynomial,
                   basis_words, commutator, integral, power_exceeds_bound,
                   render_poly, variable_commutator)
from .sigma import (build_sigma, char_poly_image, factored_char_coefficients,
                    inverse_identity_image, verify_sigma_independence)

COMMUTATORS = "commutators"
DIFFERENCES = "sigma-differences"

#: certification bounds keeping the word basis around a thousand columns
DEFAULT_DEGREE_BOUND = {3: 6, 4: 5, 5: 4}


def default_degree_bound(n: int) -> int:
    return DEFAULT_DEGREE_BOUND.get(n, 3)


class GeneratorSet:
    """Named, homogeneous generating family for a two-sided ideal.

    ``_integer[gi]`` is (scale, {monomial: int}) with scale*gens[gi]
    integer, and ``_codes[gi]`` is (degree, ((word code, int), ...)) of
    the same integer terms: what every slice of the family builds its
    rows from.
    """

    __slots__ = ("name", "n", "gens", "_key", "_integer", "_codes")

    def __init__(self, name: str, n: int, gens):
        gens = tuple(gens)
        for g in gens:
            if g.arity != n:
                raise ValueError("generator arity mismatch")
            if g.is_zero() or not g.is_homogeneous():
                raise ValueError("generators must be nonzero homogeneous")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", gens)
        object.__setattr__(
            self, "_key", (name, n, tuple(render_poly(g) for g in gens)))
        integer = tuple(integral(g.terms) for g in gens)
        object.__setattr__(self, "_integer", integer)
        object.__setattr__(self, "_codes", tuple(
            (g.degree(),
             tuple(zip(_word_codes(gvec, n), gvec.values())))
            for g, (_, gvec) in zip(gens, integer)))

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSet is immutable")

    def cache_key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, GeneratorSet) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"GeneratorSet({self.name!r}, n={self.n}, #gens={len(self.gens)})"


@lru_cache(maxsize=None)
def _commutators(n: int) -> dict:
    """{(i, m): [x_i, s_m]} for i, m in 1..n."""
    return {(i, m): commutator(Polynomial.variable(i, n), build_sigma(n, m))
            for i in range(1, n + 1) for m in range(1, n + 1)}


@lru_cache(maxsize=None)
def _differences(n: int) -> dict:
    """{(k, r): D(k, r)} for D(k, r) = s_k - act(r, s_k), k in 2..n and
    the nontrivial shifts r in 1..n-1; D(1, r) = 0, as s_1 is fully
    symmetric."""
    return {(k, r): build_sigma(n, k) - cyclic.act(r, build_sigma(n, k), n)
            for k in range(2, n + 1) for r in range(1, n)}


@lru_cache(maxsize=None)
def commutator_generators(n: int) -> GeneratorSet:
    """[x_i, s_k] for all i, k in 1..n."""
    return GeneratorSet(COMMUTATORS, n, [
        g for g in _commutators(n).values() if not g.is_zero()])


@lru_cache(maxsize=None)
def difference_generators(n: int) -> GeneratorSet:
    """D(k, r) = s_k - act(r, s_k) for k in 2..n and the nontrivial
    shifts r."""
    return GeneratorSet(DIFFERENCES, n, _differences(n).values())


def generator_set(name: str, n: int) -> GeneratorSet:
    """The family by name: its own name, or the CLI's ``commutators`` /
    ``differences``."""
    if name == COMMUTATORS:
        return commutator_generators(n)
    if name in (DIFFERENCES, "differences"):
        return difference_generators(n)
    raise ValueError(f"unknown generator set {name!r}")


def _word_codes(words, n: int) -> list:
    """Base-n code of each word: letters 1..n are the digits 0..n-1,
    the first letter the most significant.  Words of one degree get
    distinct codes, and code(u*m*v) = (code(u)*n^|m| + code(m))*n^|v|
    + code(v)."""
    out = []
    for w in words:
        code = 0
        for i in w:
            code = code * n + i - 1
        out.append(code)
    return out


@lru_cache(maxsize=None)
def _code_table(n: int, k: int):
    """(codes, places) for the degree-k words: ``codes[p]`` is the code
    of the word at position p of ``basis_words(n, k)``, and
    ``places[c]`` the position of the word with code c."""
    codes = tuple(_word_codes(basis_words(n, k), n))
    places = [0] * len(codes)
    for p, c in enumerate(codes):
        places[c] = p
    return codes, tuple(places)


class _Reduction(namedtuple("_Reduction", "scale row alpha steps")):
    """p reduced by a slice: alpha*scale*p - (combination of stored
    rows) = row, with scale*p integer; ``steps`` records the combination
    when it was asked for."""

    __slots__ = ()


class DegreeSlice:
    """Echelonized degree-d slice of an ideal's span.

    A spanning row u*g*v, for one generator g = gens[gi] and words u, v
    with |u| + |g| + |v| = d, is named by the tuple (gi, |u|, position
    of u, position of v), positions in ``basis_words``; names sort by
    generator, then |u|, then u, then v.  ``row_source(name)`` decodes a
    name into (u, gi, v), and ``spanning_row(name)`` builds its row.
    Not every spanning row is eliminated.  With S the spanning rows
    behind the stored rows of the cached degree-(d-1) slice (its
    ``sources``, a basis of I_{d-1}), the slice inserts only

    - x_i*s for every s in S and every letter x_i;
    - s*x_j for the s = g*v in S, whose left word is empty;
    - the generators of degree exactly d.

    These span I_d.  A row u*g*v with u nonempty is x_i times a row of
    I_{d-1}, so the x_i*s span it.  A row g*v with v nonempty is a row
    of I_{d-1} times x_j, so the s*x_j over all s in S span it; and for
    s = x_i*s' that product is x_i*(s'*x_j), which the first kind
    spans.  The generators of degree d are the rest.  Input row i of
    ``space`` is the spanning row named ``_inputs[i]``: first the x_i*s
    names in name order, then the s*x_j and generator names in name
    order.  The x_i*s rows are linearly independent (rows for different
    letters have disjoint supports, and left multiplication by x_i is
    injective on the independent S), so ``space`` inserts them first,
    as its head, and none of them reduces to zero; only the s*x_j and
    generator rows can.
    """

    __slots__ = ("gset", "degree", "basis", "space", "_inputs")

    def __init__(self, gset: GeneratorSet, degree: int):
        n = gset.n
        self.gset = gset
        self.degree = degree
        self.basis = basis_words(n, degree)
        gcodes = gset._codes
        head = []
        tail = [(gi, 0, 0, 0) for gi, (e, _) in enumerate(gcodes)
                if e == degree]
        if any(e < degree for e, _ in gcodes):
            below = degree_slice(gset, degree - 1)
            for gi, r, pu, pv in below.sources:
                s = degree - 1 - gcodes[gi][0] - r
                # x_i*u*g*v: u gains a first letter, the leading digit
                places = _code_table(n, r + 1)[1]
                for c in range(_code_table(n, r)[0][pu], n ** (r + 1),
                               n ** r):
                    head.append((gi, r + 1, places[c], pv))
                if r == 0:
                    # g*v*x_j: v gains a last letter, the trailing digit
                    places = _code_table(n, s + 1)[1]
                    cv = _code_table(n, s)[0][pv] * n
                    for c in range(cv, cv + n):
                        tail.append((gi, 0, 0, places[c]))
        head.sort()
        tail.sort()
        self._inputs = tuple(head + tail)
        self.space = RowSpace(
            [self.spanning_row(name) for name in self._inputs],
            len(self.basis), head=len(head))

    @property
    def n(self) -> int:
        return self.gset.n

    @property
    def rank(self) -> int:
        return self.space.rank

    @property
    def quotient_dim(self) -> int:
        return len(self.basis) - self.rank

    @property
    def sources(self) -> tuple:
        """The spanning row behind each stored row, by pivot: a basis
        of the slice made of spanning rows."""
        inputs = self._inputs
        return tuple(inputs[i] for i in self.space.sources)

    def row_source(self, name):
        """(u, gi, v) of the spanning row named ``name``, the row of
        u*gens[gi]*v."""
        gi, r, pu, pv = name
        s = self.degree - self.gset._codes[gi][0] - r
        return basis_words(self.n, r)[pu], gi, basis_words(self.n, s)[pv]

    def spanning_row(self, name) -> dict:
        """{column: int} of the spanning row named ``name``, u*G*v for G
        the integerized generator: an entry c at the column of u*m*v for
        every term c*m of G, read off the code of u*m*v."""
        gi, r, pu, pv = name
        n = self.n
        e, gterms = self.gset._codes[gi]
        s = self.degree - e - r
        vshift = n ** s
        base = (_code_table(n, r)[0][pu] * n ** (e + s)
                + _code_table(n, s)[0][pv])
        col = _code_table(n, self.degree)[1]
        return {col[base + cm * vshift]: c for cm, c in gterms}

    def vector_of(self, p: Polynomial):
        """(scale, {column: int}) with scale*p integer, for a
        homogeneous-of-this-degree p."""
        if p.arity != self.n:
            raise ValueError("arity mismatch")
        if not p.is_homogeneous(self.degree):
            raise ValueError(f"expected a homogeneous degree-{self.degree} "
                             "polynomial")
        scale, terms = integral(p.terms)
        col = _code_table(self.n, self.degree)[1]
        return scale, {col[c]: x for c, x in
                       zip(_word_codes(terms, self.n), terms.values())}

    def contains(self, p: Polynomial) -> bool:
        return self.space.contains(self.vector_of(p)[1])

    def reduce(self, p: Polynomial, record=False) -> _Reduction:
        """p reduced by the slice, recording the combination of stored
        rows when ``record`` is set, as ``certificate_for`` needs."""
        scale, vec = self.vector_of(p)
        steps = [1] if record else None
        row, alpha = self.space.reduce(vec, steps)
        return _Reduction(scale, row, alpha, steps)

    def residual(self, reduced: _Reduction) -> Polynomial:
        """Normalized residual of p modulo the slice, from its reduction
        ``reduced = self.reduce(p)``; zero iff p is a member."""
        row = reduced.row
        if not row:
            return Polynomial.zero(self.n)
        g = math.gcd(*row.values())
        if row[min(row)] < 0:
            g = -g
        basis = self.basis
        return Polynomial._trusted(
            {basis[j]: Fraction(x, g) for j, x in row.items()}, self.n)

    def normal_form(self, p: Polynomial) -> Polynomial:
        """p modulo the slice, exactly: the reduction's row over
        scale*alpha, on the basis words, with int coefficients when
        scale*alpha is 1.  The row has no entry in any pivot column, so
        the normal form is canonical: two polynomials of this degree
        have equal normal forms exactly when their difference is in the
        slice."""
        reduced = self.reduce(p)
        den = reduced.scale * reduced.alpha
        basis = self.basis
        return Polynomial._trusted(
            {basis[j]: x if den == 1 else Fraction(x, den)
             for j, x in reduced.row.items()}, self.n)

    def certificate_for(self, p: Polynomial, reduced: _Reduction):
        """Explicit combination [(c, u, gi, v)] with sum c*(u*g*v) = p,
        where g = gens[gi], from its recorded reduction ``reduced =
        self.reduce(p, record=True)``; None when p is not in the slice.

        ``RowSpace`` unwinds den*scale*p = sum k*(u*G*v) over the
        inserted spanning rows, G = gscale*g the integerized generator,
        so each coefficient is c = k*gscale/(den*scale).  The certificate
        is rebuilt in integers in the free ring, with monomial products
        and not with the word codes the rows were built from, and
        compared with den*scale*p before it is returned.
        """
        if reduced.row:
            return None
        den, ks = self.space._unwind(reduced.alpha, reduced.steps)
        combo = [(k, *self.row_source(self._inputs[i]))
                 for i, k in sorted(ks.items())]
        want = {m: den * x for m, x in integral(p.terms)[1].items()}
        if not _rebuilds(self.gset, combo, want):
            raise InternalError("certificate failed reconstruction")
        denom = den * reduced.scale
        integer = self.gset._integer
        return [(Fraction(k * integer[gi][0], denom), u, gi, v)
                for k, u, gi, v in combo]


def _rebuilds(gset: GeneratorSet, combo, want: dict) -> bool:
    """Is sum k*(u*G*v) over ``combo``, [(int k, u, gi, v)] with G the
    integerized ``gset.gens[gi]``, exactly ``want``, {word: int}?  The
    words are multiplied in the free ring, not read off their codes."""
    integer = gset._integer
    recon = {}
    get = recon.get
    for k, u, gi, v in combo:
        for m, c in integer[gi][1].items():
            w = u * m * v
            recon[w] = get(w, 0) + k * c
    return {w: x for w, x in recon.items() if x} == want


_slice_cache = {}


def clear_caches():
    """Drop every cached slice and generator family of this module."""
    _slice_cache.clear()
    commutator_generators.cache_clear()
    difference_generators.cache_clear()
    _commutators.cache_clear()
    _differences.cache_clear()
    _canonical_quadratic_space.cache_clear()
    _code_table.cache_clear()


def degree_slice(gset: GeneratorSet, degree: int,
                 with_tags=False) -> DegreeSlice:
    """The cached slice of a family in one degree.  ``with_tags`` is
    accepted for compatibility and changes nothing: every slice gives
    certificates.

    A slice of more than ``ring.MAX_TERMS`` words is refused with
    ValueError before anything is built, whatever the degree."""
    key = (gset.cache_key(), degree)
    got = _slice_cache.get(key)
    if got is None:
        n = gset.n
        if power_exceeds_bound(n, degree):
            raise ValueError(
                f"the degree-{degree} slice at n={n} has more than "
                f"{MAX_TERMS} word columns; refusing to build it")
        got = DegreeSlice(gset, degree)
        _slice_cache[key] = got
    return got


def quotient_dim(n: int, degree: int) -> int:
    return degree_slice(commutator_generators(n), degree).quotient_dim


class MemberResult(namedtuple("MemberResult",
                              "member residuals certificate")):
    """``member``, then ``residuals`` (degree -> nonzero residual
    Polynomial), then ``certificate`` ([(coeff, u, gen_index, v)] when
    requested, else None)."""

    __slots__ = ()

    def __bool__(self):
        return self.member


def member(p: Polynomial, gset: GeneratorSet, certify=False) -> MemberResult:
    """Exact ideal membership, homogeneous component by component.

    With certify=True a membership comes back with an explicit
    combination (verified by reconstruction before returning) and a
    non-membership still carries its residual witnesses.
    """
    if p.arity != gset.n:
        raise ValueError("arity mismatch")
    if p.is_zero():
        return MemberResult(True, {}, [] if certify else None)
    residuals = {}
    certificate = [] if certify else None
    for d, comp in p.homogeneous_components().items():
        sl = degree_slice(gset, d)
        # one reduction per component: a certificate or a residual
        reduced = sl.reduce(comp, record=certify)
        if certify and not reduced.row:
            certificate.extend(sl.certificate_for(comp, reduced))
            continue
        r = sl.residual(reduced)
        if not r.is_zero():
            residuals[d] = r
    ok = not residuals
    return MemberResult(ok, residuals, certificate if ok and certify else None)


# -- the degree-2 structure ------------------------------------------


def offdiag_commutators(n: int):
    """[i, j+1] for 1 <= i < j < n: the independent quadratic commutators."""
    return [((i, j + 1), variable_commutator(i, j + 1, n))
            for i in range(1, n) for j in range(i + 1, n)]


def _second_sum(n: int, k: int) -> Polynomial:
    total = Polynomial.zero(n)
    for j in range(k + 1, n + 1):
        total = total + variable_commutator(k - 1, j, n)
    return total


def _first_sum(n: int, k: int) -> Polynomial:
    total = Polynomial.zero(n)
    for p in range(1, k - 1):
        for j in range(k, n + 1):
            total = total + variable_commutator(p, j, n)
    return total


def diagonal_commutator_expansion(n: int, k: int):
    """Resolve [k, k-1] as an off-diagonal combination, sign included.

    The printed recurrence leaves the sign of its second sum ambiguous
    (it contradicts its own k=2 instance), so both candidates are tested
    against the degree-2 slice and the certified one is returned as
    (expression, sign) with sign in {+1, -1, 0}; 0 means the second sum
    is empty and the candidates coincide.
    """
    if not 2 <= k <= n:
        raise ValueError("k must be in 2..n")
    target = variable_commutator(k, k - 1, n)
    first = _first_sum(n, k)
    second = _second_sum(n, k)
    gset = commutator_generators(n)
    if second.is_zero():
        expr = first
        if member(target - expr, gset).member:
            return expr, 0
        raise AssertionError(f"no certified expansion for k={k}, n={n}")
    for sign in (1, -1):
        expr = first + second * sign
        if member(target - expr, gset).member:
            return expr, sign
    raise AssertionError(f"no certified expansion for k={k}, n={n}")


def _canonical_quadratic_basis(n: int):
    basis = []
    for i in range(1, n + 1):
        basis.append((("squares", i),
                      Polynomial.word([i, i], n)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            basis.append((("products", (i, j)),
                          Polynomial.word([i, j], n)))
    for (i, j), c in offdiag_commutators(n):
        basis.append((("commutators", (i, j - 1)), c))
    return basis


@lru_cache(maxsize=None)
def _canonical_quadratic_space(n: int):
    """The degree-2 slice and the space spanned by the canonical basis
    (rows 0..nb-1) and the slice's canonical rows, which together span
    every quadratic exactly once."""
    sl = degree_slice(commutator_generators(n), 2)
    labels = []
    rows = []
    for label, poly in _canonical_quadratic_basis(n):
        labels.append(label)
        scale, vec = sl.vector_of(poly)
        if scale != 1:
            raise InternalError("canonical quadratic basis is not integral")
        rows.append(vec)
    rows.extend(sl.space.rows)
    space = RowSpace(rows, len(sl.basis))
    if space.rank != len(rows) or space.rank != len(sl.basis):
        raise InternalError(
            "canonical quadratic basis is not a quotient basis")
    return sl, space, labels


def canonical_quadratic(p: Polynomial) -> dict:
    """Unique coefficients of p modulo the ideal on the canonical basis:
    squares x_i^2, ordered products x_i*x_j (i<j), and the off-diagonal
    commutators [i, j+1] for 1 <= i < j < n.
    """
    n = p.arity
    if not p.is_homogeneous(2):
        raise ValueError("expected a homogeneous quadratic")
    sl, space, labels = _canonical_quadratic_space(n)
    scale, vec = sl.vector_of(p)
    got = space.combination(vec)
    if got is None:
        raise InternalError("quadratic failed to reduce; basis incomplete")
    den, ks = got
    out = {"squares": {}, "products": {}, "commutators": {}}
    for t, label in enumerate(labels):
        if ks.get(t):
            out[label[0]][label[1]] = Fraction(ks[t], den * scale)
    return out


def reconstruct_quadratic(coeffs: dict, n: int) -> Polynomial:
    """Inverse of canonical_quadratic up to ideal members."""
    basis = dict(_canonical_quadratic_basis(n))
    total = Polynomial.zero(n)
    for kind, part in coeffs.items():
        for key, c in part.items():
            total = total + basis[kind, key] * c
    return total


# -- each family in terms of the other --------------------------------
#
# With X_j = 1 + x_j*y for a degree marker y, E = X_1*X_2*...*X_n is
# sum s_k y^k, and act(r, E) = X_{r+1}...X_n*X_1...X_r.  Each identity
# below is a coefficient of y in a product of these series.


def _difference_in_commutators(n: int, k: int, r: int) -> list:
    """D(k, r) as [(c, u, (i, m), v)] with sum c*(u*[x_i, s_m]*v) =
    D(k, r), read off the y^k coefficient of E - act(r, E).

    With A = X_1...X_r and B = X_{r+1}...X_n, E = A*B and act(r, E) =
    B*A, so E - act(r, E) = A^-1 [A, E] = -[B, E] B^-1.  Expanding
    [A, E] = sum_i X_1...X_{i-1} y[x_i, E] X_{i+1}...X_r gives

        sum_{i<=r} X_r^-1...X_i^-1 y[x_i, E] X_{i+1}...X_r,

    where the inverses give (-1)^a times the weakly decreasing words of
    length a in the letters i..r, and the X_j the strictly increasing
    words in i+1..r.  For r > n/2 the mirror form

        -sum_{i>r} X_{r+1}...X_{i-1} y[x_i, E] X_i^-1...X_{r+1}^-1

    has fewer terms.  Empty for k < 2 or r = 0, where D(k, r) = 0.
    """
    out = []
    mirror = 2 * r > n
    for i in (range(r + 1, n + 1) if mirror else range(1, r + 1)):
        if mirror:
            sign, ups, downs = -1, range(r + 1, i), range(i, r, -1)
        else:
            sign, ups, downs = 1, range(i + 1, r + 1), range(r, i - 1, -1)
        for m in range(1, k):
            for a in range(k - m):
                for down in combinations_with_replacement(downs, a):
                    down = Monomial._trusted(down)
                    for up in combinations(ups, k - 1 - m - a):
                        up = Monomial._trusted(up)
                        u, v = (up, down) if mirror else (down, up)
                        out.append((sign * (-1) ** a, u, (i, m), v))
    return out


def _commutator_in_differences(n: int, i: int, m: int) -> list:
    """[x_i, s_m] as [(c, u, (k, r), v)] with sum c*(u*D(k, r)*v) =
    [x_i, s_m]: the four terms of

        [x_i, s_m] = D(m+1, i) - D(m+1, i-1) + x_i*D(m, i) - D(m, i-1)*x_i,

    the y^(m+1) coefficient of X_i*E - E*X_i = X_i*(E - act(i, E)) -
    (E - act(i-1, E))*X_i, which holds as act(i-1, E)*X_i = X_i*act(i,
    E).  The terms with D(k, r) identically zero (k = 1 or n+1, r = 0 or
    n) are left out.
    """
    xi = Monomial._trusted((i,))
    terms = ((1, ONE, (m + 1, i), ONE), (-1, ONE, (m + 1, i - 1), ONE),
             (1, xi, (m, i), ONE), (-1, ONE, (m, i - 1), xi))
    return [t for t in terms if 2 <= t[2][0] <= n and 0 < t[2][1] < n]


def _rebuild_each(values: dict, form, other: GeneratorSet,
                  other_values: dict):
    """Rebuild each ``values[name]`` exactly in the free ring from its
    closed form ``form(n, *name)``, [(int c, u, name', v)], with
    ``other_values[name']`` a generator of ``other``; raise
    InternalError at the first that does not rebuild.  A generator of
    ``other`` is found by its value, never by its position, so a
    changed family has no certificate."""
    index = {g: gi for gi, g in enumerate(other.gens)}
    for name, g in values.items():
        combo = [(c, u, index.get(other_values.get(o)), v)
                 for c, u, o, v in form(other.n, *name)]
        # the generators are integer, so each is its integerized form
        if (any(t[2] is None for t in combo)
                or not _rebuilds(other, combo, g.terms)):
            raise InternalError(f"the closed form of {name} does not "
                                f"rebuild in {other.name!r}")


def _certified_differences(n: int) -> dict:
    """The shift differences ``_differences(n)``, each rebuilt from its
    closed form in the commutators: every D(k, r) is in I."""
    diffs = _differences(n)
    _rebuild_each(diffs, _difference_in_commutators,
                  commutator_generators(n), _commutators(n))
    return diffs


def _identity(check: str, p: Polynomial, form: Polynomial):
    """Raise InternalError unless p is exactly its closed form."""
    if p != form:
        raise InternalError(f"{check}: the closed form failed "
                            "reconstruction")


# -- named verification checks ---------------------------------------


def _unit(check, n, degree, status, witness):
    """The one builder of a report unit, keys in the order printed."""
    return {"check": check, "n": n, "degree": degree,
            "status": "pass" if status else "fail", "witness": witness}


def check_thm_1_1(n: int, max_degree=None):
    """Commutator generators and shift-difference generators span the
    same slice in every certified degree.

    Both ideals are two-sided and homogeneous, so they are equal in
    every degree when each generator of either family rebuilds from its
    closed form in the other (``_difference_in_commutators``, read off
    E - act(r, E) = A^-1 [A, E], and ``_commutator_in_differences``);
    one that does not raises InternalError.  Only the commutators'
    slices are built, for the rank both families share.
    """
    bound = default_degree_bound(n) if max_degree is None else max_degree
    if bound < 2:
        raise ValueError(f"thm_1_1 needs degree bound at least 2, "
                         f"got {bound}")
    _certified_differences(n)
    _rebuild_each(_commutators(n), _commutator_in_differences,
                  difference_generators(n), _differences(n))
    comm = commutator_generators(n)
    out = []
    for d in range(2, bound + 1):
        rank = degree_slice(comm, d).rank
        out.append(_unit("thm_1_1", n, d, True,
                         {"rank_commutators": rank,
                          "rank_differences": rank,
                          "spans_equal": True}))
    return out


def check_thm_1_3_independence(n: int, max_degree=None):
    sl = degree_slice(commutator_generators(n), 2)
    vectors = [sl.reduce(c).row for _, c in offdiag_commutators(n)]
    count = len(vectors)
    rank = RowSpace(vectors, len(sl.basis)).rank
    out = [_unit("thm_1_3_independence", n, 2, rank == count,
                 {"count": count, "rank": rank})]
    if n == 3:
        # the one relation class: the three adjacent commutators agree mod I
        gset = commutator_generators(3)
        cyc = ((1, 2), (2, 3), (3, 1))
        for (a, b), (c, d) in zip(cyc, cyc[1:] + cyc[:1]):
            diff = variable_commutator(a, b, 3) - variable_commutator(c, d, 3)
            res = member(diff, gset)
            out.append(_unit(
                "thm_1_3_independence", 3, 2, res.member,
                {"relation": f"[{a},{b}] = [{c},{d}]", "member": res.member}))
    return out


def check_eq_4(n: int, max_degree=None):
    out = []
    for k in range(2, n + 1):
        try:
            expr, sign = diagonal_commutator_expansion(n, k)
            ok = True
        except AssertionError:
            expr, sign, ok = None, None, False
        witness = {"k": k,
                   "second_sum_sign": {1: "+1", -1: "-1", 0: "empty",
                                       None: "unresolved"}[sign]}
        if expr is not None and len(render_poly(expr)) <= 120:
            witness["expression"] = render_poly(expr)
        out.append(_unit("eq_4", n, 2, ok, witness))
    return out


def check_cor_1_4(n: int, max_degree=None):
    gset = commutator_generators(n)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            res = member(variable_commutator(i, j, n), gset)
            out.append(_unit(
                "cor_1_4", n, 2, not res.member,
                {"pair": [i, j], "nonmember": not res.member,
                 "residual": render_poly(res.residuals.get(
                     2, Polynomial.zero(n)))}))
    return out


def cor_1_5_difference(n: int) -> Polynomial:
    """Sum of the diagonal commutators minus its weighted off-diagonal
    expansion; a degree-2 ideal member when the identity holds."""
    lhs = Polynomial.zero(n)
    for k in range(2, n + 1):
        lhs = lhs + variable_commutator(k, k - 1, n)
    rhs = Polynomial.zero(n)
    for p in range(1, n - 1):
        for j in range(2, n - p + 1):
            rhs = rhs + variable_commutator(p, j + p, n) * j
    return lhs - rhs


def check_cor_1_5(n: int, max_degree=None):
    diff = cor_1_5_difference(n)
    ok = member(diff, commutator_generators(n)).member
    return [_unit("cor_1_5", n, 2, ok, {"member": ok})]


def check_cor_1_6_dim(n: int, max_degree=None):
    import random

    expected = n * n - n + 1
    q = quotient_dim(n, 2)
    out = [_unit("cor_1_6_dim", n, 2, q == expected,
                 {"quotient_dim": q, "expected": expected})]
    trips = 20
    rng = random.Random(0)
    gset = commutator_generators(n)
    words = basis_words(n, 2)
    failures = 0
    for _ in range(trips):
        p = Polynomial(
            {w: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for w in rng.sample(words, rng.randint(1, len(words)))}, n)
        if p.is_zero():
            continue
        coeffs = canonical_quadratic(p)
        recon = reconstruct_quadratic(coeffs, n)
        if not member(p - recon, gset).member:
            failures += 1
    out.append(_unit("cor_1_6_roundtrip", n, 2, failures == 0,
                     {"round_trips": trips, "failures": failures}))
    return out


def _root_form(n: int, i: int, diffs: dict) -> Polynomial:
    """sum_k (-1)^k D(k, i mod n)*x_i^(n-k), which is char_poly_image(n,
    i): the order rotated by i ends in x_i, so the product of (y - x_j)
    over it is P(y)*(y - x_i), and sum_k (-1)^k act(i, s_k)*x_i^(n-k),
    its coefficients with x_i put for y on the right, vanishes."""
    xi = Polynomial.variable(i, n)
    total = zero = Polynomial.zero(n)
    for k in range(2, n + 1):
        total = total + (diffs.get((k, i % n), zero) * xi ** (n - k)
                         * (-1) ** k)
    return total


def check_root_identity(n: int, max_degree=None):
    """Each char_poly_image(n, i) is in I: it is exactly ``_root_form``,
    a combination of shift differences."""
    diffs = _certified_differences(n)
    out = []
    for i in range(1, n + 1):
        _identity("root_identity", char_poly_image(n, i),
                  _root_form(n, i, diffs))
        out.append(_unit("root_identity", n, n, True, {"root_index": i}))
    return out


def check_factored_coeffs(n: int, max_degree=None):
    """The y^(n-k) coefficient of the product of (y - x_j) over the
    order rotated by r is (-1)^k act(r, s_k), so it differs from
    (-1)^k s_k by exactly (-1)^(k+1) D(k, r), D(k, r) = s_k - act(r,
    s_k), a shift difference."""
    diffs = _certified_differences(n)
    zero = Polynomial.zero(n)
    out = []
    for r in range(n):
        for k, diff in factored_char_coefficients(n, r).items():
            _identity("factored_coeffs", diff,
                      diffs.get((k, r), zero) * (-1) ** (k + 1))
        out.append(_unit("factored_coeffs", n, n, True,
                         {"rotation": r, "failed_k": []}))
    return out


def check_inverse_identity(n: int, max_degree=None):
    """Each inverse_identity_image(n, i) is in I: it is char_poly_image(n,
    i) plus sum_{k=1..n-1} (-1)^k [x_i, s_k]*x_i^(n-1-k), since x_i*s_k
    = s_k*x_i + [x_i, s_k]."""
    diffs = _certified_differences(n)
    comms = _commutators(n)
    out = []
    for i in range(1, n + 1):
        xi = Polynomial.variable(i, n)
        form = _root_form(n, i, diffs)
        for k in range(1, n):
            form = form + comms[i, k] * xi ** (n - 1 - k) * (-1) ** k
        _identity("inverse_identity", inverse_identity_image(n, i), form)
        out.append(_unit("inverse_identity", n, n, True, {"index": i}))
    return out


def check_sigma_independence(n: int, max_degree=None):
    bound = default_degree_bound(n) if max_degree is None else max_degree
    if bound < 0:
        raise ValueError(f"sigma_independence needs a degree bound of at "
                         f"least 0, got {bound}")
    rep = verify_sigma_independence(n, bound)
    return [_unit("sigma_independence", n, bound, rep["independent"], rep)]


CHECKS = {
    "thm_1_1": check_thm_1_1,
    "thm_1_3_independence": check_thm_1_3_independence,
    "eq_4": check_eq_4,
    "cor_1_4": check_cor_1_4,
    "cor_1_5": check_cor_1_5,
    "cor_1_6_dim": check_cor_1_6_dim,
    "root_identity": check_root_identity,
    "factored_coeffs": check_factored_coeffs,
    "inverse_identity": check_inverse_identity,
    "sigma_independence": check_sigma_independence,
}


def run_check(name: str, n: int, max_degree=None):
    """Run one named verification; returns a list of report units."""
    if n < 3:
        raise ValueError("the standing assumption requires n >= 3")
    if name == "n3":
        if n != 3:
            raise ValueError("the n3 suite is defined for n = 3 only")
        from . import n3lab

        return n3lab.verify_n3_suite(max_degree=max_degree)
    fn = CHECKS.get(name)
    if fn is None:
        raise ValueError(f"unknown check {name!r}")
    return fn(n, max_degree=max_degree)
