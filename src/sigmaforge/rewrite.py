"""Rewriting invariant polynomials over orbit sums of atoms.

Every polynomial fixed by the cyclic shift decomposes as a rational
combination of full orbit sums, and each orbit representative factors
freely into atoms.  The greedy rewriter repeatedly peels the largest
remaining orbit, replaces it by the product of its atoms' orbit sums,
and keeps the formal product as a term; the leading monomial drops
strictly at every step, so the loop terminates with an expression in
the orbit sums of atoms alone.
"""

from __future__ import annotations

from fractions import Fraction

from . import cyclic
from .atoms import factor_atoms, is_atom, orbit_max
from .ring import Monomial, ONE, Polynomial, render_monomial, render_terms


class AtomExpression:
    """Formal rational combination of products of atom orbit sums.

    Terms map a tuple of atoms (a formal, ordered product; empty for
    the constant term) to a nonzero coefficient.
    """

    __slots__ = ("terms", "arity")

    def __init__(self, terms, arity: int):
        clean = {}
        for fs, c in terms.items():
            c = Fraction(c)
            if not c:
                continue
            fs = tuple(fs)
            for f in fs:
                if not is_atom(f, arity):
                    raise ValueError(f"{f!r} is not an atom for n={arity}")
            clean[fs] = clean.get(fs, Fraction(0)) + c
        object.__setattr__(self, "terms",
                           {fs: c for fs, c in clean.items() if c})
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError("AtomExpression is immutable")

    @classmethod
    def zero(cls, arity: int) -> "AtomExpression":
        return cls({}, arity)

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, factors, coeff) -> "AtomExpression":
        terms = dict(self.terms)
        fs = tuple(factors)
        terms[fs] = terms.get(fs, Fraction(0)) + Fraction(coeff)
        return AtomExpression(terms, self.arity)

    def __add__(self, other):
        if not isinstance(other, AtomExpression) or other.arity != self.arity:
            return NotImplemented
        terms = dict(self.terms)
        for fs, c in other.terms.items():
            terms[fs] = terms.get(fs, Fraction(0)) + c
        return AtomExpression(terms, self.arity)

    def __neg__(self):
        return AtomExpression(
            {fs: -c for fs, c in self.terms.items()}, self.arity)

    def __sub__(self, other):
        added = self.__add__(-other) if isinstance(other, AtomExpression) \
            else NotImplemented
        return added

    def __eq__(self, other):
        return (isinstance(other, AtomExpression)
                and self.arity == other.arity and self.terms == other.terms)

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def evaluate(self) -> Polynomial:
        """Expand every formal product into actual orbit sums."""
        total = Polynomial.zero(self.arity)
        for fs, c in self.terms.items():
            prod = Polynomial.constant(1, self.arity)
            for f in fs:
                prod = prod * cyclic.orbit_polynomial(f, self.arity)
            total = total + prod * c
        return total

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda it: (sum(f.degree for f in it[0]),
                            tuple(f.sort_key() for f in it[0])),
            reverse=True)

    def render(self) -> str:
        return render_terms((c, _render_product(fs))
                            for fs, c in self.sorted_terms())

    def __repr__(self):
        return f"AtomExpression({self.render()!r}, n={self.arity})"


def _render_product(factors):
    if not factors:
        return None
    out = []
    i = 0
    while i < len(factors):
        j = i
        while j < len(factors) and factors[j] == factors[i]:
            j += 1
        sym = f"O[{render_monomial(factors[i])}]"
        out.append(sym if j - i == 1 else f"{sym}^{j - i}")
        i = j
    return "*".join(out)


def orbit_decompose(p: Polynomial) -> dict:
    """Write an invariant polynomial as {orbit representative: coeff}.

    The constant term is keyed by the unit monomial.  Raises ValueError
    when some orbit is present with unequal coefficients or only in
    part, which is exactly failure of invariance.
    """
    n = p.arity
    out = {}
    seen = {}
    for m, c in p.terms.items():
        if m.is_unit():
            out[ONE] = c
            continue
        rep = orbit_max(m, n)
        seen.setdefault(rep, []).append((m, c))
    for rep, members in seen.items():
        coeffs = {c for _, c in members}
        if len(members) != n or len(coeffs) != 1:
            raise ValueError(
                "polynomial is not invariant under the cyclic shift")
        out[rep] = coeffs.pop()
    return out


def orbit_product(orbits: dict, b: Monomial, n: int) -> dict:
    """Multiply {orbit representative: coeff} by the orbit sum O[b].

    Every nonunit orbit has exactly n members, so O[a]*O[b] is the sum
    over r < n of O[a * g^r(b)], g the shift.  A representative a
    starts with letter 1, so every a * g^r(b) is one too, and no two of
    these words coincide.  The unit key maps to O[b].
    """
    images = cyclic.orbit(b, n)
    out = {}
    for a, c in orbits.items():
        if a.is_unit():
            out[orbit_max(b, n)] = c
        elif a.complexion[0] == 1:
            out.update((a * u, c) for u in images)
        else:
            raise ValueError(f"{a!r} is not an orbit representative")
    return out


def rewrite_invariant(p: Polynomial) -> AtomExpression:
    """Greedy expansion of an invariant polynomial over atom orbit sums.

    The remainder stays a {representative: coeff} map; peeling its
    largest orbit subtracts the closed-form product of the atoms' orbit
    sums, whose largest orbit is the peeled one, with coefficient 1.
    """
    n = p.arity
    if n < 2:
        raise ValueError("rewriting needs at least two letters")
    r = orbit_decompose(p)  # invariance gate
    terms = {}
    guard = None
    while r:
        lead = max(r, key=Monomial.sort_key)
        key = lead.sort_key()
        if guard is not None and key >= guard:
            raise AssertionError("leading monomial failed to decrease")
        guard = key
        coeff = r[lead]
        factors = tuple(factor_atoms(lead, n))
        terms[factors] = coeff
        prod = {ONE: 1}
        for f in factors:
            prod = orbit_product(prod, f, n)
        for rep, c in prod.items():
            left = r.get(rep, 0) - coeff * c
            if left:
                r[rep] = left
            else:
                del r[rep]
    return AtomExpression(terms, n)


def sigma_alpha_decomposition(n: int, k: int) -> dict:
    """Orbit-sum coefficients of the shift-averaged k-th sum.

    Summing the k-th increasing-word sum over the whole shift group
    gives an exact combination of orbit sums whose coefficient at each
    orbit is the number of strictly increasing words it contains; both
    sides are computed independently and compared before returning
    {representative: coefficient}.
    """
    from .sigma import build_sigma

    sk = build_sigma(n, k)
    total = Polynomial.zero(n)
    for g in cyclic.all_shifts(n):
        total = total + cyclic.act(g, sk)
    got = orbit_decompose(total)
    expected = {}
    for rep, c in got.items():
        rising = sum(
            1 for w in cyclic.orbit(rep, n)
            if all(a < b for a, b in zip(w.complexion, w.complexion[1:]))
            and all(e == 1 for e in w.exponents))
        expected[rep] = Fraction(rising)
    if got != expected:
        raise AssertionError(
            "orbit coefficients disagree with increasing-word counts")
    return got
