"""Rewriting invariant polynomials over orbit sums of atoms.

Every polynomial fixed by the cyclic shift decomposes as a rational
combination of full orbit sums, and each orbit representative factors
freely into atoms.  A product of atom orbit sums merges or glues the
atoms at each boundary, so inclusion-exclusion over the boundaries
writes each orbit sum, and so each invariant, in closed form over
products of atom orbit sums.
"""

from __future__ import annotations

from . import cyclic
from .atoms import factor_atoms, is_atom, orbit_max
from .ring import (MAX_TERMS, InternalError, Monomial, ONE, Polynomial,
                   Terms, _runs, power_exceeds_bound, render_monomial,
                   render_terms)


class AtomExpression(Terms):
    """Formal rational combination of products of atom orbit sums.

    Terms map a tuple of atoms (a formal, ordered product; empty for
    the constant term) to a nonzero coefficient.
    """

    __slots__ = ()

    @staticmethod
    def _key(fs, arity):
        fs = tuple(fs)
        for f in fs:
            if not is_atom(f, arity):
                raise ValueError(f"{f!r} is not an atom for n={arity}")
        return fs

    @staticmethod
    def _unit(arity):
        return ()

    def add_term(self, factors, coeff) -> "AtomExpression":
        return self + AtomExpression({tuple(factors): coeff}, self.arity)

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
    """``O[f]^e`` for each run of e equal atoms, joined by ``*``; None
    for the empty product, the constant term."""
    syms = (f"O[{render_monomial(f)}]" + (f"^{e}" if e > 1 else "")
            for f, e in zip(*_runs(factors)))
    return "*".join(syms) or None


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
        elif a[0] == 1:
            out.update((a * u, c) for u in images)
        else:
            raise ValueError(f"{a!r} is not an orbit representative")
    return out


def rewrite_invariant(p: Polynomial) -> AtomExpression:
    """Expansion of an invariant polynomial over atom orbit sums: each
    orbit's coefficient times its ``_orbit_expansion``, the constant
    term under ``()``; unique, as that basis is unitriangular.  An
    orbit of k atoms expands into n^(k-1) keys, and one of more than
    ``MAX_TERMS`` is refused with ValueError before it is expanded."""
    n = p.arity
    if n < 2:
        raise ValueError("rewriting needs at least two letters")
    terms = {}
    for rep, c in orbit_decompose(p).items():  # invariance gate
        if rep.is_unit():
            terms[()] = c
            continue
        factors = tuple(factor_atoms(rep, n))
        if power_exceeds_bound(n, len(factors) - 1):
            raise ValueError(
                f"the orbit of {render_monomial(rep)} expands into more "
                f"than {MAX_TERMS} products at n={n}; refusing to "
                "expand it")
        expansion = _orbit_expansion(factors, n)
        if (len(expansion) != n ** (len(factors) - 1)
                or expansion.get(factors) != 1):
            raise InternalError(f"orbit expansion of {rep} is wrong")
        signed = {1: c, -1: -c}
        for key, sign in expansion.items():
            x = terms.get(key)
            terms[key] = signed[sign] if x is None else x + signed[sign]
    return AtomExpression._trusted(terms, n)


def _orbit_expansion(factors: tuple, n: int) -> dict:
    """``O[f1∘…∘fk]`` as ``{blocks: ±1}``, for the atoms ``factors``.

    Each of the k−1 boundaries in ``O[f1]⋯O[fk]`` merges the next atom
    into the letter before it (one rotation) or glues it on into a
    longer atom (n−1 rotations).  Inverting over the glued boundaries
    (Möbius inversion on a boolean lattice) gives ``O[f1∘…∘fk] =
    Σ (−1)^{#glued} Π O[block]``, the blocks in order: n^(k−1) keys,
    the all-merge one ``factors`` itself.
    """
    states = [((), factors[0])]  # (closed blocks, open block)
    for f in factors[1:]:
        # turns[s] starts with letter s + 1
        turns = [cyclic.act(s, f, n) for s in range(n)]
        nxt = []
        for done, cur in states:
            nxt.append((done + (Monomial._trusted(cur),), f))  # merge
            nxt.extend((done, cur + t) for s, t in enumerate(turns)
                       if s != cur[-1] - 1)  # glue
        states = nxt
    return {done + (Monomial._trusted(cur),):
            (-1) ** (len(factors) - 1 - len(done))
            for done, cur in states}
