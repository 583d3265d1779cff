"""Orbit representatives and their free factorization into atoms.

Each nontrivial cyclic orbit of monomials has exactly one member whose
first letter is 1, and that member is the largest in the monomial
order.  These representatives form a free semigroup under the twisted
product (align the second factor's first letter with the first
factor's last letter, then multiply); the free generators, called
atoms here, are the square-free representatives.  Factorization is by
cutting at repeated letters and is gated by a multiply-back check.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclic import CyclicShift, act, orbit
from .ring import InternalError, Monomial, ONE


def is_orbit_max(m: Monomial, n: int) -> bool:
    """Is m the distinguished (largest) member of its cyclic orbit?"""
    if m.is_unit():
        raise ValueError("the unit monomial has no orbit representative")
    _check_letters(m, n)
    return m.complexion[0] == 1


def orbit_max(m: Monomial, n: int) -> Monomial:
    """The unique orbit member with first letter 1; the orbit maximum."""
    if m.is_unit():
        raise ValueError("the unit monomial has no orbit representative")
    _check_letters(m, n)
    if m.complexion[0] == 1:
        return m
    shift = CyclicShift((1 - m.complexion[0]) % n, n)
    return act(shift, m)


def _check_letters(m: Monomial, n: int):
    if m.max_index() > n:
        raise ValueError(f"monomial uses letters beyond x{n}")


def is_atom(m: Monomial, n: int) -> bool:
    """Square-free orbit representative: first letter 1, all exponents 1."""
    if m.is_unit():
        return False
    _check_letters(m, n)
    return m.complexion[0] == 1 and all(e == 1 for e in m.exponents)


@lru_cache(maxsize=None)
def enumerate_atoms(n: int, degree: int) -> tuple:
    """All degree-d atoms, largest first; there are (n-1)^(d-1) of them.

    Decreasing monomial order on equal-degree square-free words is
    increasing lexicographic order on their letter strings.
    """
    if n < 2:
        raise ValueError("atoms need at least two letters")
    if degree < 1:
        return ()
    words = [(1,)]
    for _ in range(degree - 1):
        words = [w + (c,) for w in words
                 for c in range(1, n + 1) if c != w[-1]]
    return tuple(Monomial(tuple(w), (1,) * degree) for w in words)


def clear_caches():
    """Drop the cached atom lists."""
    enumerate_atoms.cache_clear()


def semigroup_mul(u: Monomial, v: Monomial, n: int) -> Monomial:
    """Twisted product of orbit representatives.

    Rotate v so its first letter matches u's last letter, then multiply;
    the shared boundary letter merges into one run.  The unit is the
    identity on both sides.
    """
    if u.is_unit():
        return v
    if v.is_unit():
        return u
    _check_letters(u, n)
    _check_letters(v, n)
    shift = CyclicShift((u.complexion[-1] - v.complexion[0]) % n, n)
    return u * act(shift, v)


def semigroup_product(factors, n: int) -> Monomial:
    out = ONE
    for f in factors:
        out = semigroup_mul(out, f, n)
    return out


def factor_atoms(m: Monomial, n: int) -> list:
    """Factor a monomial's orbit representative into atoms.

    Cut the letter string wherever a letter repeats, rotate every
    segment to start with 1, and verify by multiplying back.  The unit
    factors as the empty product.
    """
    if m.is_unit():
        return []
    rep = orbit_max(m, n)
    letters = list(rep.letters())
    segments = []
    start = 0
    for i in range(1, len(letters)):
        if letters[i] == letters[i - 1]:
            segments.append(letters[start:i])
            start = i
    segments.append(letters[start:])
    factors = []
    for seg in segments:
        shift = (1 - seg[0]) % n
        word = tuple((c - 1 + shift) % n + 1 for c in seg)
        atom = Monomial(word, (1,) * len(word))
        if not is_atom(atom, n):
            raise InternalError(f"cut produced a non-atom from {rep}")
        factors.append(atom)
    if semigroup_product(factors, n) != rep:
        raise InternalError(f"factorization failed to multiply back: {rep}")
    return factors


def atom_count(n: int, degree: int) -> int:
    return (n - 1) ** (degree - 1) if degree >= 1 else 0
