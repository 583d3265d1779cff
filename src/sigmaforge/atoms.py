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

from .cyclic import act
from .ring import MAX_TERMS, InternalError, Monomial, power_exceeds_bound


def orbit_max(m: Monomial, n: int) -> Monomial:
    """The unique orbit member with first letter 1; the orbit maximum."""
    if m.is_unit():
        raise ValueError("the unit monomial has no orbit representative")
    _check_letters(m, n)
    if m[0] == 1:
        return m
    return act(1 - m[0], m, n)


def _check_letters(m: Monomial, n: int):
    if m.max_index() > n:
        raise ValueError(f"monomial uses letters beyond x{n}")


def is_atom(m: Monomial, n: int) -> bool:
    """Square-free orbit representative: first letter 1, no two equal
    neighbours."""
    if m.is_unit():
        return False
    _check_letters(m, n)
    return m[0] == 1 and all(a != b for a, b in zip(m, m[1:]))


@lru_cache(maxsize=None)
def enumerate_atoms(n: int, degree: int) -> tuple:
    """All degree-d atoms, largest first; there are (n-1)^(d-1) of them,
    and more than ``MAX_TERMS`` are refused with ValueError before any
    is listed.

    Decreasing monomial order on equal-degree square-free words is
    increasing lexicographic order on their letter strings.
    """
    if n < 2:
        raise ValueError("atoms need at least two letters")
    if degree < 1:
        return ()
    if power_exceeds_bound(n - 1, degree - 1):
        raise ValueError(
            f"n={n} has more than {MAX_TERMS} atoms of degree {degree}; "
            "refusing to list them")
    words = [(1,)]
    for _ in range(degree - 1):
        words = [w + (c,) for w in words
                 for c in range(1, n + 1) if c != w[-1]]
    return tuple(Monomial._trusted(w) for w in words)


def clear_caches():
    """Drop the cached atom lists."""
    enumerate_atoms.cache_clear()


def semigroup_product(factors, n: int) -> Monomial:
    """Twisted product of orbit representatives, left to right.

    Rotate each factor so its first letter matches the last letter so
    far, then concatenate; the boundary letter repeats.  The unit is
    the identity on both sides.  The letters go into one list, so the
    cost is linear in the length of the product.
    """
    out = []
    for f in factors:
        if f.is_unit():
            continue
        _check_letters(f, n)
        out.extend(act(out[-1] - f[0], f, n) if out else f)
    return Monomial._trusted(out)


def factor_atoms(m: Monomial, n: int) -> list:
    """Factor a monomial's orbit representative into atoms.

    Cut the letter string wherever a letter repeats, rotate every
    segment to start with 1, and verify by multiplying back.  The unit
    factors as the empty product.
    """
    if m.is_unit():
        return []
    rep = orbit_max(m, n)
    cuts = [i for i in range(1, len(rep)) if rep[i] == rep[i - 1]]
    factors = []
    for a, b in zip([0] + cuts, cuts + [len(rep)]):
        atom = orbit_max(Monomial._trusted(rep[a:b]), n)
        if not is_atom(atom, n):
            raise InternalError(f"cut produced a non-atom from {rep}")
        factors.append(atom)
    if semigroup_product(factors, n) != rep:
        raise InternalError(f"factorization failed to multiply back: {rep}")
    return factors
