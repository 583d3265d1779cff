"""Action of the cyclic group generated by (1 2 ... n) on monomials.

A rotation is an integer r, taken mod n: it sends each letter i of a
word to ((i - 1 + r) mod n) + 1.  Orbits of nonunit monomials always
have exactly n distinct members because the first letter takes all n
values around the orbit.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import MAX_TERMS, InternalError, Monomial, Polynomial


def act(r: int, obj, n: int):
    """Rotate a Monomial or a Polynomial by r steps of the n-cycle.

    A monomial must use letters 1..n only: the rotation relabels them
    bijectively, so the image is a valid word as it stands.
    """
    if n < 1:
        raise ValueError("arity must be >= 1")
    if isinstance(obj, Monomial):
        if obj.max_index() > n:
            raise ValueError(f"monomial exceeds arity {n}")
        r %= n
        if not r:  # the identity; a monomial is immutable
            return obj
        return Monomial._trusted((i - 1 + r) % n + 1 for i in obj)
    if isinstance(obj, Polynomial):
        if obj.arity != n:
            raise ValueError("arity mismatch")
        return Polynomial({act(r, m, n): c for m, c in obj.terms.items()}, n)
    raise TypeError(f"cannot act on {type(obj)!r}")


def orbit(m: Monomial, n: int) -> list:
    """The n distinct images of a nonunit monomial; an orbit of more
    than ``MAX_TERMS`` members is refused with ValueError before any of
    them is built."""
    if m.is_unit():
        raise ValueError("the unit monomial has no orbit here")
    if n > MAX_TERMS:
        raise ValueError(f"an orbit at n={n} has {n} members, more than "
                         f"{MAX_TERMS}; refusing to list it")
    if m.max_index() > n:
        raise ValueError(f"monomial exceeds arity {n}")
    out = [act(r, m, n) for r in range(n)]
    if len(set(out)) != n:
        raise InternalError("orbit collapsed; action is broken")
    return out


def orbit_polynomial(m: Monomial, n: int) -> Polynomial:
    return Polynomial({u: Fraction(1) for u in orbit(m, n)}, n)
