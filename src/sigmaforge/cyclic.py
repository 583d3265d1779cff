"""Action of the cyclic group generated by (1 2 ... n) on monomials.

The group acts on complexions only: the power-g shift sends generator
index i to ((i - 1 + g) mod n) + 1 and leaves exponents alone.  Orbits
of nonunit monomials always have exactly n distinct members because the
leading index takes all n values around the orbit.
"""

from __future__ import annotations

from fractions import Fraction

from .ring import InternalError, Monomial, Polynomial


class CyclicShift:
    """Power of the n-cycle, acting on generator indices."""

    __slots__ = ("power", "arity")

    def __init__(self, power: int, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        object.__setattr__(self, "power", power % arity)
        object.__setattr__(self, "arity", arity)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicShift is immutable")

    @classmethod
    def identity(cls, arity: int) -> "CyclicShift":
        return cls(0, arity)

    def __mul__(self, other):
        if not isinstance(other, CyclicShift):
            return NotImplemented
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        return CyclicShift(self.power + other.power, self.arity)

    def inverse(self) -> "CyclicShift":
        return CyclicShift(-self.power, self.arity)

    def __eq__(self, other):
        return (isinstance(other, CyclicShift)
                and self.power == other.power and self.arity == other.arity)

    def __hash__(self):
        return hash((self.power, self.arity))

    def __repr__(self):
        return f"CyclicShift({self.power}, n={self.arity})"

    def apply_index(self, i: int) -> int:
        return (i - 1 + self.power) % self.arity + 1


def all_shifts(n: int):
    return [CyclicShift(g, n) for g in range(n)]


def act(g: CyclicShift, obj):
    """Apply a shift to a Monomial or a Polynomial.

    A monomial must use letters 1..n only: the shift relabels them
    bijectively and keeps neighbours distinct, so the image is a valid
    word as it stands.
    """
    if isinstance(obj, Monomial):
        if obj.max_index() > g.arity:
            raise ValueError(f"monomial exceeds arity {g.arity}")
        p, n = g.power, g.arity
        if not p:  # the identity; a monomial is immutable
            return obj
        return Monomial._trusted(
            tuple((i - 1 + p) % n + 1 for i in obj.complexion),
            obj.exponents)
    if isinstance(obj, Polynomial):
        if obj.arity != g.arity:
            raise ValueError("arity mismatch")
        return Polynomial({act(g, m): c for m, c in obj.terms.items()},
                          obj.arity)
    raise TypeError(f"cannot act on {type(obj)!r}")


def orbit(m: Monomial, n: int) -> list:
    """The n distinct images of a nonunit monomial."""
    if m.is_unit():
        raise ValueError("the unit monomial has no orbit here")
    if m.max_index() > n:
        raise ValueError(f"monomial exceeds arity {n}")
    out = [act(g, m) for g in all_shifts(n)]
    if len(set(out)) != n:
        raise InternalError("orbit collapsed; action is broken")
    return out


def orbit_polynomial(m: Monomial, n: int) -> Polynomial:
    return Polynomial({u: Fraction(1) for u in orbit(m, n)}, n)


def is_invariant(p: Polynomial) -> bool:
    return act(CyclicShift(1, p.arity), p) == p


def average(p: Polynomial) -> Polynomial:
    """Group average; always invariant, fixes p when p is invariant."""
    n = p.arity
    total = Polynomial.zero(n)
    for g in all_shifts(n):
        total = total + act(g, p)
    return total * Fraction(1, n)
