"""Elementary polynomials in noncommuting variables.

The degree-k elementary polynomial on x1..xn is the sum of the
strictly increasing k-letter words.  Its commutative image, the
characteristic identities it satisfies and the independence of its
power products live here too.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .ring import (MAX_TERMS, InternalError, Monomial, Polynomial, Terms,
                   integral, render_terms)


@lru_cache(maxsize=None)
def build_sigma(n: int, k: int) -> Polynomial:
    """The k-th elementary polynomial on x1..xn, the sum of its C(n, k)
    increasing words; 1 for k=0, 0 outside 0..n.  One of more than
    ``MAX_TERMS`` terms is refused with ValueError before any word is
    listed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= k <= n:
        return Polynomial.zero(n)
    # C(n, j) grows with j up to n/2 and passes the bound within its
    # bit length, so this loop is short whatever n is
    count = 1
    for j in range(1, min(k, n - k) + 1):
        count = count * (n - j + 1) // j
        if count > MAX_TERMS:
            raise ValueError(
                f"sigma_{k} at n={n} has more than {MAX_TERMS} terms; "
                "refusing to build it")
    one = Fraction(1)
    return Polynomial._trusted(
        {Monomial._trusted(w): one
         for w in itertools.combinations(range(1, n + 1), k)}, n)


def clear_caches():
    """Drop the cached elementary polynomials."""
    build_sigma.cache_clear()


# -- commutative image ----------------------------------------------


class CommPoly(Terms):
    """Commutative polynomial: exponent-vector keys, rational coefficients."""

    __slots__ = ()

    @staticmethod
    def _key(ev, arity):
        ev = tuple(ev)
        if len(ev) != arity or any(e < 0 for e in ev):
            raise ValueError(f"bad exponent vector {ev!r}")
        return ev

    @staticmethod
    def _unit(arity):
        return (0,) * arity

    # bound by name for the benchmark's tracer, as in ring.Polynomial
    __add__, __sub__, __neg__, __mul__, __pow__ = (
        Terms.__add__, Terms.__sub__, Terms.__neg__, Terms.__mul__,
        Terms.__pow__)

    @classmethod
    def variable(cls, i: int, arity: int) -> "CommPoly":
        ev = [0] * arity
        ev[i - 1] = 1
        return cls({tuple(ev): 1}, arity)

    def _product(self, other) -> dict:
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                ev = tuple(a + b for a, b in zip(e1, e2))
                terms[ev] = terms.get(ev, 0) + c1 * c2
        return terms

    def render(self, names=None) -> str:
        if names is None:
            names = [f"y{i}" for i in range(1, self.arity + 1)]

        def body(ev):
            return "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                            for i, e in enumerate(ev) if e) or None

        order = sorted(self.terms, key=lambda ev: (sum(ev), ev), reverse=True)
        return render_terms((self.terms[ev], body(ev)) for ev in order)

    def __repr__(self):
        return f"CommPoly({self.render()!r})"


def abelianize(p: Polynomial) -> CommPoly:
    """Send each monomial to its exponent vector (letter multiplicities)."""
    n = p.arity
    terms = {}
    for m, c in p.terms.items():
        ev = [0] * n
        for i in m:
            ev[i - 1] += 1
        ev = tuple(ev)
        terms[ev] = terms.get(ev, Fraction(0)) + c
    return CommPoly(terms, n)


def elementary_symmetric(n: int, k: int) -> CommPoly:
    """Commutative elementary symmetric polynomial (reference image)."""
    if k < 0 or k > n:
        return CommPoly.zero(n)
    terms = {}
    for combo in itertools.combinations(range(n), k):
        ev = [0] * n
        for i in combo:
            ev[i] = 1
        terms[tuple(ev)] = 1
    return CommPoly(terms, n)


# -- characteristic identities ---------------------------------------


def char_poly_image(n: int, i: int) -> Polynomial:
    """Substitute x_i for the root variable in the degree-n identity.

    Returns sum_{k=0..n} (-1)^k s_k * x_i^(n-k); homogeneous of degree n.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    xi = Polynomial.variable(i, n)
    total = Polynomial.zero(n)
    for k in range(n + 1):
        total = total + build_sigma(n, k) * (xi ** (n - k)) * ((-1) ** k)
    return total


def factored_char_coefficients(n: int, rotation: int = 0) -> dict:
    """Expand the ordered product of (y - x_j) over a circular ordering.

    y is an external degree marker, never a ring element: the expansion
    is kept as a map from y-degree to ring coefficient.  Returns, for
    each k in 0..n, the y^(n-k) coefficient minus (-1)^k s_k.  For the
    identity ordering every difference is exactly zero.
    """
    order = [(rotation + t) % n + 1 for t in range(n)]
    coeffs = {0: Polynomial.one(n)}  # y-degree -> coefficient so far
    for j in order:
        xj = Polynomial.variable(j, n)
        new = {}
        for d, p in coeffs.items():
            new[d + 1] = new.get(d + 1, Polynomial.zero(n)) + p
            new[d] = new.get(d, Polynomial.zero(n)) - p * xj
        coeffs = new
    out = {}
    for k in range(n + 1):
        got = coeffs.get(n - k, Polynomial.zero(n))
        out[k] = got - build_sigma(n, k) * ((-1) ** k)
    return out


def inverse_identity_image(n: int, i: int) -> Polynomial:
    """x_i * (sum_{k=0..n-1} (-1)^k s_k x_i^(n-1-k)) - (-1)^(n+1) s_n."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range 1..{n}")
    xi = Polynomial.variable(i, n)
    inner = Polynomial.zero(n)
    for k in range(n):
        inner = inner + build_sigma(n, k) * (xi ** (n - 1 - k)) * ((-1) ** k)
    return xi * inner - build_sigma(n, n) * ((-1) ** (n + 1))


def weighted_exponents(weights, bound: int) -> list:
    """Every exponent tuple e, one entry per positive weight w, with
    sum w*e at most ``bound``, in lexicographic order."""
    if not weights:
        return [()] if bound >= 0 else []
    head, rest = weights[0], weights[1:]
    return [(e,) + tail for e in range(bound // head + 1)
            for tail in weighted_exponents(rest, bound - head * e)]


def sigma_power_products(n: int, degree_bound: int):
    """All products s_1^a1 * ... * s_n^an of weighted degree <= bound.

    Weighted degree is sum k*ak.  Yields (exponent tuple, CommPoly image).
    """
    images = [elementary_symmetric(n, k) for k in range(n + 1)]
    for expo in weighted_exponents(tuple(range(1, n + 1)), degree_bound):
        prod = CommPoly.one(n)
        for k, a in enumerate(expo, start=1):
            for _ in range(a):
                prod = prod * images[k]
        yield expo, prod


def verify_sigma_independence(n: int, degree_bound: int) -> dict:
    """Exact-rank test: the abelianized power products are independent."""
    from . import linalg

    vectors = []
    basis = {}
    for _, poly in sigma_power_products(n, degree_bound):
        den, ints = integral(poly.terms)
        if den != 1:
            raise InternalError("power product has a fractional "
                                "coefficient")
        vectors.append({basis.setdefault(ev, len(basis)): c
                        for ev, c in ints.items()})
    space = linalg.RowSpace(vectors, len(basis))
    return {
        "count": len(vectors),
        "rank": space.rank,
        "independent": space.rank == len(vectors),
        "degree_bound": degree_bound,
    }
