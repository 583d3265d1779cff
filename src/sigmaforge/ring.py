"""Free associative ring over Q on noncommuting generators x1, x2, ....

Monomials are stored run-length: a complexion (sequence of generator
indices, adjacent entries distinct) plus matching positive exponents.
The empty monomial is the ring unit.  Polynomials are finite maps from
monomials to nonzero rational coefficients.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache


class InternalError(AssertionError):
    """A broken internal invariant, where AssertionError is a failed check."""


class Monomial:
    """Immutable word in the generators, run-length encoded."""

    __slots__ = ("complexion", "exponents")

    def __init__(self, complexion=(), exponents=()):
        complexion = tuple(complexion)
        exponents = tuple(exponents)
        if len(complexion) != len(exponents):
            raise ValueError("complexion and exponents differ in length")
        for i in complexion:
            if not isinstance(i, int) or i < 1:
                raise ValueError(f"bad generator index {i!r}")
        for a, b in zip(complexion, complexion[1:]):
            if a == b:
                raise ValueError("adjacent complexion entries must differ")
        for e in exponents:
            if not isinstance(e, int) or e < 1:
                raise ValueError(f"bad exponent {e!r}")
        object.__setattr__(self, "complexion", complexion)
        object.__setattr__(self, "exponents", exponents)

    @classmethod
    def _trusted(cls, complexion: tuple, exponents: tuple) -> "Monomial":
        """Wrap a product of valid monomials: the run-length word is
        valid already, so nothing is checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "complexion", complexion)
        object.__setattr__(out, "exponents", exponents)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def from_letters(cls, letters) -> "Monomial":
        """Build from a plain sequence of generator indices."""
        comp = []
        exps = []
        for i in letters:
            if comp and comp[-1] == i:
                exps[-1] += 1
            else:
                comp.append(i)
                exps.append(1)
        return cls(comp, exps)

    def letters(self) -> tuple:
        out = []
        for i, e in zip(self.complexion, self.exponents):
            out.extend([i] * e)
        return tuple(out)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def is_unit(self) -> bool:
        return not self.complexion

    def max_index(self) -> int:
        return max(self.complexion, default=0)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        if not self.complexion:
            return other
        if not other.complexion:
            return self
        if self.complexion[-1] == other.complexion[0]:
            comp = self.complexion + other.complexion[1:]
            exps = (self.exponents[:-1]
                    + (self.exponents[-1] + other.exponents[0],)
                    + other.exponents[1:])
        else:
            comp = self.complexion + other.complexion
            exps = self.exponents + other.exponents
        return Monomial._trusted(comp, exps)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0 or not self.complexion:
            return Monomial()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, Monomial)
                and self.complexion == other.complexion
                and self.exponents == other.exponents)

    def __hash__(self):
        # not stored: a stored hash is a 36-byte int per live monomial
        return hash((self.complexion, self.exponents))

    def sort_key(self):
        """Key whose natural order is the monomial order used everywhere.

        Higher degree is larger.  At equal degree, differing exponent
        sequences compare lexicographically (larger exponent first wins);
        at equal exponent sequences, complexions compare lexicographically
        with the *smaller* generator index winning.
        """
        return (self.degree, self.exponents,
                tuple(-i for i in self.complexion))

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other):
        return self.sort_key() > other.sort_key()

    def __ge__(self, other):
        return self.sort_key() >= other.sort_key()

    def __repr__(self):
        return f"Monomial({render_monomial(self)!r})"


ONE = Monomial()


def render_monomial(m: Monomial) -> str:
    if m.is_unit():
        return "1"
    parts = []
    for i, e in zip(m.complexion, m.exponents):
        parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(parts)


class Terms:
    """Immutable finite map from keys to nonzero rational coefficients.

    The one sparse-terms core under ``Polynomial``, ``sigma.CommPoly``
    and ``rewrite.AtomExpression``: sums, negation, scalar multiples,
    powers, equality and hash live here.  A subclass names its key check
    (``_key``), the key of its constant term (``_unit``) and, when it is
    a ring, the product of two values' terms (``_product``).  A rational
    scalar stands for the constant term.
    """

    __slots__ = ("terms", "arity")
    _product = None

    def __init__(self, terms, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        clean = {}
        for key, c in terms.items():
            key = self._key(key, arity)
            c = Fraction(c)
            x = clean.get(key)
            clean[key] = c if x is None else x + c
        object.__setattr__(self, "terms",
                           {k: c for k, c in clean.items() if c})
        object.__setattr__(self, "arity", arity)

    @classmethod
    def _trusted(cls, terms: dict, arity: int):
        """Wrap the terms of arithmetic on valid values: the keys are
        valid and the values exact Fractions already, so only the zeros
        are dropped.  Takes ownership of ``terms``, a dict no one else
        holds."""
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "arity", arity)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, arity: int):
        return cls({}, arity)

    @classmethod
    def one(cls, arity: int):
        return cls.constant(1, arity)

    @classmethod
    def constant(cls, c, arity: int):
        return cls({cls._unit(arity): Fraction(c)}, arity)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.constant(other, self.arity)
        self._check(other)
        terms = dict(self.terms)
        get = terms.get
        for k, c in other.terms.items():
            x = get(k)
            terms[k] = c if x is None else x + c
        return self._trusted(terms, self.arity)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted({k: -c for k, c in self.terms.items()},
                             self.arity)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.constant(other, self.arity)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = Fraction(other)
            return self._trusted({k: v * c for k, v in self.terms.items()},
                                 self.arity)
        if self._product is None:
            return NotImplemented
        self._check(other)
        return self._trusted(self._product(other), self.arity)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.one(self.arity)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, (int, Fraction)):
                return False
            other = self.constant(other, self.arity)
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        # a constant equals its scalar, so it hashes as the scalar
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1:
            (key, c), = terms.items()
            if key == self._unit(self.arity):
                return hash(c)
        return hash((self.arity, frozenset(terms.items())))


class Polynomial(Terms):
    """Element of the free ring on ``arity`` generators over Q."""

    __slots__ = ()

    @staticmethod
    def _key(m, arity):
        if not isinstance(m, Monomial):
            raise TypeError(f"expected Monomial key, got {type(m)!r}")
        if m.max_index() > arity:
            raise ValueError(
                f"monomial {render_monomial(m)} exceeds arity {arity}")
        return m

    @staticmethod
    def _unit(arity):
        return ONE

    # the benchmark's tracer (perfbench/tracer.py) wraps these through
    # the class's own __dict__, so they are bound here by name
    __add__, __sub__, __neg__, __mul__, __pow__ = (
        Terms.__add__, Terms.__sub__, Terms.__neg__, Terms.__mul__,
        Terms.__pow__)

    # -- constructors ------------------------------------------------

    @classmethod
    def variable(cls, i: int, arity: int) -> "Polynomial":
        if not 1 <= i <= arity:
            raise ValueError(f"variable index {i} out of range 1..{arity}")
        return cls({Monomial((i,), (1,)): Fraction(1)}, arity)

    @classmethod
    def from_monomial(cls, m: Monomial, arity: int, coeff=1) -> "Polynomial":
        return cls({m: Fraction(coeff)}, arity)

    @classmethod
    def word(cls, letters, arity: int, coeff=1) -> "Polynomial":
        return cls({Monomial.from_letters(letters): Fraction(coeff)}, arity)

    # -- structure ---------------------------------------------------

    def degree(self):
        """Maximal term degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(m.degree for m in self.terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.terms.get(m, Fraction(0))

    def is_homogeneous(self, d=None) -> bool:
        degs = {m.degree for m in self.terms}
        if d is None:
            return len(degs) <= 1
        return degs <= {d}

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial(
            {m: c for m, c in self.terms.items() if m.degree == d}, self.arity)

    def homogeneous_components(self) -> dict:
        out = {}
        for m, c in self.terms.items():
            out.setdefault(m.degree, {})[m] = c
        return {d: Polynomial._trusted(t, self.arity)
                for d, t in sorted(out.items())}

    # -- arithmetic --------------------------------------------------

    def _product(self, other) -> dict:
        terms = {}
        get = terms.get
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = m1 * m2
                x = get(m)
                terms[m] = c1 * c2 if x is None else x + c1 * c2
        return terms

    def __repr__(self):
        return f"Polynomial({render_poly(self)!r}, n={self.arity})"

    def sorted_terms(self):
        """Terms in strictly decreasing monomial order."""
        return sorted(self.terms.items(),
                      key=lambda kv: kv[0].sort_key(), reverse=True)


def commutator(p: Polynomial, q: Polynomial) -> Polynomial:
    return p * q - q * p


def variable_commutator(i: int, j: int, n: int) -> Polynomial:
    """x_i*x_j - x_j*x_i."""
    return commutator(Polynomial.variable(i, n), Polynomial.variable(j, n))


@lru_cache(maxsize=None)
def basis_words(n: int, d: int) -> tuple:
    """All n**d degree-d monomials, in strictly decreasing order."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    words = [Monomial.from_letters(w)
             for w in itertools.product(range(1, n + 1), repeat=d)]
    words.sort(key=Monomial.sort_key, reverse=True)
    return tuple(words)


def clear_caches():
    """Drop the cached word bases."""
    basis_words.cache_clear()


# -- text format ----------------------------------------------------
#
# poly   := ['-'] term (('+'|'-') term)*
# term   := rat ['*' factor ('*' factor)*] | factor ('*' factor)*
# factor := 'x' int ['^' int]
# rat    := int ['/' int]
#
# A bare rational is accepted as a term so constants and "0" round-trip.

_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character at position {pos}: "
                                 f"{text[pos:pos + 8]!r}")
            break
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("var", int(m.group(2)[1:])))
        else:
            tokens.append((m.group(3), None))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, arity):
        self.tokens = tokens
        self.pos = 0
        self.arity = arity

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind=None):
        tok = self.peek()
        if kind is not None and tok[0] != kind:
            raise ValueError(f"expected {kind!r}, got {tok[0]!r} "
                             f"at token {self.pos}")
        self.pos += 1
        return tok

    def parse_poly(self) -> Polynomial:
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        total = self.parse_term() * sign
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.parse_term()
            total = total + t if op == "+" else total - t
        if self.peek()[0] is not None:
            raise ValueError(f"trailing input at token {self.pos}")
        return total

    def parse_term(self) -> Polynomial:
        kind, _ = self.peek()
        coeff = Fraction(1)
        factors = []
        if kind == "int":
            coeff = self.parse_rat()
            if self.peek()[0] == "*":
                self.take()
                factors.append(self.parse_factor())
            # bare rational: constant term
        elif kind == "var":
            factors.append(self.parse_factor())
        else:
            raise ValueError(f"expected a term at token {self.pos}")
        while self.peek()[0] == "*":
            self.take()
            factors.append(self.parse_factor())
        mono = ONE
        for f in factors:
            mono = mono * f
        if mono.max_index() > self.arity:
            raise ValueError(f"generator index exceeds arity {self.arity}")
        return Polynomial({mono: coeff}, self.arity)

    def parse_rat(self) -> Fraction:
        _, num = self.take("int")
        if self.peek()[0] == "/":
            self.take()
            _, den = self.take("int")
            if den == 0:
                raise ValueError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def parse_factor(self) -> Monomial:
        _, idx = self.take("var")
        if idx < 1:
            raise ValueError("generator indices start at 1")
        exp = 1
        if self.peek()[0] == "^":
            self.take()
            _, exp = self.take("int")
            if exp < 1:
                raise ValueError("exponents must be >= 1")
        return Monomial((idx,), (exp,))


def parse_poly(text: str, n: int) -> Polynomial:
    """Parse the textual polynomial format at arity n."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty input")
    return _Parser(tokens, n).parse_poly()


def parse_monomial(text: str, n: int) -> Monomial:
    p = parse_poly(text, n)
    if len(p.terms) != 1:
        raise ValueError("expected a single monomial")
    [(m, c)] = p.terms.items()
    if c != 1:
        raise ValueError("expected coefficient 1")
    return m


def render_terms(pairs) -> str:
    """Join (coeff, body) pairs into signed text, in the order given.

    A body of None is a constant term.  A magnitude of 1 is dropped in
    front of a body; the first term carries a bare '-' when negative and
    later terms are joined with ' + ' or ' - '.  No pairs render as "0".
    """
    pieces = []
    for c, body in pairs:
        mag = abs(c)
        if body is None:
            chunk = str(mag)
        elif mag == 1:
            chunk = body
        else:
            chunk = f"{mag}*{body}"
        if not pieces:
            pieces.append(chunk if c > 0 else f"-{chunk}")
        else:
            pieces.append(f" + {chunk}" if c > 0 else f" - {chunk}")
    return "".join(pieces) if pieces else "0"


def render_poly(p: Polynomial) -> str:
    """Deterministic rendering, terms in strictly decreasing order."""
    return render_terms((c, None if m.is_unit() else render_monomial(m))
                        for m, c in p.sorted_terms())
