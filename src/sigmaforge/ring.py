"""Free associative ring over Q on noncommuting generators x1, x2, ....

A monomial is a ``tuple`` subclass: the tuple of its letters (generator
indices), equal to the plain tuple of them; the empty word is the ring
unit.  The run-length view, a complexion of distinct neighbouring
indices with their positive exponents, is made in one pass, ``_runs``,
and read only by the monomial order and the printers (``rewrite``
groups equal atom factors by the same pass).  Polynomials are finite
maps from monomials to nonzero rational coefficients, given as ``int``
or ``Fraction``; ``integral`` clears such values to integers.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache


class InternalError(AssertionError):
    """A broken internal invariant, where AssertionError is a failed check."""


def _check_letter(i):
    if type(i) is not int or i < 1:
        raise ValueError(f"bad generator index {i!r}")


def _runs(word) -> tuple:
    """Runs of equal neighbours in one pass: (values, run lengths)
    lists, for a word its (complexion, exponents)."""
    letters, lengths = [], []
    last = None
    for i in word:
        if i == last:
            lengths[-1] += 1
        else:
            letters.append(i)
            lengths.append(1)
            last = i
    return letters, lengths


class Monomial(tuple):
    """Word in the generators: a tuple of its letters, equal to the
    plain tuple of the same letters.  Tuple operators that are not
    monomial operations (``m + m``, ``2 * m``) give plain tuples."""

    __slots__ = ()

    def __new__(cls, letters=()):
        word = tuple.__new__(cls, letters)
        for i in word:
            _check_letter(i)
        return word

    from_letters = classmethod(__new__)

    @classmethod
    def _trusted(cls, word) -> "Monomial":
        """Wrap a sequence of valid letters; nothing is checked."""
        return tuple.__new__(cls, word)

    def __reduce__(self):
        return (Monomial, (tuple(self),))

    @property
    def degree(self) -> int:
        return len(self)

    def is_unit(self) -> bool:
        return not self

    def max_index(self) -> int:
        return max(self, default=0)

    def __mul__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return tuple.__new__(Monomial, self + other)  # _trusted, inlined

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return Monomial._trusted(tuple.__mul__(self, k))

    def sort_key(self):
        """Key whose natural order is the monomial order used everywhere.

        Higher degree is larger.  At equal degree, differing exponent
        sequences compare lexicographically (larger exponent first wins);
        at equal exponent sequences, complexions compare lexicographically
        with the *smaller* generator index winning.
        """
        letters, lengths = _runs(self)
        return (len(self), tuple(lengths), tuple(-i for i in letters))

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


def integral(terms: dict) -> tuple:
    """(den, {key: int}) with den*terms integer: den > 0 is the least
    common denominator of the rational values of ``terms``."""
    # a list, not a generator: unpacking a generator into a call leaves
    # one tuple per call on CPython's tuple free lists
    den = math.lcm(*[c.denominator for c in terms.values()])
    return den, {k: c.numerator * (den // c.denominator)
                 for k, c in terms.items()}


def render_monomial(m: Monomial) -> str:
    if m.is_unit():
        return "1"
    parts = []
    for i, e in zip(*_runs(m)):
        parts.append(f"x{i}" if e == 1 else f"x{i}^{e}")
    return "*".join(parts)


class Terms:
    """Immutable finite map from keys to nonzero rational coefficients.

    The one sparse-terms core under ``Polynomial``, ``sigma.CommPoly``,
    ``rewrite.AtomExpression`` and ``n3lab.SReduced``: sums, negation,
    scalar multiples, powers, equality and hash live here.  A subclass
    names its key check (``_key``), the key of its constant term
    (``_unit``) and, when it is a ring, the product of two values' terms
    (``_product``).  A rational scalar stands for the constant term.
    """

    __slots__ = ("terms", "arity")
    _product = None

    def __init__(self, terms, arity: int):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        clean = {}
        for key, c in terms.items():
            key = self._key(key, arity)
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"bad coefficient {c!r}")
            c = Fraction(c)
            x = clean.get(key)
            clean[key] = c if x is None else x + c
        object.__setattr__(self, "terms",
                           {k: c for k, c in clean.items() if c})
        object.__setattr__(self, "arity", arity)

    @classmethod
    def _trusted(cls, terms: dict, arity: int):
        """Wrap the terms of arithmetic on valid values: the keys are
        valid and the values exact Fractions already (or ints, in the
        n3 lab's integral orbit forms), so only the zeros are dropped.
        Takes ownership of ``terms``, a dict no one else holds."""
        for k in [k for k, c in terms.items() if not c]:
            del terms[k]
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "arity", arity)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return (self._trusted, (dict(self.terms), self.arity))

    @classmethod
    def zero(cls, arity: int):
        return cls({}, arity)

    @classmethod
    def one(cls, arity: int):
        return cls.constant(1, arity)

    @classmethod
    def constant(cls, c, arity: int):
        return cls({cls._unit(arity): c}, arity)

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
        return cls({Monomial((i,)): 1}, arity)

    @classmethod
    def from_monomial(cls, m: Monomial, arity: int, coeff=1) -> "Polynomial":
        return cls({m: coeff}, arity)

    @classmethod
    def word(cls, letters, arity: int, coeff=1) -> "Polynomial":
        return cls({Monomial(letters): coeff}, arity)

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
    words = [Monomial._trusted(w)
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
# A term's word has at most MAX_WORD_LENGTH letters.

MAX_WORD_LENGTH = 10 ** 6

#: the most words or terms one request may list: the word columns of a
#: slice, the terms of a sigma, the atoms of one degree, the keys of an
#: orbit expansion.  3^12 is n=3 at degree 12, the largest slice
#: measured so far (46.7 s, 1.16 GB with the lower ones)
MAX_TERMS = 3 ** 12


def power_exceeds_bound(base: int, e: int) -> bool:
    """Is base ** e, for base >= 1 and e >= 0, more than MAX_TERMS?
    The exponent is capped at the bound's bit length, past which 2 ** e
    alone exceeds it, so a huge e costs nothing."""
    return base ** min(e, MAX_TERMS.bit_length()) > MAX_TERMS

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
        # bounded before any word is built: a longer one would exhaust
        # memory before anything else could refuse it
        length = sum(exp for _, exp in factors)
        if length > MAX_WORD_LENGTH:
            raise ValueError(f"exponent sum {length} exceeds the word "
                             f"length bound {MAX_WORD_LENGTH}")
        if any(idx > self.arity for idx, _ in factors):
            raise ValueError(f"generator index exceeds arity {self.arity}")
        mono = Monomial._trusted(
            [idx for idx, exp in factors for _ in range(exp)])
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

    def parse_factor(self) -> tuple:
        """(generator index, exponent) of one factor."""
        _, idx = self.take("var")
        if idx < 1:
            raise ValueError("generator indices start at 1")
        exp = 1
        if self.peek()[0] == "^":
            self.take()
            _, exp = self.take("int")
            if exp < 1:
                raise ValueError("exponents must be >= 1")
            if exp > MAX_WORD_LENGTH:
                raise ValueError(f"exponent {exp} exceeds the word length "
                                 f"bound {MAX_WORD_LENGTH}")
        return idx, exp


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
