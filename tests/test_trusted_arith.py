"""Arithmetic builds its results without re-validating them.

``Monomial.__mul__`` and the operators of the sparse-terms core under
``Polynomial``, ``CommPoly`` and ``AtomExpression`` wrap their results
with trusted constructors, so the checks here are twofold: every public
constructor still rejects bad input (also under ``python -O``), and every
arithmetic result is a value the validating constructor would have
built, with the ring (or additive group) laws holding on it.  The
bad-input table also holds the rows ``linalg.RowSpace`` refuses: a
row is a {column: int} dict with ``int`` columns, and a ``Fraction`` or
``float`` entry is refused rather than truncated.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sigmaforge import ring
from sigmaforge.atoms import enumerate_atoms
from sigmaforge.linalg import RowSpace
from sigmaforge.n3lab import SReduced
from sigmaforge.rewrite import AtomExpression
from sigmaforge.ring import ONE, Monomial, Polynomial, parse_poly
from sigmaforge.sigma import CommPoly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

# (name, constructor call, expected exception), one per kind of bad input
BAD_INPUTS = [
    ("adjacent_equal_letters", lambda: Monomial((1, 1), (1, 2)), ValueError),
    ("adjacent_equal_inner", lambda: Monomial((2, 1, 1, 3), (1, 1, 1, 1)),
     ValueError),
    ("index_zero", lambda: Monomial((0,), (1,)), ValueError),
    ("index_not_int", lambda: Monomial((1.0,), (1,)), ValueError),
    ("index_zero_from_letters", lambda: Monomial.from_letters([1, 0]),
     ValueError),
    ("exponent_zero", lambda: Monomial((1,), (0,)), ValueError),
    ("exponent_not_int", lambda: Monomial((1,), (Fraction(3, 2),)),
     ValueError),
    ("length_mismatch", lambda: Monomial((1, 2), (1,)), ValueError),
    ("key_not_monomial", lambda: Polynomial({(1, 2): 1}, 3), TypeError),
    ("key_str", lambda: Polynomial({"x1": 1}, 3), TypeError),
    ("word_beyond_arity",
     lambda: Polynomial({Monomial((1, 4), (1, 1)): 1}, 3), ValueError),
    ("word_beyond_arity_word", lambda: Polynomial.word([1, 4], 3),
     ValueError),
    ("variable_beyond_arity", lambda: Polynomial.variable(4, 3), ValueError),
    ("monomial_beyond_arity",
     lambda: Polynomial.from_monomial(Monomial((5,), (1,)), 3), ValueError),
    ("arity_zero", lambda: Polynomial({}, 0), ValueError),
    ("coefficient_not_rational", lambda: Polynomial({ONE: "one"}, 3),
     ValueError),
    ("parse_beyond_arity", lambda: parse_poly("x1*x4", 3), ValueError),
    ("parse_index_zero", lambda: parse_poly("x0", 3), ValueError),
    ("parse_exponent_zero", lambda: parse_poly("x1^0", 3), ValueError),
    ("arity_mismatch_add",
     lambda: Polynomial.variable(1, 3) + Polynomial.variable(1, 4),
     ValueError),
    ("arity_mismatch_mul",
     lambda: Polynomial.variable(1, 3) * Polynomial.variable(1, 4),
     ValueError),
    ("commpoly_vector_too_short", lambda: CommPoly({(1, 0): 1}, 3),
     ValueError),
    ("commpoly_negative_exponent", lambda: CommPoly({(1, -1, 0): 1}, 3),
     ValueError),
    ("commpoly_arity_mismatch_add",
     lambda: CommPoly.variable(1, 3) + CommPoly.variable(1, 4), ValueError),
    ("atom_expression_non_atom",
     lambda: AtomExpression({(Monomial((1,), (2,)),): 1}, 3), ValueError),
    ("atom_expression_arity_mismatch_add",
     lambda: AtomExpression.constant(1, 3) + AtomExpression.constant(1, 4),
     ValueError),
    ("sreduced_entry_wrong_arity",
     lambda: SReduced(CommPoly.variable(1, 3), 0, 0), ValueError),
    ("sreduced_entry_not_commpoly", lambda: SReduced("s1", 0, 0),
     ValueError),
    ("sreduced_times_commpoly_wrong_arity",
     lambda: SReduced.scalar(1) * CommPoly.variable(1, 3), ValueError),
    ("rowspace_fraction_entry",
     lambda: RowSpace([{0: Fraction(1, 2), 1: 1}], 2), TypeError),
    ("rowspace_float_entry", lambda: RowSpace([{0: 0.5}, {1: 1}], 2),
     TypeError),
    ("rowspace_integral_fraction_entry",
     lambda: RowSpace([{0: Fraction(2)}], 2), TypeError),
    ("rowspace_reduce_fraction_entry",
     lambda: RowSpace([{0: 1}], 2).reduce({1: Fraction(1, 2)}), TypeError),
    ("rowspace_dense_row", lambda: RowSpace([[1, 0]], 2), TypeError),
    ("rowspace_column_out_of_range", lambda: RowSpace([{2: 1}], 2),
     ValueError),
    ("rowspace_fraction_column", lambda: RowSpace([{0.5: 1}, {1: 2}], 2),
     TypeError),
    ("rowspace_integral_float_column", lambda: RowSpace([{1.0: 1}], 2),
     TypeError),
]


@pytest.mark.parametrize("name,make,exc", BAD_INPUTS,
                         ids=[b[0] for b in BAD_INPUTS])
def test_public_constructors_reject_bad_input(name, make, exc):
    with pytest.raises(exc):
        make()


UNDER_O = """
import sys
sys.path.insert(0, {tests!r})
from test_trusted_arith import BAD_INPUTS
for name, make, exc in BAD_INPUTS:
    try:
        make()
    except exc:
        print(name, "raised")
    else:
        print(name, "did not raise")
print("debug", __debug__)
"""


def test_public_constructors_reject_bad_input_under_python_O():
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(ring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c",
                          UNDER_O.format(tests=tests)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.splitlines() == (
        [f"{name} raised" for name, _, _ in BAD_INPUTS] + ["debug False"])


class MyInt(int):
    pass


def test_scalars_keep_their_meaning():
    p = parse_poly("x1*x2 - 1/2*x3", 3)
    assert p + True == p + 1
    assert p * True == p
    assert True * p == p
    assert p - MyInt(2) == p - 2
    assert p * MyInt(3) == p * 3 == MyInt(3) * p
    assert (p * False).is_zero()
    assert Polynomial.constant(1, 3) == True  # noqa: E712
    assert Polynomial.constant(2, 3) == MyInt(2)
    assert p != "x1*x2"
    with pytest.raises(TypeError):
        p + "x1"
    with pytest.raises(TypeError):
        p * 1.5


@pytest.mark.parametrize("cls", [Polynomial, CommPoly, AtomExpression],
                         ids=lambda cls: cls.__name__)
def test_constants_hash_as_their_scalars(cls):
    """A constant equals its scalar, so it must hash as the scalar: sets
    and dicts then find one through the other."""
    for c in (1, -3, Fraction(2, 7), 0):
        k = cls.constant(c, 3)
        assert k == c and hash(k) == hash(c)
        assert c in {k} and k in {c}
        assert {k: "v"}[c] == "v"
    zero = cls.zero(3)
    assert zero == 0 and 0 in {zero} and zero in {0}
    assert cls.one(3) in {1, 2} and True in {cls.one(3)}
    # a value with a non-constant term is not a scalar
    other = cls.constant(1, 3) + {Polynomial: Polynomial.variable(1, 3),
                                  CommPoly: CommPoly({(1, 0, 0): 1}, 3),
                                  AtomExpression: AtomExpression(
                                      {(enumerate_atoms(3, 1)[0],): 1}, 3),
                                  }[cls]
    assert other != 1 and other not in {1}


def test_monomial_product_is_a_valid_word():
    a, b = Monomial((1, 2), (1, 3)), Monomial((2, 1), (1, 1))
    prod = a * b
    assert prod.complexion == (1, 2, 1) and prod.exponents == (1, 4, 1)
    same = Monomial(prod.complexion, prod.exponents)
    assert prod == same and hash(prod) == hash(same)
    assert Monomial.from_letters(a.letters() + b.letters()) == prod


# -- properties -----------------------------------------------------

ARITY = 3
LETTERS = st.integers(min_value=1, max_value=ARITY)
WORDS = st.lists(LETTERS, max_size=4).map(Monomial.from_letters)
COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
POLYS = st.dictionaries(WORDS, COEFFS, max_size=5).map(
    lambda terms: Polynomial(terms, ARITY))
SCALARS = st.one_of(st.integers(min_value=-5, max_value=5), COEFFS,
                    st.booleans())


def assert_revalidates(r, cls):
    """r is what the validating constructor of cls makes of its terms."""
    assert type(r) is cls and r.arity == ARITY
    assert r == cls(dict(r.terms), r.arity)
    for c in r.terms.values():
        assert type(c) is Fraction and c != 0


def assert_valid(r):
    assert_revalidates(r, Polynomial)
    for m in r.terms:
        assert type(m) is Monomial
        assert m == Monomial(m.complexion, m.exponents)
        assert hash(m) == hash(Monomial(m.complexion, m.exponents))


@given(POLYS, POLYS, SCALARS)
def test_arithmetic_results_equal_their_revalidated_copies(p, q, c):
    before = dict(p.terms), dict(q.terms)
    results = [p + q, p - q, -p, p * q, q * p, p * c, c * p, p + c, c + p,
               p - c, c - p, p ** 2, p - p]
    if c:
        results.append(p / c)
    results.extend(p.homogeneous_components().values())
    for r in results:
        assert_valid(r)
        assert r.terms is not p.terms and r.terms is not q.terms
    # the trusted constructor owns its dict: the operands are untouched
    assert (p.terms, q.terms) == before
    assert sum(p.homogeneous_components().values(), Polynomial.zero(ARITY)) \
        == p


@given(POLYS, POLYS, POLYS)
def test_ring_laws(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p - p == 0
    assert (p - p).is_zero()
    assert p * 1 == p == Polynomial.one(ARITY) * p
    if not p.is_zero() and not q.is_zero():
        assert (p * q).degree() == p.degree() + q.degree()


@given(st.lists(LETTERS, max_size=5), st.lists(LETTERS, max_size=5))
def test_monomial_product_matches_letter_concatenation(a, b):
    u, v = Monomial.from_letters(a), Monomial.from_letters(b)
    prod = u * v
    assert prod == Monomial.from_letters(a + b)
    assert prod.letters() == tuple(a + b)
    assert hash(prod) == hash(Monomial.from_letters(a + b))


# -- the other two users of the sparse-terms core ------------------------

EXPONENTS = st.tuples(*[st.integers(min_value=0, max_value=3)] * ARITY)
COMMS = st.dictionaries(EXPONENTS, COEFFS, max_size=5).map(
    lambda terms: CommPoly(terms, ARITY))
ATOMS = st.sampled_from([a for d in (1, 2, 3, 4)
                         for a in enumerate_atoms(ARITY, d)])
PRODUCTS = st.lists(ATOMS, max_size=3).map(tuple)
EXPRS = st.dictionaries(PRODUCTS, COEFFS, max_size=4).map(
    lambda terms: AtomExpression(terms, ARITY))


@given(COMMS, COMMS, SCALARS)
def test_commpoly_results_equal_their_revalidated_copies(p, q, c):
    before = dict(p.terms), dict(q.terms)
    results = [p + q, p - q, -p, p * q, q * p, p * c, c * p, p + c, c + p,
               p - c, c - p, p ** 2, p - p]
    if c:
        results.append(p / c)
    for r in results:
        assert_revalidates(r, CommPoly)
        assert r.terms is not p.terms and r.terms is not q.terms
    assert (p.terms, q.terms) == before


@given(COMMS, COMMS, COMMS)
def test_commpoly_ring_laws(p, q, r):
    one = CommPoly.one(ARITY)
    assert (p * q) * r == p * (q * r)
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p - p == 0 and (p - p).is_zero()
    assert p * 1 == p == one * p
    assert p + CommPoly.zero(ARITY) == p
    assert p ** 3 == p * p * p and p ** 0 == one


@given(EXPRS, EXPRS, EXPRS, SCALARS)
def test_atom_expression_additive_group_laws(a, b, e, c):
    before = dict(a.terms), dict(b.terms)
    zero = AtomExpression.zero(ARITY)
    assert (a + b) + e == a + (b + e)
    assert a + b == b + a
    assert a + zero == a == zero + a
    assert a - a == zero and (a - a).is_zero()
    assert -(-a) == a and a - b == a + (-b)
    assert a + c == a + AtomExpression.constant(c, ARITY)
    assert a * c == c * a
    for r in (a + b, a - b, -a, a * c, a + c):
        assert_revalidates(r, AtomExpression)
        assert r.terms is not a.terms and r.terms is not b.terms
    assert (a.terms, b.terms) == before


@given(EXPRS, PRODUCTS, COEFFS)
def test_atom_expression_add_term_equals_plus(a, factors, c):
    got = a.add_term(factors, c)
    assert got == a + AtomExpression({factors: c}, ARITY)
    terms = dict(a.terms)
    terms[factors] = terms.get(factors, 0) + c
    assert got == AtomExpression(terms, ARITY)
    assert_revalidates(got, AtomExpression)
