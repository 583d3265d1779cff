"""Free-ring arithmetic builds its results without re-validating them.

``Monomial.__mul__`` and the ``Polynomial`` operators wrap their results
with trusted constructors, so the checks here are twofold: every public
constructor still rejects bad input (also under ``python -O``), and every
arithmetic result is a polynomial the validating constructor would have
built, with the ring laws holding on it.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sigmaforge import ring
from sigmaforge.ring import ONE, Monomial, Polynomial, parse_poly

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


def assert_valid(r):
    """r is what the validating constructor makes of its own terms."""
    assert isinstance(r, Polynomial) and r.arity == ARITY
    assert r == Polynomial(dict(r.terms), r.arity)
    for m, c in r.terms.items():
        assert type(m) is Monomial and type(c) is Fraction and c != 0
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
