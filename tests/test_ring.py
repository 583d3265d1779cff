import ast
import gc
import hashlib
import inspect
import itertools
import pickle
import random
import sys
from pathlib import Path

import pytest
from fractions import Fraction

from sigmaforge import cli, ideal
from sigmaforge.cyclic import orbit_polynomial
from sigmaforge.matmodel import MatrixTuple
from sigmaforge.n3lab import reduce_orbit
from sigmaforge.rewrite import AtomExpression, rewrite_invariant
from sigmaforge.ring import (
    ONE, Monomial, Polynomial, basis_words, commutator, integral,
    parse_monomial, parse_poly, render_monomial, render_poly,
    variable_commutator,
)
from sigmaforge.sigma import CommPoly


def M(*letters):
    return Monomial.from_letters(letters)


def reference_key(m):
    """The monomial order's key as two groupby passes over the word:
    degree, run lengths, negated run letters."""
    complexion = tuple(i for i, _ in itertools.groupby(m))
    exponents = tuple(len(tuple(run)) for _, run in itertools.groupby(m))
    return (len(m), exponents, tuple(-i for i in complexion))


class TestMonomial:
    def test_run_length_normalization(self):
        m = M(1, 3, 3, 3, 3, 1, 1, 2)
        assert m.sort_key() == (8, (1, 4, 2, 1), (-1, -3, -1, -2))
        assert render_monomial(m) == "x1*x3^4*x1^2*x2"
        assert m.degree == 8
        assert m == (1, 3, 3, 3, 3, 1, 1, 2)

    def test_letters_constructor(self):
        assert Monomial([1, 3, 3]) == M(1, 3, 3) == (1, 3, 3)
        assert type(Monomial(iter([2, 1]))) is Monomial
        assert Monomial() == ONE == ()
        # from_letters is the one validating constructor under a second name
        assert Monomial.from_letters.__func__ is Monomial.__new__
        for bad in [(0,), (1, -2), (1.0,), ("1",), (True,), (2, False),
                    (Fraction(1),)]:
            with pytest.raises(ValueError):
                Monomial(bad)
            with pytest.raises(ValueError):
                Monomial.from_letters(bad)

    def test_is_a_slotted_tuple(self):
        m = M(1, 2, 2)
        assert issubclass(Monomial, tuple) and Monomial.__slots__ == ()
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.word = (1,)
        with pytest.raises(AttributeError):
            m.degree = 4
        assert m == (1, 2, 2) and hash(m) == hash((1, 2, 2))
        assert len(m) == 3 and m[1:] == (2, 2) and type(m[1:]) is tuple

    def test_tuple_operators_give_plain_tuples(self):
        m = M(1, 2)
        for t in (m + m, 2 * m):
            assert type(t) is tuple and t == (1, 2, 1, 2)
            with pytest.raises(TypeError):
                Polynomial({t: 1}, 3)
        assert type(m * m) is Monomial and m * m == m + m
        with pytest.raises(TypeError):
            m * 2

    def test_sort_key_matches_the_groupby_reference(self):
        words = list(basis_words(3, 6)) + list(basis_words(4, 4))
        rng = random.Random(29)
        for _ in range(400):
            runs = [(rng.randint(1, 4), rng.randint(1, 9))
                    for _ in range(rng.randint(1, 5))]
            words.append(M(*(i for i, e in runs for _ in range(e))))
        words.append(ONE)
        for m in words:
            assert m.sort_key() == reference_key(m), m

    def test_unit(self):
        assert ONE.degree == 0
        assert ONE.is_unit()
        assert ONE * M(1, 2) == M(1, 2)
        assert M(1, 2) * ONE == M(1, 2)

    def test_mul_merges_boundary(self):
        assert M(1, 2) * M(2, 3) == M(1, 2, 2, 3)
        assert M(1, 2) * M(3) == M(1, 2, 3)
        assert M(1, 2) * M(2, 2) == (1, 2, 2, 2)

    def test_pow(self):
        assert M(1, 2) ** 2 == M(1, 2, 1, 2)
        assert M(1) ** 3 == M(1, 1, 1)
        assert M(1, 2) ** 0 == ONE

    def test_hash_and_eq(self):
        assert hash(M(1, 2, 2)) == hash(Monomial((1, 2, 2)))
        assert M(1, 2) != M(2, 1)


class TestOrder:
    def test_degree_dominates(self):
        assert M(2, 1) > M(1)
        assert M(1) < M(2, 2)

    def test_same_exponents_smaller_index_wins(self):
        # x1*x2^2*x3 > x1*x2^2*x4
        assert M(1, 2, 2, 3) > M(1, 2, 2, 4)
        assert M(1, 2, 1) > M(1, 2, 3) > M(1, 3, 1) > M(1, 3, 2) > M(2, 1, 2)

    def test_different_exponents_larger_first_wins(self):
        # x1*x4^2 > x1*x2*x3
        assert M(1, 4, 4) > M(1, 2, 3)
        assert M(1, 1, 1) > M(1, 1, 2)
        assert M(1, 1, 2) > M(1, 2, 2)
        assert M(1, 2, 2) > M(1, 2, 1)

    def test_strict_total_order_on_degree_words(self):
        for n, d in [(3, 3), (4, 2), (2, 5)]:
            words = basis_words(n, d)
            assert len(words) == n ** d
            for a, b in zip(words, words[1:]):
                assert a > b and b < a
        rng = random.Random(7)
        words = basis_words(3, 4)
        for _ in range(300):
            a, b, c = rng.choices(words, k=3)
            assert (a < b) + (a == b) + (a > b) == 1
            if a <= b and b <= c:
                assert a <= c


    @pytest.mark.parametrize("n,d,digest", [
        (3, 6, "0a1013d84457db898bc3eb5d50b8d2a5"
               "a4c3bde62237838144a0b59d03c6b149"),
        (4, 5, "3181b8e684bcd04ec4a87f749e1f709d"
               "22b2bcea2dca569931b5b5c7921eedca"),
        (5, 4, "bee88a86cb03e262cfd81100c5b358f5"
               "d15f59ca317363043fdeae9ab44e8eb8"),
    ])
    def test_basis_order_is_pinned(self, n, d, digest):
        # sha256 of the rendered words, one a line; the slice columns
        # and the residual witnesses follow this order
        text = "\n".join(render_monomial(m) for m in basis_words(n, d))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPolynomial:
    def test_zero_iff_empty(self):
        assert Polynomial.zero(3).is_zero()
        p = Polynomial.word([1, 2], 3) - Polynomial.word([1, 2], 3)
        assert p.is_zero() and p.terms == {}

    def test_no_zero_coefficients_stored(self):
        p = Polynomial({M(1): Fraction(0), M(2): Fraction(1)}, 3)
        assert list(p.terms) == [M(2)]

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            Polynomial.word([1, 4], 3)
        with pytest.raises(ValueError):
            Polynomial.variable(1, 3) + Polynomial.variable(1, 4)

    def test_ring_axioms_spot(self):
        rng = random.Random(11)
        words = basis_words(3, 2)

        def rand_poly():
            return Polynomial(
                {w: Fraction(rng.randint(-3, 3)) for w in
                 rng.sample(words, 3)}, 3)

        for _ in range(25):
            p, q, r = rand_poly(), rand_poly(), rand_poly()
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert (q + r) * p == q * p + r * p
            assert p * Polynomial.one(3) == p
            assert p - p == Polynomial.zero(3)

    def test_noncommutativity(self):
        x1, x2 = Polynomial.variable(1, 3), Polynomial.variable(2, 3)
        assert x1 * x2 != x2 * x1
        assert commutator(x1, x2) == x1 * x2 - x2 * x1
        assert variable_commutator(1, 2, 3) == x1 * x2 - x2 * x1

    def test_scalar_ops(self):
        x1 = Polynomial.variable(1, 3)
        assert 2 * x1 == x1 * 2 == x1 + x1
        assert x1 / 2 == Fraction(1, 2) * x1
        assert (x1 * Fraction(0)).is_zero()

    def test_homogeneous_components(self):
        x1 = Polynomial.variable(1, 3)
        p = x1 ** 3 + 2 * x1 - 5
        comps = p.homogeneous_components()
        assert sorted(comps) == [0, 1, 3]
        assert comps[1] == 2 * x1
        assert sum(comps.values(), Polynomial.zero(3)) == p
        assert not p.is_homogeneous()
        assert (x1 ** 3).is_homogeneous(3)

    def test_degree(self):
        assert Polynomial.zero(3).degree() is None
        assert Polynomial.one(3).degree() == 0
        assert (Polynomial.word([1, 2, 1], 3) + 1).degree() == 3


class TestTextFormat:
    def test_render_examples(self):
        assert render_poly(variable_commutator(1, 2, 3)) == "x1*x2 - x2*x1"
        p = Fraction(2, 3) * Polynomial.from_monomial(M(1, 1), 3)
        assert render_poly(p) == "2/3*x1^2"
        assert render_poly(Polynomial.zero(3)) == "0"
        assert render_monomial(M(1, 3, 3, 1, 2)) == "x1*x3^2*x1*x2"

    def test_render_decreasing_order(self):
        p = parse_poly("x2 + x1^2 + 3 + x1*x2", 3)
        assert render_poly(p) == "x1^2 + x1*x2 + x2 + 3"

    def test_parse_examples(self):
        p = parse_poly("x1*x2 - x2*x1", 3)
        assert p == variable_commutator(1, 2, 3)
        assert parse_poly("2/3*x1^2", 3).coefficient(
            M(1, 1)) == Fraction(2, 3)
        assert parse_poly("-x1 + 1/2", 2) == \
            Polynomial.constant(Fraction(1, 2), 2) - Polynomial.variable(1, 2)
        assert parse_poly("0", 3).is_zero()
        assert parse_poly("x1* x2 *x1", 3) == Polynomial.word([1, 2, 1], 3)
        assert parse_poly("x1^2*x2", 3) == Polynomial.word([1, 1, 2], 3)

    def test_parse_errors(self):
        for bad in ["", "x0", "x1^0", "x4", "x1 +", "* x1", "1/0", "x1 x2",
                    "x1^", "2*", "y1"]:
            with pytest.raises(ValueError):
                parse_poly(bad, 3)

    def test_round_trip_random(self):
        rng = random.Random(23)
        words = [w for d in range(4) for w in basis_words(3, d)]
        for _ in range(60):
            terms = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for w in rng.sample(words, rng.randint(0, 6))}
            p = Polynomial(terms, 3)
            assert parse_poly(render_poly(p), 3) == p

    def test_parse_word_length_bound(self):
        from sigmaforge.ring import MAX_WORD_LENGTH

        top = MAX_WORD_LENGTH
        word = parse_monomial(f"x2*x1^{top - 2}*x3", 3)
        assert len(word) == top and word[0] == 2 and word[-1] == 3
        for bad in (f"x1^{top + 1}", f"x1^{top}*x2", f"x1^{top // 2 + 1}"
                    f"*x2^{top // 2}"):
            with pytest.raises(ValueError, match="^exponent .* exceeds"):
                parse_poly(bad, 3)

    def test_parse_monomial(self):
        assert parse_monomial("x1*x3^4*x1^2*x2", 4) == \
            M(1, 3, 3, 3, 3, 1, 1, 2)
        with pytest.raises(ValueError):
            parse_monomial("x1 + x2", 3)
        with pytest.raises(ValueError):
            parse_monomial("2*x1", 3)


# {power of the one variable: coefficient}; power 0 is the constant term
@pytest.mark.parametrize("terms, text", [
    ({2: -1, 1: 2}, "-{v}^2 + 2*{v}"),
    ({2: 1, 1: Fraction(-3, 2)}, "{v}^2 - 3/2*{v}"),
    ({1: 1, 0: -1}, "{v} - 1"),
    ({0: Fraction(-7, 3)}, "-7/3"),
    ({}, "0"),
], ids=["leading-negative", "three-halves", "magnitude-one",
        "constant-only", "zero"])
def test_renderers_share_the_signed_join(terms, text):
    x1 = M(1)
    poly = Polynomial({x1 ** e: c for e, c in terms.items()}, 3)
    comm = CommPoly({(e,): c for e, c in terms.items()}, 1)
    expr = AtomExpression({(x1,) * e: c for e, c in terms.items()}, 3)
    assert render_poly(poly) == text.format(v="x1")
    assert comm.render() == text.format(v="y1")
    assert expr.render() == text.format(v="O[x1]")


def test_values_survive_pickling():
    # a Monomial goes back through its validating constructor, a
    # sparse-terms value through its class's _trusted
    values = [
        M(1, 2, 2, 3),
        ONE,
        parse_poly("x1*x2^2 - 3/2*x3 + 1", 3),
        CommPoly({(1, 0, 2): 3, (0, 0, 0): Fraction(-1, 2)}, 3),
        rewrite_invariant(orbit_polynomial(M(1, 2, 2, 3), 3)),
        reduce_orbit(M(1, 2, 1, 3)),
    ]
    for v in values:
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(v, proto))
            assert copy == v
            assert type(copy) is type(v)
            assert hash(copy) == hash(v)


def test_run_length_view_is_read_in_ring_only():
    """A monomial is its letter tuple everywhere outside ring.py, and a
    rotation is an int: no other module reads the run-length view or
    names the old shift class."""
    src = Path(__file__).resolve().parents[1] / "src" / "sigmaforge"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "CyclicShift" not in text, path.name
        if path.name != "ring.py":
            for name in (".complexion", ".exponents"):
                assert name not in text, (path.name, name)
    # a monomial is its letters: no word slot and no stored run-length view
    for name in ("word", "complexion", "exponents"):
        assert not hasattr(Monomial, name), name
        assert not hasattr(ONE, name), name


def test_each_job_has_one_home():
    """Rationals are cleared to integers by ``ring.integral`` alone, the
    command line prints in ``main`` alone, and the value records are
    stdlib named tuples, not hand-written record classes."""
    src = Path(__file__).resolve().parents[1] / "src" / "sigmaforge"
    for path in sorted(src.glob("*.py")):
        if path.name != "ring.py":
            assert ".denominator" not in path.read_text(), path.name
    cli_text = (src / "cli.py").read_text()
    assert "_require_arity" not in cli_text
    in_main = inspect.getsource(cli.main).count("args.output")
    assert in_main and cli_text.count("args.output") == in_main
    assert not hasattr(ideal, "_Record")
    assert "_Record" not in (src / "ideal.py").read_text()
    t = MatrixTuple(1, 1, (((1,),),))
    assert isinstance(t, tuple) and not hasattr(t, "__dict__")


def test_integral_keeps_no_block_per_call():
    """Unpacking a generator into a call leaves one tuple per call on
    CPython's per-size tuple free lists, up to about 2000 per argument
    count; integral unpacks a list and keeps none.  A full collection
    empties those free lists, so none may run while counting."""
    rng = random.Random(3)
    maps = [{k: Fraction(rng.randint(1, 9), rng.randint(1, 12))
             for k in range(rng.randint(11, 19))} for _ in range(3000)]
    for m in maps[:20]:
        integral(m)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for m in maps:
            integral(m)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown <= 100


def test_no_call_unpacks_a_generator():
    """``f(*(x for x in xs))`` keeps a memory block per call (see
    test_integral_keeps_no_block_per_call); unpack a list instead."""
    src = Path(__file__).resolve().parents[1] / "src" / "sigmaforge"
    paths = sorted(src.glob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                found += [(path.name, arg.lineno) for arg in node.args
                          if isinstance(arg, ast.Starred)
                          and isinstance(arg.value, ast.GeneratorExp)]
    assert found == []


# public names no code under src or perfbench reaches, each kept for a reason
UNREACHED_ALLOWED = {
    "clear_caches": "the package's explicit reset of every cache",
    "pivots": "an accessor of the RowSpace value type",
    "coefficient": "an accessor of the Polynomial value type",
}


def _names(tree, strings=False) -> list:
    """Every ast.Name id and ast.Attribute attr under ``tree``, and its
    string constants when ``strings`` is set."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.append(node.value)
    return out


def test_no_public_name_serves_only_the_tests():
    """Every public top-level function and class method of the package
    is named in ``src`` outside its own body, or in ``perfbench``, where
    a string constant also counts (the tracer names methods by string).
    A helper only tests call, such as a reference route, lives under
    ``tests``, where it cannot drift with the code it checks."""
    root = Path(__file__).resolve().parents[1]
    trees = {p: ast.parse(p.read_text())
             for p in sorted((root / "src" / "sigmaforge").glob("*.py"))}
    assert len(trees) > 5
    used = {}
    for tree in trees.values():
        for name in _names(tree):
            used[name] = used.get(name, 0) + 1
    perfbench = {name for p in sorted((root / "perfbench").glob("*.py"))
                 for name in _names(ast.parse(p.read_text()), strings=True)}
    defs = []
    for path, tree in trees.items():
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            defs += [(path.name, d) for d in body
                     if isinstance(d, ast.FunctionDef)
                     and not d.name.startswith("_")]
    unreached = sorted(
        (name, d.name) for name, d in defs
        if used.get(d.name, 0) == _names(d).count(d.name)
        and d.name not in perfbench and d.name not in UNREACHED_ALLOWED)
    assert unreached == []
