"""Tests for the exact matrix models and the seeded search."""

import gc
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from fractions import Fraction

import pytest

from sigmaforge import matmodel
from sigmaforge.linalg import RowSpace
from sigmaforge.matmodel import (
    FAMILIES,
    MatrixTuple,
    check_c12,
    cyclic_permutation_matrix,
    examine_tuple,
    is_zero_matrix,
    mat_add,
    mat_commutator,
    mat_mul,
    mat_rank,
    mat_sub,
    random_tuple,
    suffix_sigmas,
    zero_divisor_search,
)
from sigmaforge.ring import integral


def identity_matrix(dim: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(dim))
                 for i in range(dim))


def zero_matrix(dim: int) -> tuple:
    return tuple((0,) * dim for _ in range(dim))


def rotated(t: MatrixTuple, r: int = 1) -> MatrixTuple:
    """Circular shift: entry i of the result is matrix i + r."""
    r %= t.n
    return MatrixTuple(t.n, t.dim, t.mats[r:] + t.mats[:r])


def from_mats(mats) -> MatrixTuple:
    """The tuple of the square matrices ``mats``, n and dim read off."""
    mats = tuple(mats)
    if not mats:
        raise ValueError("need at least one matrix")
    return MatrixTuple(len(mats), len(mats[0]), mats)


def eval_sigma_matrices(t: MatrixTuple, k: int):
    """sigma_k by its definition: the sum of the ordered products over
    strictly increasing index words; the reference for suffix_sigmas."""
    if not 0 <= k <= t.n:
        raise ValueError(f"k must lie in 0..{t.n}, got {k}")
    if k == 0:
        return identity_matrix(t.dim)
    total = zero_matrix(t.dim)
    for word in itertools.combinations(range(t.n), k):
        prod = t.mats[word[0]]
        for i in word[1:]:
            prod = mat_mul(prod, t.mats[i])
        total = mat_add(total, prod)
    return total


# relations hold, no pair commutes, dim 2: frozen from a brute-force scan
CANDIDATE = from_mats((
    ((-2, -2), (0, -1)),
    ((-2, 1), (0, -2)),
    ((-1, 1), (0, -2)),
))

# frozen from seeded block-triangular scans at dim 2: rotations 1..r-1
# keep the sigmas and rotation r is the first to change them, so the
# verdict rests on a grown prefix
FIRST_CHANGED_AT = [
    (2, from_mats((((-3, 0), (0, -3)), ((2, 1), (0, -1)),
                   ((1, 0), (0, 2)), ((2, -2), (0, -1))))),
    (3, from_mats((((-2, 0), (0, -2)), ((-2, 0), (0, -2)),
                   ((-1, 1), (0, 1)), ((-1, 1), (0, 2))))),
    (2, from_mats((((1, 0), (0, 1)), ((3, 1), (0, -2)), ((-2, -3), (0, -1)),
                   ((1, 2), (0, -3)), ((0, -2), (0, -2))))),
    (3, from_mats((((-1, 3), (0, -1)), ((1, 0), (0, 1)), ((-3, -2), (0, -2)),
                   ((-1, 1), (0, -1)), ((-2, 2), (0, -3))))),
    (4, from_mats((((2, 0), (0, 2)), ((0, 0), (0, 0)), ((-1, 0), (0, -1)),
                   ((-2, -1), (0, 2)), ((0, -2), (0, 0))))),
]
# relations hold, no pair commutes, n=4 and dim 2: frozen from the same scan
CANDIDATE_N4 = from_mats((((0, -3), (0, 3)), ((-2, 2), (0, 0)),
                          ((-3, 0), (0, -2)), ((3, 1), (0, -3))))


def test_sigma_zero_is_identity():
    t = random_tuple("dense", 3, 3, random.Random(0))
    assert eval_sigma_matrices(t, 0) == identity_matrix(3)


def test_sigma_k_out_of_range():
    t = random_tuple("dense", 3, 2, random.Random(0))
    with pytest.raises(ValueError):
        eval_sigma_matrices(t, 4)
    with pytest.raises(ValueError):
        eval_sigma_matrices(t, -1)


def test_sigma_on_diagonals_is_elementary_symmetric():
    rng = random.Random(5)
    t = random_tuple("commuting", 4, 3, rng)
    diags = [[m[p][p] for m in t.mats] for p in range(3)]
    for k in range(1, 5):
        s = eval_sigma_matrices(t, k)
        for p in range(3):
            expected = sum(math.prod(v)
                           for v in itertools.combinations(diags[p], k))
            assert s[p][p] == expected
        assert all(s[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_sigma_top_is_full_product():
    t = random_tuple("dense", 3, 3, random.Random(9))
    m1, m2, m3 = t.mats
    assert eval_sigma_matrices(t, 3) == mat_mul(mat_mul(m1, m2), m3)


def test_recursion_route_matches_definition():
    rng = random.Random(2)
    tuples = []
    for family in FAMILIES:
        for n in range(1, 7):
            for dim in range(1 if family != "block-triangular" else 2, 5):
                tuples.append(random_tuple(family, n, dim, rng))
    half, third = Fraction(1, 2), Fraction(-1, 3)
    a = ((half, 1), (0, third))
    b = ((2, third), (half, 0))
    c = ((Fraction(5, 4), 0), (-1, half))
    tuples += [from_mats(mats) for mats in (
        (((half,),), ((third,),)),
        (a, b, c),
        (a, b, a, c, b),
        (((half, third), (third, half)),) * 4,
        (((0, 0), (0, 0)), a, ((1, 0), (0, 1))),
    )]
    for t in tuples:
        stages = suffix_sigmas(t.mats)
        assert len(stages) == t.n
        for i, sigmas in enumerate(stages):
            suffix = from_mats(t.mats[i:])
            assert len(sigmas) == t.n - i
            for k in range(1, t.n - i + 1):
                assert sigmas[k - 1] == eval_sigma_matrices(suffix, k), (t, i, k)


def _c12_word_by_word(t):
    """check_c12 as it read with one sum over index words per sigma_k
    and per rotation; the reference for the one-pass version."""
    sigmas = [eval_sigma_matrices(t, k) for k in range(1, t.n + 1)]
    invariant = True
    for r in range(1, t.n):
        rot = rotated(t, r)
        for k in range(1, t.n + 1):
            if eval_sigma_matrices(rot, k) != sigmas[k - 1]:
                invariant = False
                break
        if not invariant:
            break
    commuting = all(mat_mul(s, m) == mat_mul(m, s)
                    for s in sigmas for m in t.mats)
    return invariant, commuting


def test_check_c12_matches_word_by_word_reference():
    rng = random.Random(12)
    seen = set()
    for _ in range(2000):
        family = rng.choice(FAMILIES)
        t = random_tuple(family, rng.randint(2, 4), rng.randint(2, 3), rng)
        got = check_c12(t)
        assert got == _c12_word_by_word(t), t
        seen.add(got)
    assert seen == {(True, True), (False, False)}


@pytest.mark.parametrize("n", range(1, 6))
def test_check_c12_matches_reference_at_every_size(n):
    """n = 1..5 and dims 2..4 for every family, with the invariant
    tuples of the commuting family among them: rotation r is read off a
    suffix of n - r matrices and a prefix of r, and every such split up
    to n = 5 occurs."""
    rng = random.Random(100 + n)
    seen = set()
    for family in FAMILIES:
        for dim in range(2, 5):
            for _ in range(12):
                t = random_tuple(family, n, dim, rng)
                got = check_c12(t)
                assert got == _c12_word_by_word(t), t
                seen.add((family, got))
    assert ("commuting", (True, True)) in seen
    if n > 1:
        assert ("dense", (False, False)) in seen


@pytest.mark.parametrize("r,t", FIRST_CHANGED_AT,
                         ids=[f"n{t.n}_r{r}" for r, t in FIRST_CHANGED_AT])
def test_check_c12_on_a_tuple_first_changed_by_a_late_rotation(r, t):
    sigmas = suffix_sigmas(t.mats)[0]
    changed = [s for s in range(1, t.n)
               if suffix_sigmas(rotated(t, s).mats)[0] != sigmas]
    assert changed[0] == r
    assert check_c12(t) == _c12_word_by_word(t) == (False, False)


def _diag(*v):
    return tuple(tuple(x if i == j else 0 for j, x in enumerate(v))
                 for i in range(len(v)))


INVARIANT_N5 = from_mats((_diag(1, 2, 3), _diag(-1, 0, 2), _diag(3, 3, 1),
                          _diag(2, -2, 0), _diag(0, 1, -3)))


@pytest.mark.parametrize("t,stays", [
    (CANDIDATE, set()),
    (CANDIDATE_N4, set()),
    # a diagonal entry moved keeps the tuple diagonal, so commuting
    (INVARIANT_N5, {(0, 0), (1, 1), (2, 2)}),
], ids=["candidate", "candidate_n4", "diagonal_n5"])
def test_check_c12_sees_one_perturbed_entry_of_m3(t, stays):
    """An invariant tuple with one entry of M_3 moved by one fails both
    verdicts, as the word-by-word reference says, unless the move keeps
    it in an invariant family.  No pair of either candidate commutes, so
    a prefix product taken in the wrong order changes some rotation."""
    assert check_c12(t) == _c12_word_by_word(t) == (True, True)
    for i, j in itertools.product(range(t.dim), repeat=2):
        m3 = [list(row) for row in t.mats[2]]
        m3[i][j] += 1
        mats = list(t.mats)
        mats[2] = m3
        bad = from_mats(mats)
        want = (True, True) if (i, j) in stays else (False, False)
        assert check_c12(bad) == _c12_word_by_word(bad) == want, (i, j)


def _counting_mat_mul(monkeypatch) -> list:
    calls = []
    mul = matmodel.mat_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(matmodel, "mat_mul", counted)
    return calls


def test_check_c12_product_count(monkeypatch):
    """An invariant n=4 tuple: 6 products for the suffix stages, 3 + 5 + 5
    for its 3 rotations ((4 - r) r for the coefficients of rotation r,
    r - 1 to grow its prefix), 32 for the commuting verdict."""
    t = from_mats(INVARIANT_N5.mats[:4])
    calls = _counting_mat_mul(monkeypatch)
    assert check_c12(t) == (True, True)
    assert len(calls) == 6 + 13 + 32 == 51


@pytest.mark.parametrize("n", range(1, 7))
def test_c12_products_counts_an_invariant_tuple(monkeypatch, n):
    """The estimate behind the search's refusal is the count check_c12
    makes on an invariant tuple, its most expensive kind."""
    t = random_tuple("commuting", n, 2, random.Random(n))
    calls = _counting_mat_mul(monkeypatch)
    assert check_c12(t) == (True, True)
    assert len(calls) == matmodel._c12_products(n)


def test_check_c12_commuting_family():
    rng = random.Random(3)
    for _ in range(20):
        assert check_c12(random_tuple("commuting", 3, 3, rng)) == (True, True)


def test_check_c12_generic_dense():
    rng = random.Random(4)
    for _ in range(20):
        assert check_c12(random_tuple("dense", 3, 2, rng)) == (False, False)


def test_check_c12_agreement_across_families():
    # the assert inside check_c12 is the property; just exercise it
    rng = random.Random(6)
    for family in FAMILIES:
        for _ in range(50):
            inv, comm = check_c12(random_tuple(family, 3, 3, rng))
            assert inv == comm


def test_frozen_candidate_tuple():
    assert check_c12(CANDIDATE) == (True, True)
    summary, record = examine_tuple(CANDIDATE, index=7)
    assert summary == {"relations_hold": True, "noncommuting": True}
    assert record["index"] == 7
    assert record["noncommuting_pairs"] == [[1, 2], [1, 3], [2, 3]]
    assert len(record["products"]) == 9
    assert all(p["zero"] and p["rank"] == 0 and p["singular"]
               for p in record["products"])
    assert record["zero_products"] == 9


def test_examine_commuting_tuple_is_filtered():
    t = random_tuple("commuting", 3, 2, random.Random(1))
    summary, record = examine_tuple(t)
    assert summary["relations_hold"] and not summary["noncommuting"]
    assert record is None


def test_conj_cyclic_structure():
    dim = 4
    u = cyclic_permutation_matrix(dim)
    uinv = tuple(zip(*u))
    assert mat_mul(u, uinv) == identity_matrix(dim)
    t = random_tuple("conj-cyclic", 3, dim, random.Random(8))
    for i in range(2):
        assert t.mats[i + 1] == mat_mul(uinv, mat_mul(t.mats[i], u))


def test_block_triangular_structure():
    t = random_tuple("block-triangular", 3, 5, random.Random(8))
    s = 5 // 2
    for m in t.mats:
        for i in range(s, 5):
            for j in range(s):
                assert m[i][j] == 0
        for i in range(s):
            for j in range(s):
                if i != j:
                    assert m[i][j] == 0


def test_mat_rank():
    assert mat_rank(identity_matrix(4)) == 4
    assert mat_rank(((0, 0), (0, 0))) == 0
    assert mat_rank(((1, 2), (2, 4))) == 1
    assert mat_rank(((1, 2, 3), (4, 5, 6), (5, 7, 9))) == 2
    assert mat_rank(((Fraction(1, 2), 1), (1, 2))) == 1
    assert mat_rank(((Fraction(1, 2), 1), (1, 3))) == 2


def _fraction_rank(m):
    """Reference rank: forward elimination on Fraction rows."""
    rows = [[Fraction(x) for x in row] for row in m]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / lead
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def test_mat_rank_matches_fraction_elimination():
    rng = random.Random(31)
    ranks = set()
    for _ in range(400):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
        m = []
        for _ in range(nrows):
            pick = rng.random()
            if pick < 0.15:
                row = [0] * ncols
            elif pick < 0.35 and len(m) >= 2:
                # a rational combination of two earlier rows
                a, b = rng.sample(m, 2)
                f = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                row = [x + f * y for x, y in zip(a, b)]
            else:
                row = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(ncols)]
            m.append(tuple(row))
        expected = _fraction_rank(m)
        assert mat_rank(tuple(m)) == expected, m
        ranks.add((nrows, ncols, expected))
    assert any(r < min(nr, nc) for nr, nc, r in ranks)
    assert any(nr != nc for nr, nc, _ in ranks)


def _rowspace_rank(m):
    """Reference rank: linalg's echelon form on the cleared rows, the
    route mat_rank took before it had its own elimination."""
    rows = [integral({c: x for c, x in enumerate(row) if x})[1] for row in m]
    return RowSpace(rows, len(m[0])).rank


def test_mat_rank_matches_rowspace():
    rng = random.Random(47)
    seen = set()
    for _ in range(600):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rational = rng.random() < 0.5
        m = []
        for _ in range(nrows):
            if len(m) >= 2 and rng.random() < 0.3:
                a, b = rng.sample(m, 2)
                f = (Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                     if rational else rng.randint(-3, 3))
                row = [x + f * y for x, y in zip(a, b)]
            elif rational:
                row = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(ncols)]
            else:
                row = [rng.randint(-5, 5) for _ in range(ncols)]
            m.append(tuple(row))
        rank = mat_rank(tuple(m))
        assert rank == _rowspace_rank(m), m
        seen.add((rational, rank < min(nrows, ncols)))
    assert seen == {(r, d) for r in (True, False) for d in (True, False)}


MATMODEL_IMPORTS = """
import sys
import sigmaforge.matmodel
print("sigmaforge.linalg" in sys.modules)
"""


def test_matmodel_does_not_import_linalg():
    """The matrix route shares no code with linalg's elimination."""
    src = str(Path(matmodel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", MATMODEL_IMPORTS],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def _triple_loop_product(a, b):
    rows = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for k in range(len(b)):
                total = total + a[i][k] * b[k][j]
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def test_mat_mul_matches_triple_loop_in_value_and_type():
    rng = random.Random(53)
    kinds = set()
    for _ in range(300):
        p, q, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        entries = [lambda: rng.randint(-4, 4),
                   lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))]
        fa, fb = rng.choice(entries), rng.choice(entries)
        a = tuple(tuple(fa() for _ in range(q)) for _ in range(p))
        b = tuple(tuple(fb() for _ in range(r)) for _ in range(q))
        got, want = mat_mul(a, b), _triple_loop_product(a, b)
        assert got == want
        got_types = [type(x) for row in got for x in row]
        assert got_types == [type(x) for row in want for x in row]
        assert all(type(row) is tuple for row in got) and type(got) is tuple
        kinds.update(got_types)
    assert kinds == {int, Fraction}


@pytest.mark.parametrize("kernel", [mat_mul, mat_add, mat_sub],
                         ids=["mul", "add", "sub"])
def test_kernel_keeps_no_block_per_call(kernel):
    """tuple() of a generator, a map or a zip shrinks a fresh 10-slot
    tuple, so results that die pile up on CPython's per-size tuple free
    lists, thousands of blocks per thousand calls; the kernels build
    every tuple from a list and keep none.  A full collection empties
    those free lists, so none may run while counting (see
    tests/test_ring.py::test_integral_keeps_no_block_per_call)."""
    rng = random.Random(61)
    pairs = []
    for _ in range(1000):
        dim = rng.randint(2, 4)
        a, b = (tuple(tuple(rng.randint(-9, 9) for _ in range(dim))
                      for _ in range(dim)) for _ in range(2))
        pairs.append((a, b))
    for a, b in pairs[:20]:
        kernel(a, b)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for a, b in pairs:
            kernel(a, b)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown <= 100


def _examine_exhaustively(t, index):
    """examine_tuple with triple-loop products and ranks by Fraction
    elimination; the reference for the product kernel and mat_rank."""
    invariant, commuting = check_c12(t)
    comms = {}
    for i, j in itertools.combinations(range(t.n), 2):
        a, b = t.mats[i], t.mats[j]
        c = tuple(tuple(x - y for x, y in zip(ra, rb))
                  for ra, rb in zip(_triple_loop_product(a, b),
                                    _triple_loop_product(b, a)))
        if any(x for row in c for x in row):
            comms[(i + 1, j + 1)] = c
    summary = {"relations_hold": invariant and commuting,
               "noncommuting": bool(comms)}
    if not (summary["relations_hold"] and comms):
        return summary, None
    products = []
    for left, right in itertools.product(comms, repeat=2):
        prod = _triple_loop_product(comms[left], comms[right])
        zero = not any(x for row in prod for x in row)
        rank = _fraction_rank(prod)
        products.append({"left": list(left), "right": list(right),
                         "zero": zero, "rank": rank,
                         "singular": rank < t.dim})
    return summary, {
        "index": index,
        "mats": [[[str(x) for x in row] for row in m] for m in t.mats],
        "noncommuting_pairs": [list(p) for p in comms],
        "products": products,
        "zero_products": sum(p["zero"] for p in products),
        "singular_products": sum(p["singular"] for p in products),
    }


def test_examine_tuple_matches_exhaustive_scan():
    rng = random.Random(59)
    cases = [(random_tuple(rng.choice(FAMILIES), rng.randint(3, 4),
                           rng.randint(2, 4), rng), i) for i in range(2000)]
    # the search's candidate at seed 0, dim 2, index 464 (README)
    block_rng = random.Random(0)
    drawn = [random_tuple("block-triangular", 3, 2, block_rng)
             for _ in range(465)]
    cases += [(drawn[464], 464), (CANDIDATE, 7)]
    seen = set()
    for t, i in cases:
        got, want = examine_tuple(t, i), _examine_exhaustively(t, i)
        assert got == want and json.dumps(got) == json.dumps(want), (t, i)
        seen.add((t.n, t.dim, got[0]["relations_hold"],
                  got[0]["noncommuting"], got[1] is not None))
    assert {(n, d) for n, d, *_ in seen} == {
        (n, d) for n in (3, 4) for d in (2, 3, 4)}
    assert {v[2:] for v in seen} == {
        (True, False, False), (True, True, True), (False, True, False)}
    assert examine_tuple(drawn[464], 464)[1]["index"] == 464


def test_examine_tuple_product_count(monkeypatch):
    """A non-invariant dense n=4 tuple whose first pair does not
    commute: check_c12 stops at the first rotation's first differing
    coefficient and the first failed comparison, and the scan then makes one commutator, 2 products, for
    the first pair only: a tuple that fails the relations is never a
    candidate, so its scan ends at the first nonzero commutator."""
    t = from_mats((
        ((1, 2), (0, 1)), ((1, 0), (3, 1)),
        ((2, -1), (1, 0)), ((0, 1), (-2, 3))))
    calls = _counting_mat_mul(monkeypatch)
    assert check_c12(t) == (False, False)
    c12 = len(calls)
    calls.clear()
    assert examine_tuple(t) == (
        {"relations_hold": False, "noncommuting": True}, None)
    assert len(calls) == c12 + 2
    # the suffix stages, 6; the first rotation's prefix is M_1 and its
    # sigma_1 costs no product, so its sigma_2 = S_1[2] + S_1[1] M_1,
    # 1 product, is the first coefficient that differs; the first
    # sigma_1 . M_1 comparison already fails
    assert c12 == 6 + 1 + 2


def test_commutator_of_commuting_is_zero():
    t = random_tuple("commuting", 3, 3, random.Random(2))
    assert is_zero_matrix(mat_commutator(t.mats[0], t.mats[1]))


def test_matrix_tuple_validation():
    with pytest.raises(ValueError):
        MatrixTuple(2, 2, (((1, 0), (0, 1)),))
    with pytest.raises(ValueError):
        from_mats((((1, 0), (0, 1)), ((1,), (0,))))
    with pytest.raises(ValueError):
        from_mats((((1, 0),),))
    with pytest.raises(ValueError):
        from_mats((((0.5, 0), (0, 1)),))


def test_matrix_tuple_is_an_immutable_value():
    t = from_mats(CANDIDATE.mats)
    assert t == CANDIDATE and hash(t) == hash(CANDIDATE)
    assert t != rotated(t) and t != CANDIDATE.mats
    assert repr(t).startswith("MatrixTuple(n=3, dim=2, mats=(((-2, -2),")
    with pytest.raises(AttributeError):
        t.n = 4
    # search workers receive tuples pickled
    assert pickle.loads(pickle.dumps(t)) == t


def test_rotation():
    t = random_tuple("dense", 3, 2, random.Random(3))
    assert rotated(t, 3).mats == t.mats
    assert rotated(t, 1).mats == (t.mats[1], t.mats[2], t.mats[0])


def test_search_commuting_family_has_no_candidates():
    rep = zero_divisor_search(
        {"n": 3, "dim": 3, "family": "commuting", "seed": 5, "budget": 40})
    assert rep["examined"] == 40
    assert rep["counts"]["noncommuting_pair"] == 0
    assert rep["counts"]["candidates"] == 0
    assert rep["candidates"] == []
    # every run examines exactly its budget, so no flag reports that
    assert "budget_exhausted" not in rep


def test_search_zero_budget_gives_empty_report():
    rep = zero_divisor_search(
        {"n": 3, "dim": 2, "family": "dense", "seed": 0, "budget": 0})
    assert rep["examined"] == 0
    assert rep["candidates"] == []


def test_search_rejects_bad_params():
    with pytest.raises(ValueError):
        zero_divisor_search(
            {"n": 3, "dim": 2, "family": "circulant", "seed": 0, "budget": 1})
    with pytest.raises(ValueError):
        zero_divisor_search(
            {"n": 3, "dim": 1, "family": "block-triangular",
             "seed": 0, "budget": 1})
    with pytest.raises(ValueError):
        zero_divisor_search(
            {"n": 3, "dim": 2, "family": "dense", "seed": 0, "budget": -1})


def test_search_refuses_an_over_budget_run_before_drawing(monkeypatch):
    """budget times the products of an invariant tuple's check against
    ring.MAX_TERMS: 5 tuples of 80 matrices take 521805, 6 would take
    626166."""
    def no_draw(*args):
        raise AssertionError("a tuple was drawn")

    monkeypatch.setattr(matmodel, "random_tuple", no_draw)
    assert matmodel._c12_products(80) == 104361
    with pytest.raises(ValueError, match="up to 626166 matrix products"):
        zero_divisor_search({"n": 80, "dim": 2, "family": "commuting",
                             "seed": 0, "budget": 6})
    rep = zero_divisor_search({"n": 80, "dim": 2, "family": "commuting",
                               "seed": 0, "budget": 0})
    assert rep["examined"] == 0


def test_search_block_family_finds_frozen_candidate():
    rep = zero_divisor_search(
        {"n": 3, "dim": 2, "family": "block-triangular",
         "seed": 0, "budget": 2000})
    assert rep["counts"] == {"relations_hold": 30,
                             "noncommuting_pair": 1971,
                             "candidates": 1}
    cand = rep["candidates"][0]
    assert cand["index"] == 464
    # in a two-block model every product of commutators vanishes
    assert cand["zero_products"] == len(cand["products"]) == 9


def test_search_is_deterministic():
    params = {"n": 3, "dim": 2, "family": "dense", "seed": 17, "budget": 60}
    a = zero_divisor_search(params)
    b = zero_divisor_search(params)
    assert json.dumps(a) == json.dumps(b)


C12_UNDER_O = """
from sigmaforge import matmodel
t = matmodel.MatrixTuple(
    3, 2, [((1, 0), (0, 2)), ((3, 0), (0, 4)), ((5, 0), (0, 6))])
# the tuple itself gets identity sigmas (which commute with everything),
# every shorter suffix zero sigmas, so the first rotation's sigma_1 is
# 0 + M_1: the two verdicts must disagree
eye, zero = ((1, 0), (0, 1)), ((0, 0), (0, 0))
matmodel.suffix_sigmas = lambda mats: (
    [[eye] * len(mats)] + [[zero] * (len(mats) - i)
                           for i in range(1, len(mats))])
try:
    matmodel.check_c12(t)
except AssertionError:
    print("raised", __debug__)
else:
    print("returned", __debug__)
"""


def test_check_c12_disagreement_raises_under_python_O():
    src = str(Path(matmodel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", C12_UNDER_O],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["raised", "False"]
