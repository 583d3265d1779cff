"""Exact matrix models for the sigma relations.

Two entry points matter. check_c12 evaluates the invariance condition
and the commuting condition on a concrete tuple of rational matrices
and asserts that the two verdicts agree. zero_divisor_search draws
seeded tuples from structured families, keeps the ones that satisfy
the relations without being fully commutative, and probes products of
commutators for vanishing or singularity. A vanishing product in such
a model is recorded evidence, never a proof in either direction.

Every sigma_k of a tuple is a coefficient of one ordered product,
E(y) = (I + M_1 y)...(I + M_n y), the lambda series of noncommutative
symmetric functions. eval_sigmas builds E(y) suffix by suffix with
sigma_k(M_i..M_n) = M_i sigma_{k-1}(M_{i+1}..M_n) + sigma_k(M_{i+1}..M_n),
in n(n-1)/2 matrix products for all k together: 6 at n=4, against 17
for the sums over index words of the definition, which the tests keep
as the reference.

All arithmetic is exact: entries are ints or Fractions, singularity is
decided by exact rank. mat_rank is fraction-free (Bareiss) elimination
of its own, so no verdict of this module goes through linalg.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections import namedtuple
from fractions import Fraction

from .ring import integral

FAMILIES = ("commuting", "conj-cyclic", "block-triangular", "dense")


# The kernels build every tuple from a list.  tuple() of a generator,
# a map or a zip allocates a 10-slot tuple and shrinks it, so the
# results that die pile up on CPython's per-size tuple free lists; a
# tuple built from a list takes its slot from those lists and gives it
# back.


def mat_add(a, b):
    return tuple([tuple([*map(operator.add, ra, rb)])
                  for ra, rb in zip(a, b)])


def mat_sub(a, b):
    return tuple([tuple([*map(operator.sub, ra, rb)])
                  for ra, rb in zip(a, b)])


def mat_mul(a, b):
    """The product ab; each entry sums its products left to right, as
    sum(x * y for x, y in zip(row, col)) would, with the loop in C."""
    cols = [*zip(*b)]
    mul = operator.mul
    return tuple([tuple([sum(map(mul, row, col)) for col in cols])
                  for row in a])


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_matrix(m) -> bool:
    return all(not x for row in m for x in row)


def mat_rank(m) -> int:
    """Rank over the rationals: each row cleared of denominators, then
    fraction-free (Bareiss) elimination on the integers.

    After a pivot p, every later row r becomes
    (p[c] * r - r[c] * p) / prev with prev the pivot before p, and the
    division is exact (Bareiss 1968), so entries stay integers bounded
    by minors of the input. A column with no pivot is skipped.
    """
    rows = [list(integral(dict(enumerate(row)))[1].values()) for row in m]
    rank, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            r = rows[i]
            rows[i] = [0] * (c + 1) + [(p[c] * x - r[c] * y) // prev
                                       for x, y in zip(r[c + 1:], p[c + 1:])]
        prev = p[c]
        rank += 1
    return rank


class MatrixTuple(namedtuple("MatrixTuple", "n dim mats")):
    """n square rational matrices sharing one dimension; an immutable
    value, equal to the plain tuple (n, dim, mats).

    A named tuple, not a dataclass: importing ``dataclasses`` loads
    ``inspect``, ``ast`` and ``dis``, about 1 MB of resident memory in
    every process that imports this module.  Every constructor,
    unpickling included, goes through ``__new__``; ``_make`` and
    ``_replace`` do not, and are not used.
    """

    __slots__ = ()

    def __new__(cls, n: int, dim: int, mats: tuple):
        if n < 1:
            raise ValueError("need at least one matrix")
        if dim < 1:
            raise ValueError("matrix dimension must be positive")
        if len(mats) != n:
            raise ValueError(f"expected {n} matrices, got {len(mats)}")
        frozen = []
        for m in mats:
            rows = tuple(tuple(row) for row in m)
            if len(rows) != dim or any(len(r) != dim for r in rows):
                raise ValueError("matrices must be square of equal dimension")
            for row in rows:
                for x in row:
                    if not isinstance(x, (int, Fraction)):
                        raise ValueError(
                            f"entries must be rational, got {type(x).__name__}")
            frozen.append(rows)
        return super().__new__(cls, n, dim, tuple(frozen))


def eval_sigmas(mats) -> list:
    """[sigma_1, ..., sigma_n] of the ordered square matrices ``mats``:
    the coefficients of y^1..y^n in E(y) = (I + M_1 y)...(I + M_n y).

    Built by the suffix recursion of the module docstring, where
    sigma_0 = I and sigma_k = 0 on a suffix shorter than k. Those two
    cases take an addition and a bare product, so prepending M_i to a
    suffix of length m costs m products. ``mats``, such as
    ``MatrixTuple.mats``, is not validated.
    """
    *rest, last = mats
    sigmas = [last]
    for m in reversed(rest):
        sigmas = ([mat_add(m, sigmas[0])]
                  + [mat_add(mat_mul(m, a), b)
                     for a, b in zip(sigmas, sigmas[1:])]
                  + [mat_mul(m, sigmas[-1])])
    return sigmas


def check_c12(t: MatrixTuple) -> tuple:
    """(invariant, commuting) for one tuple; the verdicts must agree.

    invariant: every sigma_k equals its value on every circular shift
    of the tuple. commuting: every sigma_k commutes with every matrix
    of the tuple. Disagreement would falsify the equivalence, so it is
    an assertion failure rather than a return value.

    The sigmas of the tuple, then of each shift in turn until one
    differs, come from eval_sigmas as the coefficients of
    E(y) = (I + M_1 y)...(I + M_n y), built by
    sigma_k(M_i..M_n) = M_i sigma_{k-1}(M_{i+1}..M_n) + sigma_k(M_{i+1}..M_n)
    in n(n-1)/2 matrix products per tuple or shift. Summing each
    sigma_k over its index words would take
    sum_k C(n,k)(k-1) = (n-2)2^(n-1) + 1. The commuting verdict takes
    2n^2 more. On an invariant tuple with n=4 that is 4 * 6 + 32 = 56
    products, against 4 * 17 + 32 = 100 word by word.
    """
    mats = t.mats
    sigmas = eval_sigmas(mats)
    invariant = all(eval_sigmas(mats[r:] + mats[:r]) == sigmas
                    for r in range(1, t.n))
    commuting = all(mat_mul(s, m) == mat_mul(m, s)
                    for s in sigmas for m in mats)
    if invariant != commuting:
        raise AssertionError(
            f"invariant={invariant} but commuting={commuting}; "
            f"the equivalence failed on {t!r}")
    return invariant, commuting


def cyclic_permutation_matrix(dim: int) -> tuple:
    """Basis shift of order dim; row i carries a one in column i + 1."""
    return tuple(tuple(1 if j == (i + 1) % dim else 0 for j in range(dim))
                 for i in range(dim))


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> tuple:
    return tuple(tuple(rng.randint(-3, 3) for _ in range(cols))
                 for _ in range(rows))


def random_tuple(family: str, n: int, dim: int, rng: random.Random) -> MatrixTuple:
    """Draw one tuple from a named structured family.

    commuting: independent random diagonal matrices.
    conj-cyclic: M_{i+1} = U^-1 M_i U for the basis shift U.
    block-triangular: two diagonal blocks (diagonal matrices) plus a
    random coupling block; needs dim >= 2.
    dense: independent random matrices, the unstructured control.
    """
    if family == "commuting":
        mats = [tuple(tuple(rng.randint(-3, 3) if i == j else 0
                            for j in range(dim)) for i in range(dim))
                for _ in range(n)]
    elif family == "conj-cyclic":
        u = cyclic_permutation_matrix(dim)
        uinv = tuple(zip(*u))
        mats = [_rand_matrix(rng, dim, dim)]
        for _ in range(n - 1):
            mats.append(mat_mul(uinv, mat_mul(mats[-1], u)))
    elif family == "block-triangular":
        if dim < 2:
            raise ValueError("block-triangular tuples need dim >= 2")
        s = dim // 2
        mats = []
        for _ in range(n):
            top = [rng.randint(-3, 3) for _ in range(s)]
            bot = [rng.randint(-3, 3) for _ in range(dim - s)]
            link = _rand_matrix(rng, s, dim - s)
            rows = []
            for i in range(dim):
                row = []
                for j in range(dim):
                    if i < s and j < s:
                        row.append(top[i] if i == j else 0)
                    elif i < s <= j:
                        row.append(link[i][j - s])
                    elif i >= s and j >= s:
                        row.append(bot[i - s] if i == j else 0)
                    else:
                        row.append(0)
                rows.append(tuple(row))
            mats.append(tuple(rows))
    elif family == "dense":
        mats = [_rand_matrix(rng, dim, dim) for _ in range(n)]
    else:
        raise ValueError(
            f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}")
    return MatrixTuple(n, dim, tuple(mats))


def examine_tuple(t: MatrixTuple, index: int = 0):
    """Filter one tuple; returns (summary, candidate record or None).

    A tuple on which the relations fail is never a candidate, and its
    summary needs only whether some pair fails to commute, so its scan
    of the pairs stops at the first nonzero commutator.
    """
    invariant, commuting = check_c12(t)
    relations_hold = invariant and commuting
    pairs = []
    comms = {}
    for i, j in itertools.combinations(range(t.n), 2):
        c = mat_commutator(t.mats[i], t.mats[j])
        if not is_zero_matrix(c):
            pairs.append((i + 1, j + 1))
            comms[(i + 1, j + 1)] = c
            if not relations_hold:
                break
    summary = {"relations_hold": relations_hold,
               "noncommuting": bool(pairs)}
    if not (relations_hold and pairs):
        return summary, None
    products = []
    zero_count = singular_count = 0
    for left, right in itertools.product(pairs, repeat=2):
        prod = mat_mul(comms[left], comms[right])
        zero = is_zero_matrix(prod)
        rank = 0 if zero else mat_rank(prod)
        singular = rank < t.dim
        zero_count += zero
        singular_count += singular
        products.append({"left": list(left), "right": list(right),
                         "zero": zero, "rank": rank, "singular": singular})
    candidate = {
        "index": index,
        "mats": [[[str(x) for x in row] for row in m] for m in t.mats],
        "noncommuting_pairs": [list(p) for p in pairs],
        "products": products,
        "zero_products": zero_count,
        "singular_products": singular_count,
    }
    return summary, candidate


def zero_divisor_search(params) -> dict:
    """Seeded search over one family; returns a JSON-ready report.

    params carries n, dim, family, seed and budget. Candidates are the
    examined tuples on which the relations hold while at least one
    pair fails to commute; for each one, every ordered product of two
    nonzero commutators is tested for vanishing and for singularity.
    """
    n = int(params["n"])
    dim = int(params["dim"])
    family = params["family"]
    seed = int(params["seed"])
    budget = int(params["budget"])
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; choose one of {', '.join(FAMILIES)}")
    if n < 1 or dim < 1:
        raise ValueError("n and dim must be positive")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    rng = random.Random(seed)
    # examine_tuple never draws from rng: tuple i is the seed's i-th draw
    results = [examine_tuple(random_tuple(family, n, dim, rng), i)
               for i in range(budget)]
    candidates = [rec for _, rec in results if rec is not None]
    return {
        "params": {"n": n, "dim": dim, "family": family,
                   "seed": seed, "budget": budget},
        "examined": len(results),
        "counts": {
            "relations_hold": sum(1 for s, _ in results if s["relations_hold"]),
            "noncommuting_pair": sum(1 for s, _ in results if s["noncommuting"]),
            "candidates": len(candidates),
        },
        "candidates": candidates,
    }
