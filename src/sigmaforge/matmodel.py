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
symmetric functions. suffix_sigmas builds E(y) suffix by suffix with
sigma_k(M_i..M_n) = M_i sigma_{k-1}(M_{i+1}..M_n) + sigma_k(M_{i+1}..M_n),
in n(n-1)/2 matrix products for all k together: 6 at n=4, against 17
for the sums over index words of the definition, which the tests keep
as the reference. Rotation r of the tuple has the product
S_r(y) P_r(y), the suffix series from M_{r+1} times the prefix series
(I + M_1 y)...(I + M_r y), so check_c12 reads every rotation off the
suffix stages and one growing prefix: (n - r) r + r - 1 products for
rotation r, 13 at n=4 for all three rotations, against 3 * 6 = 18
when each rotation is evaluated from scratch.

All arithmetic is exact: entries are ints or Fractions, singularity is
decided by exact rank. mat_rank is fraction-free (Bareiss) elimination
of its own, so no verdict of this module goes through linalg.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import namedtuple
from fractions import Fraction

from .ring import MAX_TERMS, integral

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


def suffix_sigmas(mats) -> list:
    """The suffix stages of E(y) = (I + M_1 y)...(I + M_n y) for the
    ordered square matrices ``mats``: entry i is [sigma_1, ...,
    sigma_{n-i}] of the suffix M_{i+1}..M_n, the coefficients of
    y^1..y^{n-i} in (I + M_{i+1} y)...(I + M_n y). Entry 0 holds the
    sigmas of ``mats``.

    Built by the suffix recursion of the module docstring, where
    sigma_0 = I and sigma_k = 0 on a suffix shorter than k. Those two
    cases take an addition and a bare product, so prepending M_i to a
    suffix of length m costs m products. ``mats``, such as
    ``MatrixTuple.mats``, is not validated.
    """
    *rest, last = mats
    stages = [[last]]
    for m in reversed(rest):
        s = stages[-1]
        stages.append([mat_add(m, s[0])]
                      + [mat_add(mat_mul(m, a), b) for a, b in zip(s, s[1:])]
                      + [mat_mul(m, s[-1])])
    stages.reverse()
    return stages


def _c12_products(n: int) -> int:
    """The matrix products check_c12 makes on an invariant tuple of n
    matrices, its most expensive kind: n(n-1)/2 for the suffix stages,
    (n - r) r + r - 1 for rotation r, (n^3 - n)/6 + (n-1)(n-2)/2 over
    all r, and 2n^2 for the commuting verdict."""
    return (n - 1) ** 2 + (n ** 3 - n) // 6 + 2 * n * n


def check_c12(t: MatrixTuple) -> tuple:
    """(invariant, commuting) for one tuple; the verdicts must agree.

    invariant: every sigma_k equals its value on every circular shift
    of the tuple. commuting: every sigma_k commutes with every matrix
    of the tuple. Disagreement would falsify the equivalence, so it is
    an assertion failure rather than a return value.

    The sigmas are entry 0 of suffix_sigmas, in n(n-1)/2 products.
    Rotation r, M_{r+1}..M_n M_1..M_r, has E_r(y) = S_r(y) P_r(y) with
    S_r the suffix stage r and P_r(y) = (I + M_1 y)...(I + M_r y), grown
    from P_{r-1} in r - 1 products. Its y^k coefficient is
    sum_{a+b=k} S_r[a] P_r[b] with S_r[0] = P_r[0] = I, which makes
    (n - r) r products over all k; the rotations are checked in turn,
    each for k = 1, 2, ... up to its first coefficient that differs
    from sigma_k. The commuting verdict takes 2n^2 products more. On an
    invariant tuple with n=4 that is 6 + 13 + 32 = 51 products, against
    4 * 6 + 32 = 56 with every rotation evaluated from scratch.
    """
    mats = t.mats
    n = t.n
    stages = suffix_sigmas(mats)
    sigmas = stages[0]
    invariant = True
    prefix = []  # y^1..y^r of P_r(y)
    for r in range(1, n):
        m = mats[r - 1]
        if prefix:
            prefix = ([mat_add(prefix[0], m)]
                      + [mat_add(b, mat_mul(a, m))
                         for a, b in zip(prefix, prefix[1:])]
                      + [mat_mul(prefix[-1], m)])
        else:
            prefix = [m]
        suffix = stages[r]  # y^1..y^(n-r) of S_r(y)
        for k in range(1, n + 1):
            terms = [mat_mul(suffix[a - 1], prefix[k - a - 1])
                     for a in range(max(1, k - r), min(k - 1, n - r) + 1)]
            if k <= n - r:
                terms.append(suffix[k - 1])
            if k <= r:
                terms.append(prefix[k - 1])
            if functools.reduce(mat_add, terms) != sigmas[k - 1]:
                invariant = False
                break
        if not invariant:
            break
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
    A search whose relation checks could take more than ``MAX_TERMS``
    matrix products (budget times those of an invariant tuple) is
    refused with ValueError before any tuple is drawn.
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
    cost = budget * _c12_products(n)
    if cost > MAX_TERMS:
        raise ValueError(
            f"{budget} tuples of {n} matrices take up to {cost} matrix "
            f"products to check, more than {MAX_TERMS}; refusing to search")
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
