import math
import random
from fractions import Fraction

import pytest

from sigmaforge import ideal
from sigmaforge.linalg import RowSpace, rank_of
from sigmaforge.ring import Polynomial


def naive_rref(rows, ncols):
    """Independent oracle: plain Fraction RREF with leading ones."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def to_rational(space):
    out = []
    for row, p in zip(space.rows, space.pivots):
        lead = Fraction(row[p])
        out.append([Fraction(x) / lead for x in row])
    return out


def random_matrix(rng, nrows, ncols, density=0.5, lo=-6, hi=6):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


class TestAgainstFractionOracle:
    def test_matches_oracle_on_random_matrices(self):
        rng = random.Random(5)
        for trial in range(40):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            mat = random_matrix(rng, nrows, ncols)
            space = RowSpace(mat, ncols)
            want, piv = naive_rref(mat, ncols)
            assert space.pivots == tuple(piv), f"trial {trial}"
            assert to_rational(space) == want, f"trial {trial}"

    def test_rows_are_content_free_integers(self):
        space = RowSpace([[2, 4, 6], [0, 10, 5]], 3)
        for row in space.rows:
            assert all(isinstance(x, int) for x in row)
        assert space.rows == ((1, 0, 2), (0, 2, 1))


class TestCanonicality:
    def test_order_and_scaling_invariance(self):
        rng = random.Random(17)
        for _ in range(25):
            mat = random_matrix(rng, 6, 7)
            base = RowSpace(mat, 7)
            shuffled = mat[:]
            rng.shuffle(shuffled)
            factors = [rng.choice([-3, -1, 2, 5]) for _ in shuffled]
            scaled = [[x * f for x in row]
                      for f, row in zip(factors, shuffled)]
            combo = scaled + [[a + b for a, b in zip(mat[0], mat[1])]]
            assert RowSpace(shuffled, 7) == base
            assert RowSpace(scaled, 7) == base
            assert RowSpace(combo, 7) == base

    def test_duplicates_do_not_matter(self):
        mat = [[1, 2, 0], [1, 2, 0], [-2, -4, 0], [0, 0, 3]]
        assert RowSpace(mat, 3).rank == 2

    def test_sparse_and_dense_inputs_agree(self):
        dense = [[0, 3, 0, -1], [2, 0, 0, 0]]
        sparse = [{1: 3, 3: -1}, {0: 2}]
        assert RowSpace(dense, 4) == RowSpace(sparse, 4)

    def test_empty(self):
        space = RowSpace([], 4)
        assert space.rank == 0
        assert space.rows == ()
        assert space.contains([0, 0, 0, 0])
        assert not space.contains([1, 0, 0, 0])


class TestReduce:
    def test_membership_of_combinations(self):
        rng = random.Random(29)
        for _ in range(20):
            mat = random_matrix(rng, 5, 9, density=0.7)
            space = RowSpace(mat, 9)
            coeffs = [rng.randint(-4, 4) for _ in mat]
            vec = [sum(c * row[k] for c, row in zip(coeffs, mat))
                   for k in range(9)]
            assert space.contains(vec)
            outside = vec[:]
            free = [c for c in range(9) if c not in space.pivots]
            if free and space.rank < 9:
                outside[free[0]] += 1
                # adding a unit at a free column leaves the span exactly
                # when that unit vector is itself in the span; rebuild
                if RowSpace(mat + [outside], 9).rank > space.rank:
                    assert not space.contains(outside)

    def test_residual_semantics(self):
        mat = [[1, 2, 0], [0, 0, 5]]
        space = RowSpace(mat, 3)
        residual, alpha = space.reduce([3, 1, 7])
        assert alpha >= 1
        # alpha*vec - residual must lie in the span
        diff = [alpha * v - r for v, r in zip([3, 1, 7], residual)]
        assert space.contains(diff)
        assert residual[0] == 0  # pivot column cleared

    def test_combination_solves_small_system(self):
        vecs = [[1, 0, 1], [0, 2, 1]]
        space = RowSpace(vecs, 3)
        target = [3, -2, 2]  # 3*v0 - 1*v1
        den, ks = space.combination(target)
        assert {i: Fraction(k, den) for i, k in ks.items()} == \
            {0: Fraction(3), 1: Fraction(-1)}

    def test_combination_none_for_nonmembers(self):
        space = RowSpace([[0, 0, 1], [0, 0, 4], [0, 0, 0]], 3)
        # the zero row and the duplicate record nothing
        assert space.rank == len(space._records) == 1
        assert space.combination([0, 1, 0]) is None
        assert space.combination({0: 2, 2: 1}) is None
        assert RowSpace([], 3).combination([0, 0, 1]) is None
        # the zero vector is the empty combination of any row set
        assert space.combination([0, 0, 0]) == (1, {})
        assert RowSpace([], 3).combination({}) == (1, {})


def recombined(rows, ncols, ks):
    """sum k * rows[i], dense, for rows given dense or as dicts."""
    out = [0] * ncols
    for i, k in ks.items():
        r = rows[i]
        for c, x in (r.items() if isinstance(r, dict) else enumerate(r)):
            out[c] += k * x
    return out


def assert_combination(space, rows, vec):
    """combination(vec) is None exactly for non-members, and otherwise
    den*vec is the integer recombination of the input rows."""
    got = space.combination(vec)
    dense = vec if isinstance(vec, list) else \
        [vec.get(c, 0) for c in range(space.ncols)]
    if not space.contains(vec):
        assert got is None
        return
    den, ks = got
    assert den > 0
    assert all(k and 0 <= i < len(rows) for i, k in ks.items())
    assert recombined(rows, space.ncols, ks) == [den * x for x in dense]


class TestCombination:
    def test_random_matrices_with_duplicate_scaled_and_zero_rows(self):
        rng = random.Random(13)
        for _ in range(300):
            ncols = rng.randint(1, 10)
            rows = random_matrix(rng, rng.randint(0, 9), ncols,
                                 density=rng.choice([0.2, 0.5, 0.9]),
                                 lo=-rng.choice([1, 4, 12]), hi=12)
            rows += [[0] * ncols for _ in range(rng.randint(0, 2))]
            rows += [list(r) for r in rng.sample(rows, len(rows) // 3)]
            rows += [[rng.choice([-6, -2, 3, 10]) * x for x in r]
                     for r in rows[:2]]
            rng.shuffle(rows)
            space = RowSpace(rows, ncols)
            for _ in range(4):
                ks = {i: rng.randint(-5, 5) for i in range(len(rows))}
                assert_combination(space, rows,
                                   recombined(rows, ncols, ks))
                outside = [rng.randint(-3, 3) for _ in range(ncols)]
                assert_combination(space, rows, outside)

    def test_large_contents_and_pivots_rescale(self):
        # rows whose contents and pivots share no factors, so unwinding
        # meets divisors that do not divide the coefficients
        rows = [[6, 10, 15, 0], [4, 0, 9, 35], [0, 14, 21, 10],
                [12, 20, 30, 0], [0, 0, 7, 11]]
        space = RowSpace(rows, 4)
        for ks in ({0: 1}, {1: 1}, {2: 1}, {4: 1}, {0: 3, 1: -2, 4: 5},
                   {1: 7, 2: 11}):
            assert_combination(space, rows, recombined(rows, 4, ks))


def test_rank_of():
    assert rank_of([[1, 1], [2, 2], [0, 1]], 2) == 2


# -- the dense kernel, kept as the oracle of the sparse one -------------


def _dense_content_normalize(row, start=0):
    """Divide by the gcd and make the first nonzero entry positive."""
    g = 0
    first = None
    for k in range(start, len(row)):
        x = row[k]
        if x:
            if first is None:
                first = x
            g = math.gcd(g, x)
            if g == 1 and first > 0:
                return row
    if first is None:
        return row
    if first < 0:
        g = -g
    if g not in (0, 1):
        for k in range(start, len(row)):
            row[k] //= g
    return row


class DenseRowSpace:
    """The dense integer elimination RowSpace used before rows became
    sparse: same insertion order, same gcd scaling, every column
    visited."""

    def __init__(self, rows, ncols):
        self.ncols = ncols
        dense = []
        seen = set()
        for r in rows:
            row = self._densify(r)
            key = tuple(_dense_content_normalize(list(row)))
            if any(key) and key not in seen:
                seen.add(key)
                dense.append(list(key))
        self._rows = []
        self._pivots = []
        self._pivot_of_col = {}
        for row in sorted(dense):
            self._insert(row)
        self._back_substitute()
        order = sorted(range(len(self._rows)),
                       key=lambda idx: self._pivots[idx])
        self._rows = [self._rows[idx] for idx in order]
        self._pivots = [self._pivots[idx] for idx in order]
        self._pivot_of_col = {c: i for i, c in enumerate(self._pivots)}

    def _densify(self, r):
        if isinstance(r, dict):
            row = [0] * self.ncols
            for c, v in r.items():
                row[c] = int(v)
            return row
        return [int(v) for v in r]

    def _leading(self, row, start=0):
        for k in range(start, len(row)):
            if row[k]:
                return k
        return None

    def _insert(self, row):
        j = self._leading(row)
        while j is not None:
            idx = self._pivot_of_col.get(j)
            if idx is None:
                _dense_content_normalize(row, j)
                self._pivots.append(j)
                self._rows.append(row)
                self._pivot_of_col[j] = len(self._rows) - 1
                return
            self._eliminate(row, self._rows[idx], j)
            j = self._leading(row, j + 1)

    @staticmethod
    def _eliminate(row, piv, j):
        L = piv[j]
        f = row[j]
        g = math.gcd(L, f)
        a = L // g
        b = f // g
        if a == 1:
            for k in range(j, len(row)):
                pk = piv[k]
                if pk:
                    row[k] -= b * pk
        else:
            for k in range(j):
                row[k] *= a
            for k in range(j, len(row)):
                row[k] = a * row[k] - b * piv[k]

    def _back_substitute(self):
        order = sorted(range(len(self._rows)), key=lambda i: self._pivots[i])
        for pos in range(len(order) - 2, -1, -1):
            idx = order[pos]
            row = self._rows[idx]
            for later in order[pos + 1:]:
                j = self._pivots[later]
                if row[j]:
                    self._eliminate(row, self._rows[later], j)
            _dense_content_normalize(row)

    @property
    def pivots(self):
        return tuple(self._pivots)

    @property
    def rows(self):
        return tuple(tuple(r) for r in self._rows)

    def reduce(self, vec):
        row = self._densify(vec)
        alpha = 1
        j = self._leading(row)
        while j is not None:
            idx = self._pivot_of_col.get(j)
            if idx is None:
                j = self._leading(row, j + 1)
                continue
            piv = self._rows[idx]
            L = piv[j]
            f = row[j]
            g = math.gcd(L, f)
            a = L // g
            b = f // g
            if a != 1:
                alpha *= a
                for k in range(len(row)):
                    row[k] *= a
            for k in range(j, len(row)):
                pk = piv[k]
                if pk:
                    row[k] -= b * pk
            j = self._leading(row, j + 1)
        return row, alpha


def assert_matches_dense(rows, ncols, probes):
    sparse = RowSpace(rows, ncols)
    dense = DenseRowSpace(rows, ncols)
    assert sparse.pivots == dense.pivots
    assert sparse.rows == dense.rows
    for vec in probes:
        residual, alpha = dense.reduce(vec)
        assert sparse.reduce(vec) == (residual, alpha)
        assert sparse.contains(vec) == (not any(residual))
        assert_combination(sparse, rows, vec)
    return sparse


def random_probes(rng, rows, ncols, count=6):
    """Dense and dict vectors, half of them combinations of the rows."""
    probes = []
    for t in range(count):
        vec = [0] * ncols
        if t % 2 and rows:
            for r in rng.sample(rows, min(3, len(rows))):
                c = rng.randint(-3, 3)
                items = r.items() if isinstance(r, dict) else enumerate(r)
                for k, x in items:
                    vec[k] += c * x
        else:
            for k in rng.sample(range(ncols), rng.randint(1, ncols)):
                vec[k] = rng.randint(-7, 7)
        probes.append(vec if t % 3 else {k: x for k, x in enumerate(vec)
                                         if x})
    return probes


def test_sparse_kernel_matches_dense_on_random_matrices():
    rng = random.Random(41)
    for _ in range(300):
        ncols = rng.randint(1, 12)
        rows = random_matrix(rng, rng.randint(0, 10), ncols,
                             density=rng.choice([0.15, 0.4, 0.8]),
                             lo=-rng.choice([1, 3, 9]), hi=9)
        rows += [[0] * ncols for _ in range(rng.randint(0, 2))]  # zero rows
        rows += [list(r) for r in rng.sample(rows, len(rows) // 3)]
        rows += [[2 * x for x in r] for r in rows[:1]]  # scaled duplicate
        rng.shuffle(rows)
        rows = [{k: x for k, x in enumerate(r) if x} if rng.random() < 0.5
                else r for r in rows]
        assert_matches_dense(rows, ncols, random_probes(rng, rows, ncols))


def _default_slices():
    for n, bound in ideal.DEFAULT_DEGREE_BOUND.items():
        for d in range(2, bound + 1):
            for family in (ideal.COMMUTATORS, ideal.DIFFERENCES):
                yield family, n, d, False
    for n, bound in ((3, 5), (4, 4)):  # the slices member_stream certifies
        for d in range(2, bound + 1):
            yield ideal.COMMUTATORS, n, d, True


def assert_certifies_every_spanning_row(sl):
    """One certificate per spanning row u*g*v, rebuilt with Polynomial
    products, independently of the slice's own integer check."""
    n = sl.n
    gens = sl.gset.gens
    t = 0
    while True:
        try:
            u, gi, v = sl.row_source(t)
        except IndexError:
            break
        p = (Polynomial.from_monomial(u, n) * gens[gi]
             * Polynomial.from_monomial(v, n))
        cert = sl.certificate_for(p)
        total = Polynomial.zero(n)
        for c, cu, cgi, cv in cert:
            total = total + (Polynomial.from_monomial(cu, n) * gens[cgi]
                             * Polynomial.from_monomial(cv, n)) * c
        assert total == p, (u, gi, v)
        t += 1
    return t


@pytest.mark.parametrize("family,n,degree,certified",
                         list(_default_slices()))
def test_sparse_kernel_matches_dense_on_default_slices(
        family, n, degree, certified):
    """The canonical rows equal the dense oracle's over every spanning
    row, though the slice eliminates only some of them; on the slices
    the benchmark certifies against, every spanning row also gets a
    certificate that rebuilds in the free ring."""
    sl = ideal.DegreeSlice(ideal.generator_set(family, n), degree)
    rows = []
    while True:
        try:
            rows.append(sl.spanning_row(len(rows)))
        except IndexError:
            break
    ncols = len(sl.basis)
    rng = random.Random(n * 100 + degree)
    space = assert_matches_dense(rows, ncols, random_probes(rng, rows, ncols))
    assert sl.space == space
    if certified:
        assert assert_certifies_every_spanning_row(sl) == len(rows)
