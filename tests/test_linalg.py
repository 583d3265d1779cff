import math
import random
from fractions import Fraction

import pytest

from sigmaforge import ideal
from sigmaforge.linalg import RowSpace
from sigmaforge.ring import Polynomial
from test_slice_rows import spanning_names


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


def densify(row, ncols):
    """The dense list of a {column: int} row."""
    out = [0] * ncols
    for c, x in row.items():
        out[c] = x
    return out


def sparsify(rows):
    """{column: int} dicts of dense rows, zero entries dropped."""
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


def to_rational(space):
    out = []
    for row, p in zip(space.rows, space.pivots):
        lead = Fraction(row[p])
        out.append([Fraction(x) / lead for x in densify(row, space.ncols)])
    return out


def random_matrix(rng, nrows, ncols, density=0.5, lo=-6, hi=6):
    """Dense rows, the oracles' input; ``sparsify`` them for RowSpace."""
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


class TestAgainstFractionOracle:
    def test_matches_oracle_on_random_matrices(self):
        rng = random.Random(5)
        for trial in range(40):
            nrows = rng.randint(1, 8)
            ncols = rng.randint(1, 8)
            mat = random_matrix(rng, nrows, ncols)
            space = RowSpace(sparsify(mat), ncols)
            want, piv = naive_rref(mat, ncols)
            assert space.pivots == tuple(piv), f"trial {trial}"
            assert to_rational(space) == want, f"trial {trial}"

    def test_rows_are_content_free_integers(self):
        space = RowSpace([{0: 2, 1: 4, 2: 6}, {1: 10, 2: 5}], 3)
        for row in space.rows:
            assert all(type(x) is int for x in row.values())
        assert space.rows == ({0: 1, 2: 2}, {1: 2, 2: 1})
        # the rows are copies: changing one leaves the space as it was
        space.rows[0][1] = 7
        assert space.rows == ({0: 1, 2: 2}, {1: 2, 2: 1})

    def test_bool_and_int_entries_are_valid(self):
        space = RowSpace([{0: True, 1: 2, 2: False}], 3)
        assert space.rows == ({0: 1, 1: 2},)
        assert type(space.rows[0][0]) is int
        assert space.contains({0: -True, 1: -2})

    def test_bool_column_is_stored_as_int(self):
        space = RowSpace([{True: 3}], 2)
        assert space.pivots == (1,)
        assert space.rows == ({1: 1},)
        assert all(type(c) is int for c in space.pivots)
        assert all(type(c) is int for c in space.rows[0])
        row, alpha = space.reduce({False: 2, True: 5})
        assert (row, alpha) == ({0: 2}, 1)
        assert all(type(c) is int for c in row)


class TestCanonicality:
    def test_order_and_scaling_invariance(self):
        rng = random.Random(17)
        for _ in range(25):
            mat = random_matrix(rng, 6, 7)
            base = RowSpace(sparsify(mat), 7)
            shuffled = mat[:]
            rng.shuffle(shuffled)
            factors = [rng.choice([-3, -1, 2, 5]) for _ in shuffled]
            scaled = [[x * f for x in row]
                      for f, row in zip(factors, shuffled)]
            combo = scaled + [[a + b for a, b in zip(mat[0], mat[1])]]
            assert RowSpace(sparsify(shuffled), 7) == base
            assert RowSpace(sparsify(scaled), 7) == base
            assert RowSpace(sparsify(combo), 7) == base

    def test_duplicates_do_not_matter(self):
        mat = [{0: 1, 1: 2}, {0: 1, 1: 2}, {0: -2, 1: -4}, {2: 3}]
        assert RowSpace(mat, 3).rank == 2

    def test_empty(self):
        space = RowSpace([], 4)
        assert space.rank == 0
        assert space.rows == ()
        assert space.contains({})
        assert space.contains({2: 0})
        assert not space.contains({0: 1})


class TestReduce:
    def test_membership_of_combinations(self):
        rng = random.Random(29)
        for _ in range(20):
            mat = random_matrix(rng, 5, 9, density=0.7)
            space = RowSpace(sparsify(mat), 9)
            coeffs = [rng.randint(-4, 4) for _ in mat]
            vec = [sum(c * row[k] for c, row in zip(coeffs, mat))
                   for k in range(9)]
            assert space.contains(dict(enumerate(vec)))
            outside = vec[:]
            free = [c for c in range(9) if c not in space.pivots]
            if free and space.rank < 9:
                outside[free[0]] += 1
                # adding a unit at a free column leaves the span exactly
                # when that unit vector is itself in the span; rebuild
                if RowSpace(sparsify(mat + [outside]), 9).rank > space.rank:
                    assert not space.contains(dict(enumerate(outside)))

    def test_residual_semantics(self):
        space = RowSpace([{0: 1, 1: 2}, {2: 5}], 3)
        vec = {0: 3, 1: 1, 2: 7}
        residual, alpha = space.reduce(vec)
        assert alpha >= 1
        assert residual and all(type(x) is int and x
                                for x in residual.values())
        # alpha*vec - residual must lie in the span
        diff = {c: alpha * vec.get(c, 0) - residual.get(c, 0)
                for c in range(3)}
        assert space.contains(diff)
        assert not residual.keys() & set(space.pivots)  # pivots cleared
        assert vec == {0: 3, 1: 1, 2: 7}  # the input is left as it was

    def test_combination_solves_small_system(self):
        vecs = [{0: 1, 2: 1}, {1: 2, 2: 1}]
        space = RowSpace(vecs, 3)
        target = {0: 3, 1: -2, 2: 2}  # 3*v0 - 1*v1
        den, ks = space.combination(target)
        assert {i: Fraction(k, den) for i, k in ks.items()} == \
            {0: Fraction(3), 1: Fraction(-1)}

    def test_combination_none_for_nonmembers(self):
        space = RowSpace([{2: 1}, {2: 4}, {}], 3)
        # the zero row and the duplicate record nothing
        assert space.rank == len(space._records) == 1
        assert space.combination({1: 1}) is None
        assert space.combination({0: 2, 2: 1}) is None
        assert RowSpace([], 3).combination({2: 1}) is None
        # the zero vector is the empty combination of any row set
        assert space.combination({0: 0, 1: 0}) == (1, {})
        assert RowSpace([], 3).combination({}) == (1, {})


def recombined(rows, ncols, ks):
    """sum k * rows[i], dense, for {column: int} rows."""
    out = [0] * ncols
    for i, k in ks.items():
        for c, x in rows[i].items():
            out[c] += k * x
    return out


def assert_combination(space, rows, vec):
    """combination(vec) is None exactly for non-members, and otherwise
    den*vec is the integer recombination of the input rows."""
    got = space.combination(vec)
    dense = densify(vec, space.ncols)
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
            rows = sparsify(rows)
            space = RowSpace(rows, ncols)
            for _ in range(4):
                ks = {i: rng.randint(-5, 5) for i in range(len(rows))}
                assert_combination(space, rows,
                                   dict(enumerate(recombined(rows, ncols,
                                                             ks))))
                outside = [rng.randint(-3, 3) for _ in range(ncols)]
                assert_combination(space, rows, dict(enumerate(outside)))

    def test_large_contents_and_pivots_rescale(self):
        # rows whose contents and pivots share no factors, so unwinding
        # meets divisors that do not divide the coefficients
        rows = sparsify([[6, 10, 15, 0], [4, 0, 9, 35], [0, 14, 21, 10],
                         [12, 20, 30, 0], [0, 0, 7, 11]])
        space = RowSpace(rows, 4)
        for ks in ({0: 1}, {1: 1}, {2: 1}, {4: 1}, {0: 3, 1: -2, 4: 5},
                   {1: 7, 2: 11}):
            assert_combination(space, rows,
                               dict(enumerate(recombined(rows, 4, ks))))

    def test_later_row_with_the_same_leading_column_goes_in_first(self):
        # row 0 leads at column 1 and has content 2, rows 1 and 2 lead at
        # column 0, and row 2 = row 1 + row 0 / 2.  Row 0 goes in first
        # (the largest leading column), then row 2 (the later of the two
        # at column 0), and row 1 reduces to zero.  Plain reverse input
        # order would keep rows 2 and 1, and the order of the
        # content-normalized dense vectors rows 1 and 0.
        rows = [{1: 2, 2: 2}, {0: 1, 1: 1}, {0: 1, 1: 2, 2: 1}]
        space = RowSpace(rows, 3)
        assert space.rows == ({0: 1, 2: -1}, {1: 1, 2: 1})
        assert space.sources == (2, 0)
        for vec in rows:
            assert_combination(space, rows, vec)
        assert space.combination(rows[1]) == (2, {0: -1, 2: 2})


class TestFinishingOnDemand:
    """A row is back-substituted only when a reduction or a query of the
    canonical rows needs it; every answer is the same whatever the
    order of the queries."""

    @staticmethod
    def answers(space, probes):
        """For each probe: its residual items and alpha, its recorded
        steps and its combination."""
        out = []
        for vec in probes:
            steps = [1]
            row, alpha = space.reduce(vec, steps)
            out.append((list(row.items()), alpha, steps,
                        space.combination(vec)))
        return out

    @staticmethod
    def canonical(space):
        return [list(r.items()) for r in space.rows]

    def test_query_order_does_not_change_any_result(self):
        rng = random.Random(23)
        for _ in range(200):
            ncols = rng.randint(1, 14)
            rows = random_matrix(rng, rng.randint(0, 12), ncols,
                                 density=rng.choice([0.15, 0.4, 0.8]),
                                 lo=-rng.choice([1, 4, 9]), hi=9)
            rows += [list(r) for r in rng.sample(rows, len(rows) // 3)]
            rows = sparsify(rows)
            probes = random_probes(rng, rows, ncols)
            # reductions first, then the canonical rows
            lazy = RowSpace(rows, ncols)
            lazy_answers = self.answers(lazy, probes)
            assert all(len(rec) == (4 if c in lazy._unfinished else 7)
                       for c, rec in lazy._records.items())
            lazy_rows = self.canonical(lazy)
            # the canonical rows first, then the reductions
            eager = RowSpace(rows, ncols)
            eager_rows = self.canonical(eager)
            assert not eager._unfinished
            assert lazy_answers == self.answers(eager, probes)
            assert lazy_rows == eager_rows
            assert lazy._records == eager._records
            assert all(len(rec) == 7 for rec in lazy._records.values())
            # the probes in reverse, one at a time on fresh spaces
            for vec, want in zip(probes[::-1], lazy_answers[::-1]):
                assert self.answers(RowSpace(rows, ncols), [vec]) == [want]

    def test_a_reduction_finishes_only_the_rows_it_needs(self):
        # four rows in echelon form: the row at pivot 0 holds the pivot
        # column 1, and the rows at 1 and 2 hold the pivot column 3
        space = RowSpace([{0: 1, 1: 1}, {1: 1, 3: 1}, {2: 1, 3: 2},
                          {3: 1, 4: 1}], 5)
        assert space.pivots == (0, 1, 2, 3)
        assert set(space._unfinished) == {0, 1, 2, 3}
        assert space.reduce({3: 2}) == ({4: -2}, 1)
        assert set(space._unfinished) == {0, 1, 2}
        # finishing pivot 0 finishes pivot 1 first; pivot 2 is untouched
        assert space.reduce({0: 1}) == ({4: -1}, 1)
        assert set(space._unfinished) == {2}
        assert len(space._records[2]) == 4
        assert space._rows == [{0: 1, 4: 1}, {1: 1, 4: -1}, {2: 1, 3: 2},
                               {3: 1, 4: 1}]
        assert space.rows[2] == {2: 1, 4: -2}
        assert not space._unfinished

    def test_equality_and_hash_finish_every_row(self):
        rows = [{0: 2, 1: 4, 2: 6}, {1: 10, 2: 5}]
        a = RowSpace(rows, 3)
        b = RowSpace(rows[::-1], 3)
        assert a == b and a._unfinished == {} and b._unfinished == {}
        c = RowSpace(rows, 3)
        assert hash(c) == hash(a) and not c._unfinished


def test_rank_of():
    assert RowSpace([{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}], 2).rank == 2


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
    sparse: content-normalized rows, deduplicated and inserted in
    ascending dense order (not the sparse kernel's order by leading
    column), the same gcd scaling, every column visited."""

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
        row = [0] * self.ncols
        for c, v in r.items():
            row[c] = int(v)
        return row

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
    """RowSpace over {column: int} rows against the dense oracle: its
    rows and residuals are densified before they are compared."""
    sparse = RowSpace(rows, ncols)
    dense = DenseRowSpace(rows, ncols)
    assert sparse.pivots == dense.pivots
    assert tuple(tuple(densify(r, ncols)) for r in sparse.rows) == dense.rows
    for vec in probes:
        residual, alpha = dense.reduce(vec)
        row, got_alpha = sparse.reduce(vec)
        assert (densify(row, ncols), got_alpha) == (residual, alpha)
        assert 0 not in row.values()
        assert sparse.contains(vec) == (not any(residual))
        assert_combination(sparse, rows, vec)
    return sparse


def random_probes(rng, rows, ncols, count=6):
    """Dict vectors, with and without zero entries, half of them
    combinations of the rows."""
    probes = []
    for t in range(count):
        vec = [0] * ncols
        if t % 2 and rows:
            for r in rng.sample(rows, min(3, len(rows))):
                c = rng.randint(-3, 3)
                for k, x in r.items():
                    vec[k] += c * x
        else:
            for k in rng.sample(range(ncols), rng.randint(1, ncols)):
                vec[k] = rng.randint(-7, 7)
        probes.append(dict(enumerate(vec)) if t % 3 else
                      {k: x for k, x in enumerate(vec) if x})
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
                else dict(enumerate(r)) for r in rows]
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
    names = spanning_names(sl)
    for t in names:
        u, gi, v = sl.row_source(t)
        p = (Polynomial.from_monomial(u, n) * gens[gi]
             * Polynomial.from_monomial(v, n))
        cert = sl.certificate_for(p, sl.reduce(p, record=True))
        total = Polynomial.zero(n)
        for c, cu, cgi, cv in cert:
            total = total + (Polynomial.from_monomial(cu, n) * gens[cgi]
                             * Polynomial.from_monomial(cv, n)) * c
        assert total == p, (u, gi, v)
    return len(names)


@pytest.mark.parametrize("family,n,degree,certified",
                         list(_default_slices()))
def test_sparse_kernel_matches_dense_on_default_slices(
        family, n, degree, certified):
    """The canonical rows equal the dense oracle's over every spanning
    row, though the slice eliminates only some of them; on the slices
    the benchmark certifies against, every spanning row also gets a
    certificate that rebuilds in the free ring."""
    sl = ideal.DegreeSlice(ideal.generator_set(family, n), degree)
    rows = [sl.spanning_row(t) for t in spanning_names(sl)]
    ncols = len(sl.basis)
    rng = random.Random(n * 100 + degree)
    space = assert_matches_dense(rows, ncols, random_probes(rng, rows, ncols))
    assert sl.space == space
    if certified:
        assert assert_certifies_every_spanning_row(sl) == len(rows)
