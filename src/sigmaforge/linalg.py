"""Exact integer linear algebra: canonical reduced row echelon form.

A row is a {column: int} dict of its nonzero entries, going in and
coming out; there is no dense form.  The canonical form of a row space
is the rational RREF with every row scaled to content-free integers and
a positive pivot, which is unique, so two spans are equal exactly when
their canonical rows are equal and results do not depend on input
order.  The structured matrices handled here are very sparse (a
canonical row of the n=5 degree-5 ideal slice holds 123 of 3125 entries
on average), so elimination and normalization visit the nonzero entries
only, after the structured elimination of LaMacchia and Odlyzko (CRYPTO
1990) carried over to exact integers.

Every stored row keeps the record of the eliminations that shaped it,
so a vector of the span can be written as an integer combination of the
input rows (``RowSpace.combination``) without a tag column per input:
the product form of the inverse (Dantzig and Orchard-Hays, 1954).  An
input that reduces to zero records nothing.  ``RowSpace.reduce`` is the
one reduction against a finished basis: membership and combinations
are read off it.
"""

from __future__ import annotations

import heapq
import math


def _content_normalize(row, lead):
    """Divide by the gcd and make the entry at ``lead``, the first
    nonzero column, positive.  Returns the signed divisor."""
    g = 0
    for x in row.values():
        g = math.gcd(g, x)
        if g == 1:
            break
    if row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g
    return g


def _dense_order_key(row):
    """Sort key ordering sparse rows as their dense vectors compare.

    At the first column where two rows differ, a present entry beats an
    absent one exactly when it is positive, and the sentinel ``(0,)``
    (the row has ended) sits between the negative and positive entries.
    """
    return tuple([(1, -c, x) if x > 0 else (-1, c, x)
                  for c, x in sorted(row.items())] + [(0,)])


class RowSpace:
    """Canonical echelon basis of the span of integer rows.

    Each of ``rows`` is a {column: int} dict with columns in
    ``range(ncols)``; an entry that is not an ``int`` (a ``Fraction`` or
    a ``float``) raises TypeError, and zero entries are dropped.  For each
    stored row, keyed by its pivot column, ``_records`` holds one tuple
    ``(order, index, content, mult, div, steps, bmult, bdiv, bsteps)``
    of integers and two flat tuples of pairs.  The first six describe
    insertion: input row ``index``, divided by its signed ``content``,
    was the ``order``-th distinct row inserted, and the row stored then
    was

        (mult * input/content - sum f * (row stored then at col q)) / div

    over the pairs ``steps = (q, f, q, f, ...)``.  The last three
    describe back-substitution the same way: the final row is
    ``(bmult * inserted row - sum f * (final row at q)) / bdiv``, with
    every q a later pivot.
    """

    __slots__ = ("ncols", "_rows", "_pivots", "_pivot_of_col", "_records")

    def __init__(self, rows, ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        self.ncols = ncols
        distinct = {}
        for index, r in enumerate(rows):
            row = self._sparse(r)
            if row:
                content = _content_normalize(row, min(row))
                distinct.setdefault(_dense_order_key(row),
                                    (row, index, content))
        self._pivot_of_col = {}
        self._records = {}
        # fixed insertion order (the dense-lexicographic order of the
        # normalized rows): it decides which combination the records of
        # a stored row describe.  Nothing else holds a row once it is
        # popped, so a dependent row is freed as soon as it reduces to
        # zero, and back-substitution frees each stored row it replaces.
        pending = [distinct[key] for key in sorted(distinct, reverse=True)]
        del distinct
        order = 0
        while pending:
            self._insert(order, *pending.pop())
            order += 1
        self._pivots = sorted(self._pivot_of_col)
        self._rows = [self._pivot_of_col[c] for c in self._pivots]
        self._back_substitute()

    def _sparse(self, r):
        """A checked copy of the row ``r`` without its zero entries."""
        if not isinstance(r, dict):
            raise TypeError("a row is a {column: int} dict")
        row = {}
        for c, v in r.items():
            if not 0 <= c < self.ncols:
                raise ValueError(f"column {c} out of range")
            if not isinstance(v, int):
                raise TypeError(f"entry {v!r} at column {c} is not an int")
            if v:
                row[c] = int(v)
        return row

    def _insert(self, order, row, index, content):
        heap = sorted(row)
        steps = [1]
        while heap:
            j = heapq.heappop(heap)
            if j not in row:
                continue  # cancelled since it was pushed
            piv = self._pivot_of_col.get(j)
            if piv is None:
                div = _content_normalize(row, j)
                self._pivot_of_col[j] = row
                self._records[j] = (order, index, content, steps[0], div,
                                    tuple(steps[1:]))
                return
            self._eliminate(row, piv, j, steps, heap)

    @staticmethod
    def _eliminate(row, piv, j, steps=None, heap=None):
        """row := a*row - b*piv so that row[j] becomes 0, where a = L/g and
        b = f/g for L = piv[j] > 0, f = row[j] and g = gcd(L, f).

        piv has its leading entry at j.  Columns that become nonzero are
        pushed on ``heap`` when one is given.  ``steps``, when given, is the
        record [mult, col, factor, col, factor, ...] of the eliminations so
        far, read as row = mult*start - sum(factor * pivot row of col); the
        step is folded into it.  Returns a.
        """
        L = piv[j]
        f = row[j]
        g = math.gcd(L, f)
        a = L // g
        b = f // g
        if a != 1:
            for k in row:
                row[k] *= a
            if steps is not None:
                for t in range(0, len(steps), 2):
                    steps[t] *= a
        for k, pk in piv.items():
            x = row.get(k)
            if x is None:
                row[k] = -b * pk
                if heap is not None:
                    heapq.heappush(heap, k)
            else:
                x -= b * pk
                if x:
                    row[k] = x
                else:
                    del row[k]
        if steps is not None:
            steps += (j, b)
        return a

    def _pivots_in(self, row):
        """Pivot columns where ``row`` is nonzero, ascending.

        Eliminating against a fully reduced row never creates an entry
        in another pivot column, so this is exactly the list of columns
        a reduction against the finished basis visits.
        """
        return sorted(c for c in row if c in self._pivot_of_col)

    def _back_substitute(self):
        records = self._records
        rows = self._rows
        for pos in range(len(rows) - 1, -1, -1):
            own = self._pivots[pos]
            row = rows[pos]
            steps = [1]
            for j in self._pivots_in(row):
                if j != own:
                    self._eliminate(row, self._pivot_of_col[j], j, steps)
            div = _content_normalize(row, own)
            records[own] += (steps[0], div, tuple(steps[1:]))
            # a row that grew and shrank while it was eliminated keeps an
            # oversized table; a fresh dict holds the same entries in
            # about two thirds of the memory on the larger slices
            rows[pos] = self._pivot_of_col[own] = dict(row.items())

    # -- public surface ----------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple:
        return tuple(self._pivots)

    @property
    def sources(self) -> tuple:
        """Index of the input row behind each stored row, by pivot: the
        inputs that were independent when inserted, which span the same
        space."""
        records = self._records
        return tuple(records[p][1] for p in self._pivots)

    @property
    def rows(self) -> tuple:
        """The canonical rows by pivot, as {column: int} copies."""
        return tuple(dict(r) for r in self._rows)

    def reduce(self, vec, steps=None):
        """Reduce a {column: int} vector against the basis.

        Returns (row, alpha): ``row`` is the residual {column: int} dict,
        equal to alpha*vec - (combination of stored rows), with alpha a
        positive integer.  The vector is in the span exactly when the
        residual is empty.  ``steps``, when given as the list [1],
        records that combination as ``combination`` reads it.
        """
        row = self._sparse(vec)
        alpha = 1
        for j in self._pivots_in(row):
            alpha *= self._eliminate(row, self._pivot_of_col[j], j, steps)
        return row, alpha

    def contains(self, vec) -> bool:
        return not self.reduce(vec)[0]

    def combination(self, vec):
        """Write a vector of the span as a combination of the input rows.

        Returns None when ``vec`` is not in the span, and otherwise
        (den, {index: k}) with den > 0 and den*vec = sum k * rows[index],
        where ``rows`` is the sequence given to the constructor.  The
        records are unwound in integer arithmetic: final rows into
        inserted rows by ascending pivot, then inserted rows into input
        rows in reverse insertion order.  A divisor that does not divide
        a coefficient rescales the whole combination, and ``den``.
        """
        steps = [1]
        row, den = self.reduce(vec, steps)
        if row:
            return None
        return self._unwind(den, steps)

    def _unwind(self, den, steps):
        """``combination`` of a vector whose reduction by ``reduce``
        left no row: den*vec is ``steps``'s combination of stored rows."""
        records = self._records
        final = dict(zip(steps[1::2], steps[2::2]))
        inserted = {}
        out = {}

        def exact(x, div):
            """x / div, after scaling the whole combination, x (not yet
            added to it) included, by the least factor that makes the
            division exact."""
            nonlocal den
            s = abs(div) // math.gcd(x, div)
            if s != 1:
                den *= s
                for part in (final, inserted, out):
                    for k in part:
                        part[k] *= s
                x *= s
            return x // div

        heap = sorted(final)
        while heap:
            p = heapq.heappop(heap)
            c = final.pop(p)
            if not c:
                continue
            _, _, _, _, _, _, mult, div, pairs = records[p]
            if div != 1:
                c = exact(c, div)
            inserted[p] = c * mult
            for t in range(0, len(pairs), 2):
                q = pairs[t]
                if q in final:
                    final[q] -= c * pairs[t + 1]
                else:
                    final[q] = -c * pairs[t + 1]
                    heapq.heappush(heap, q)

        heap = [(-records[p][0], p) for p in inserted]
        heapq.heapify(heap)
        while heap:
            p = heapq.heappop(heap)[1]
            e = inserted.pop(p)
            if not e:
                continue
            _, index, content, mult, div, pairs, _, _, _ = records[p]
            if div != 1:
                e = exact(e, div)
            for t in range(0, len(pairs), 2):
                q = pairs[t]
                if q in inserted:
                    inserted[q] -= e * pairs[t + 1]
                else:
                    inserted[q] = -e * pairs[t + 1]
                    heapq.heappush(heap, (-records[q][0], q))
            e *= mult
            out[index] = exact(e, content) if content != 1 else e
        return den, out

    def __eq__(self, other):
        return (isinstance(other, RowSpace)
                and self.ncols == other.ncols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ncols,
                     tuple(frozenset(r.items()) for r in self._rows)))


def rank_of(rows, ncols: int) -> int:
    return RowSpace(rows, ncols).rank
