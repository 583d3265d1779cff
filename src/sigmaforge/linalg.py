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
1990) carried over to exact integers.  As there, only a row's leading
column decides when it goes in: rows are inserted by descending leading
column, so a row whose leading column is still free becomes a pivot
with no elimination.  A caller that knows its first ``head`` rows to
be linearly independent inserts them before the rest, each part by
descending leading column; then none of them reduces to zero, and only
the other rows can be eliminated for nothing.

A built ``RowSpace`` holds its rows in echelon form.  A row is
back-substituted into its canonical form only when something first
needs it, and once: ``RowSpace.reduce`` finishes each row just before
it eliminates with it, and ``rows``, ``==`` and ``hash`` finish them
all.  A slice that answers a few membership queries so finishes only
the rows those reductions touch (at n=5 degree 5, ``verify
factored_coeffs`` finishes 148 of 2018), and every elimination still
runs against a finished row, so every result is the one a fully
reduced basis gives.

Every stored row keeps the record of the eliminations that shaped it,
so a vector of the span can be written as an integer combination of the
input rows (``RowSpace.combination``) without a tag column per input:
the product form of the inverse (Dantzig and Orchard-Hays, 1954).  An
input that reduces to zero records nothing.  ``RowSpace.reduce`` is the
one reduction against the basis: membership and combinations are read
off it.
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


class RowSpace:
    """Canonical echelon basis of the span of integer rows.

    Each of ``rows`` is a {column: int} dict with ``int`` columns in
    ``range(ncols)``; a column or an entry that is not an ``int`` (a
    ``Fraction`` or a ``float``) raises TypeError, and zero entries are
    dropped.  The nonzero rows go in by descending leading column, and
    among rows that lead at the same column the later input goes first,
    so a row whose leading column has no pivot yet becomes one with no
    elimination.  The first ``head`` rows go in before all the others,
    each part in that order.  When the head rows are linearly
    independent, every one of them becomes a stored row: at each
    insertion only head rows are stored, so a head row that reduced to
    zero would be a combination of other head rows.  The canonical rows
    do not depend on the order; ``sources`` and the records do.

    For each stored row, keyed by its pivot column, ``_records`` holds
    one tuple ``(index, mult, div, steps)`` of integers and a flat tuple
    of pairs, which describes insertion: the row stored from input row
    ``index`` was

        (mult * input - sum f * (row stored then at col q)) / div

    over the pairs ``steps = (q, f, q, f, ...)``, with every q left of
    its pivot.  A row stays in that echelon form, and its pivot in
    ``_unfinished``, until it is finished; finishing appends
    ``(bmult, bdiv, bsteps)``, which describe back-substitution the same
    way: the final row is ``(bmult * inserted row - sum f * (final row
    at q)) / bdiv``, with every q a later pivot.  So a record has four
    fields until its row is finished and seven after.  ``_rows`` lists
    the current rows by pivot, echelon or final.
    """

    __slots__ = ("ncols", "_rows", "_pivots", "_pivot_of_col", "_records",
                 "_unfinished")

    def __init__(self, rows, ncols: int, head: int = 0):
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        self.ncols = ncols
        pending = []
        for index, r in enumerate(rows):
            row = self._sparse(r)
            if row:
                pending.append((row, index))
        # popped from the end, so the head goes first and, within each
        # part, the largest leading column.  Nothing else holds a row
        # once it is popped, so a dependent row is freed as soon as it
        # reduces to zero, and finishing frees each stored row it
        # replaces.
        pending.sort(key=lambda item: (item[1] < head, min(item[0])))
        self._pivot_of_col = {}
        self._records = {}
        while pending:
            self._insert(*pending.pop())
        self._pivots = sorted(self._pivot_of_col)
        self._rows = [self._pivot_of_col[c] for c in self._pivots]
        # pivot -> position in _rows of every row not yet finished
        self._unfinished = {c: pos for pos, c in enumerate(self._pivots)}

    def _sparse(self, r):
        """A checked copy of the row ``r`` without its zero entries."""
        if not isinstance(r, dict):
            raise TypeError("a row is a {column: int} dict")
        row = {}
        for c, v in r.items():
            if type(c) is not int:
                if not isinstance(c, int):
                    raise TypeError(f"column {c!r} is not an int")
                c = int(c)  # a bool, or another int subclass
            if not 0 <= c < self.ncols:
                raise ValueError(f"column {c} out of range")
            if type(v) is not int:
                if not isinstance(v, int):
                    raise TypeError(f"entry {v!r} at column {c} is not an int")
                v = int(v)
            if v:
                row[c] = v
        return row

    def _insert(self, row, index):
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
                self._records[j] = (index, steps[0], div, tuple(steps[1:]))
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
        a reduction visits, since it finishes each row it eliminates
        with first.
        """
        return sorted(c for c in row if c in self._pivot_of_col)

    def _finish(self, j=None):
        """Back-substitute the row at pivot ``j``, or every unfinished
        row when ``j`` is None, into its canonical form.

        A row is reduced against the final rows at the other pivot
        columns it holds, all later than its own, so the unfinished
        rows it depends on, and theirs in turn, are finished first:
        by descending pivot, each of them once.
        """
        unfinished = self._unfinished
        pivot_of_col = self._pivot_of_col
        if j is None:
            todo = set(unfinished)
        else:
            todo = {j}
            stack = [j]
            while stack:
                for q in pivot_of_col[stack.pop()]:
                    if q in unfinished and q not in todo:
                        todo.add(q)
                        stack.append(q)
        records = self._records
        rows = self._rows
        for own in sorted(todo, reverse=True):
            row = pivot_of_col[own]
            steps = [1]
            for q in self._pivots_in(row):
                if q != own:
                    self._eliminate(row, pivot_of_col[q], q, steps)
            div = _content_normalize(row, own)
            records[own] += (steps[0], div, tuple(steps[1:]))
            # a row that grew and shrank while it was eliminated keeps an
            # oversized table; a fresh dict holds the same entries in
            # about two thirds of the memory on the larger slices
            rows[unfinished.pop(own)] = pivot_of_col[own] = dict(row.items())

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
        return tuple(records[p][0] for p in self._pivots)

    @property
    def rows(self) -> tuple:
        """The canonical rows by pivot, as {column: int} copies."""
        self._finish()
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
        unfinished = self._unfinished
        pivot_of_col = self._pivot_of_col
        for j in self._pivots_in(row):
            if j in unfinished:
                self._finish(j)
            alpha *= self._eliminate(row, pivot_of_col[j], j, steps)
        return row, alpha

    def contains(self, vec) -> bool:
        return not self.reduce(vec)[0]

    def combination(self, vec):
        """Write a vector of the span as a combination of the input rows.

        Returns None when ``vec`` is not in the span, and otherwise
        (den, {index: k}) with den > 0 and den*vec = sum k * rows[index],
        where ``rows`` is the sequence given to the constructor.  The
        records are unwound in integer arithmetic by one substitution,
        run twice: final rows into inserted rows by ascending pivot,
        since back-substitution refers only to later pivots, then
        inserted rows into input rows by descending pivot, since
        insertion eliminates only left of the pivot a row ends on.  A
        divisor that does not divide a coefficient rescales the whole
        combination, and ``den``.
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
        used = {}

        def substitute(part, into, sign, at):
            """Move ``part``, a combination of rows keyed by pivot, into
            ``into`` through the (mult, div, pairs) at ``records[p][at:]``,
            taking pivots in the order of ``sign * p``."""
            nonlocal den
            heap = [sign * p for p in part]
            heapq.heapify(heap)
            while heap:
                p = sign * heapq.heappop(heap)
                c = part.pop(p)
                if not c:
                    continue
                mult, div, pairs = records[p][at:at + 3]
                s = abs(div) // math.gcd(c, div)
                if s != 1:
                    # the least rescaling that makes c / div exact
                    den *= s
                    c *= s
                    for whole in (part, into):
                        for k in whole:
                            whole[k] *= s
                c //= div
                for t in range(0, len(pairs), 2):
                    q = pairs[t]
                    if q in part:
                        part[q] -= c * pairs[t + 1]
                    else:
                        part[q] = -c * pairs[t + 1]
                        heapq.heappush(heap, sign * q)
                into[p] = c * mult

        substitute(final, inserted, 1, 4)
        substitute(inserted, used, -1, 1)
        return den, {records[p][0]: k for p, k in used.items()}

    def __eq__(self, other):
        if not (isinstance(other, RowSpace) and self.ncols == other.ncols):
            return False
        self._finish()
        other._finish()
        return self._rows == other._rows

    def __hash__(self):
        self._finish()
        return hash((self.ncols,
                     tuple(frozenset(r.items()) for r in self._rows)))

