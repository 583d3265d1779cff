"""Exact integer linear algebra: canonical reduced row echelon form.

Rows are integer vectors, stored sparsely as {column: value} dicts.  The
canonical form of a row space is the rational RREF with every row scaled
to content-free integers and a positive pivot, which is unique, so two
spans are equal exactly when their canonical rows are equal and results
do not depend on input order.  The structured matrices handled here are
very sparse (a canonical row of the n=5 degree-5 ideal slice holds 123
of 3125 entries on average), so elimination and normalization visit the
nonzero entries only, after the structured elimination of LaMacchia and
Odlyzko (CRYPTO 1990) carried over to exact integers.
"""

from __future__ import annotations

import heapq
import math


def _content_normalize(row, lead):
    """Divide by the gcd and make the entry at ``lead``, the first
    nonzero column, positive."""
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
    return row


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

    ``rows`` may be dicts {column: value} or dense sequences.  Columns at
    or beyond ``pivot_limit`` never become pivots; rows with no nonzero
    entry before the limit are dropped (used for combination tags).
    """

    __slots__ = ("ncols", "pivot_limit", "_rows", "_pivots", "_pivot_of_col")

    def __init__(self, rows, ncols: int, pivot_limit=None):
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        self.ncols = ncols
        self.pivot_limit = ncols if pivot_limit is None else pivot_limit
        if not 0 <= self.pivot_limit <= ncols:
            raise ValueError("pivot_limit out of range")
        distinct = {}
        for r in rows:
            row = self._sparse(r)
            if row:
                row = _content_normalize(row, min(row))
                distinct.setdefault(_dense_order_key(row), row)
        self._pivot_of_col = {}
        # fixed insertion order (the dense-lexicographic order of the
        # normalized rows): it decides which combination the tag
        # columns of a stored row record
        for _, row in sorted(distinct.items()):
            self._insert(row)
        self._pivots = sorted(self._pivot_of_col)
        self._rows = [self._pivot_of_col[c] for c in self._pivots]
        self._back_substitute()

    def _sparse(self, r):
        if isinstance(r, dict):
            row = {}
            for c, v in r.items():
                if not 0 <= c < self.ncols:
                    raise ValueError(f"column {c} out of range")
                x = int(v)
                if x:
                    row[c] = x
            return row
        if len(r) != self.ncols:
            raise ValueError("dense row has wrong length")
        return {c: x for c, x in enumerate(map(int, r)) if x}

    def _insert(self, row):
        heap = sorted(row)
        while heap:
            j = heapq.heappop(heap)
            if j not in row:
                continue  # cancelled since it was pushed
            if j >= self.pivot_limit:
                return  # zero before the limit: no new span, drop it
            piv = self._pivot_of_col.get(j)
            if piv is None:
                self._pivot_of_col[j] = _content_normalize(row, j)
                return
            self._eliminate(row, piv, j, heap)

    @staticmethod
    def _eliminate(row, piv, j, heap=None):
        """row := (L/g)*row - (f/g)*piv so that row[j] becomes 0.

        piv has its leading entry at j.  Columns that become nonzero are
        pushed on ``heap`` when one is given.  Returns the factor L/g.
        """
        L = piv[j]
        f = row[j]
        g = math.gcd(L, f)
        a = L // g
        b = f // g
        if a != 1:
            for k in row:
                row[k] *= a
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
        return a

    def _pivots_in(self, row):
        """Pivot columns where ``row`` is nonzero, ascending.

        Eliminating against a fully reduced row never creates an entry
        in another pivot column, so this is exactly the list of columns
        a reduction against the finished basis visits.
        """
        return sorted(c for c in row if c in self._pivot_of_col)

    def _back_substitute(self):
        for own, row in zip(reversed(self._pivots), reversed(self._rows)):
            for j in self._pivots_in(row):
                if j != own:
                    self._eliminate(row, self._pivot_of_col[j], j)
            _content_normalize(row, own)

    def _reduce(self, vec):
        row = self._sparse(vec)
        alpha = 1
        for j in self._pivots_in(row):
            alpha *= self._eliminate(row, self._pivot_of_col[j], j)
        return row, alpha

    # -- public surface ----------------------------------------------

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple:
        return tuple(self._pivots)

    def _dense(self, row):
        out = [0] * self.ncols
        for c, x in row.items():
            out[c] = x
        return out

    @property
    def rows(self) -> tuple:
        return tuple(tuple(self._dense(r)) for r in self._rows)

    def reduce(self, vec):
        """Reduce a vector (dense or {column: value}) against the basis.

        Returns (residual, alpha): residual is a dense list equal to
        alpha*vec - (combination of stored rows), with alpha a positive
        integer.  The vector is in the span exactly when every residual
        entry before pivot_limit is zero (tag columns, if any, then hold
        the negated combination).
        """
        row, alpha = self._reduce(vec)
        return self._dense(row), alpha

    def contains(self, vec) -> bool:
        row, _ = self._reduce(vec)
        return all(c >= self.pivot_limit for c in row)

    def __eq__(self, other):
        return (isinstance(other, RowSpace)
                and self.ncols == other.ncols
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ncols,
                     tuple(frozenset(r.items()) for r in self._rows)))


def rank_of(rows, ncols: int) -> int:
    return RowSpace(rows, ncols).rank
