"""Slice rows read off word codes, against the product construction.

``DegreeSlice.__init__`` finds the column of ``u*m*v`` from base-n word
codes.  ``product_rows`` is the construction it replaced, one
``u * m * v`` monomial per entry, kept here as the reference: both must
give the same rows, in the same order, and ``DegreeSlice.row_source``
must decode each row's index into the (u, generator index, v) it was
built from.
"""

import math

import pytest

from sigmaforge import ideal
from sigmaforge.ring import basis_words, parse_poly


def product_rows(gset, degree):
    n = gset.n
    index = {m: j for j, m in enumerate(basis_words(n, degree))}
    rows = []
    meta = []
    for gi, g in enumerate(gset.gens):
        rest = degree - g.degree()
        if rest < 0:
            continue
        scale = math.lcm(*(c.denominator for c in g.terms.values()))
        gvec = {m: int(c * scale) for m, c in g.terms.items()}
        for r in range(rest + 1):
            for u in basis_words(n, r):
                for v in basis_words(n, rest - r):
                    row = {}
                    for m, c in gvec.items():
                        col = index[u * m * v]
                        row[col] = row.get(col, 0) + c
                    row = {c: x for c, x in row.items() if x}
                    if row:
                        rows.append(row)
                        meta.append((u, gi, v))
    return rows, meta


def built_rows(monkeypatch, gset, degree):
    """The rows DegreeSlice hands to RowSpace, and the source of each
    row as the slice decodes it."""
    calls = []

    def recording(rows, ncols):
        calls.append(list(rows))

    monkeypatch.setattr(ideal, "RowSpace", recording)
    sl = ideal.DegreeSlice(gset, degree)
    (rows,) = calls
    return rows, [sl.row_source(t) for t in range(len(rows))]


def mixed_generators():
    # rational coefficients and generators of degree 0 and 1 as well
    return ideal.GeneratorSet("mixed", 3, [
        parse_poly("1/2*x1 - 2/3*x2", 3),
        parse_poly("x1*x2 - 3*x3^2 + 5/7*x2*x1", 3),
        parse_poly("x3*x1*x3 - x1^3", 3),
    ])


def _cases():
    for n, bound in ideal.DEFAULT_DEGREE_BOUND.items():
        for d in range(2, bound + 1):
            for family in (ideal.COMMUTATORS, ideal.DIFFERENCES):
                yield family, n, d
    for n, bound in ((3, 5), (4, 4)):  # the slices member_stream certifies
        for d in range(2, bound + 1):
            yield ideal.COMMUTATORS, n, d
    yield ideal.COMMUTATORS, 5, 5
    yield ideal.COMMUTATORS, 3, 7
    for d in range(0, 5):
        yield "mixed", 3, d


@pytest.mark.parametrize("family,n,degree", list(_cases()))
def test_word_code_rows_match_product_rows(monkeypatch, family, n, degree):
    gset = (mixed_generators() if family == "mixed"
            else ideal.generator_set(family, n))
    rows, sources = built_rows(monkeypatch, gset, degree)
    want_rows, want_sources = product_rows(gset, degree)
    # same rows, same order, same column order within each row
    assert [list(r.items()) for r in rows] == \
        [list(r.items()) for r in want_rows]
    assert sources == want_sources
