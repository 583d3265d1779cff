"""Slice rows read off word codes, against the product construction.

``DegreeSlice.spanning_row`` finds the column of ``u*m*v`` from base-n
word codes.  ``product_rows`` is the construction it replaced, one
``u * m * v`` monomial per entry, kept here as the reference: both must
give the same rows, in the same order, and ``DegreeSlice.row_source``
must decode each row's name into the (u, generator index, v) it was
built from.  ``spanning_names`` enumerates the names, (generator index,
|u|, position of u, position of v), in that order.

A slice eliminates only the spanning rows that its degree recursion
picks.  ``test_recursion_gives_the_full_spanning_set_canonical_rows``
checks that against the reference: ``RowSpace`` over every spanning row.
"""

import math

import pytest

from sigmaforge import ideal
from sigmaforge.linalg import RowSpace
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


def spanning_count(sl):
    """The number of spanning rows u*g*v: sum over g of (rest+1)*n**rest,
    rest = d - deg g."""
    rests = [sl.degree - g.degree() for g in sl.gset.gens]
    return sum((r + 1) * sl.n ** r for r in rests if r >= 0)


def spanning_names(sl):
    """The name of every spanning row u*g*v of a slice, in name order,
    which is the order of ``product_rows``; as many as the closed form
    ``spanning_count`` gives."""
    n = sl.n
    names = []
    for gi, g in enumerate(sl.gset.gens):
        rest = sl.degree - g.degree()
        for r in range(rest + 1):
            names.extend((gi, r, pu, pv) for pu in range(n ** r)
                         for pv in range(n ** (rest - r)))
    assert len(names) == spanning_count(sl)
    return names


def built_rows(gset, degree):
    """Every spanning row as the slice builds it, and the source of each
    row as the slice decodes it."""
    sl = ideal.DegreeSlice(gset, degree)
    names = spanning_names(sl)
    return ([sl.spanning_row(t) for t in names],
            [sl.row_source(t) for t in names])


def mixed_generators():
    # rational coefficients and a generator of degree 1 as well
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


def constant_generators():
    # a generator of degree 0: every slice is the whole degree
    return ideal.GeneratorSet("constant", 3, [
        parse_poly("2", 3), parse_poly("x1*x2 - x2*x1", 3)])


def _gset(family, n):
    if family == "mixed":
        return mixed_generators()
    if family == "constant":
        return constant_generators()
    return ideal.generator_set(family, n)


@pytest.mark.parametrize("family,n,degree", list(_cases()))
def test_word_code_rows_match_product_rows(family, n, degree):
    rows, sources = built_rows(_gset(family, n), degree)
    want_rows, want_sources = product_rows(_gset(family, n), degree)
    # same rows, same order, same column order within each row
    assert [list(r.items()) for r in rows] == \
        [list(r.items()) for r in want_rows]
    assert sources == want_sources


def _recursion_cases():
    for n, bound in ideal.DEFAULT_DEGREE_BOUND.items():
        for d in range(2, bound + 1):
            for family in (ideal.COMMUTATORS, ideal.DIFFERENCES):
                yield family, n, d
    yield ideal.COMMUTATORS, 5, 5
    yield ideal.COMMUTATORS, 3, 7
    for d in range(0, 5):
        yield "mixed", 3, d
    for d in range(0, 4):
        yield "constant", 3, d


@pytest.mark.parametrize("family,n,degree", list(_recursion_cases()))
def test_recursion_gives_the_full_spanning_set_canonical_rows(
        monkeypatch, family, n, degree):
    """The rows a slice inserts (x_i*s and, for s = g*v, s*x_j over the
    sources s of the slice below, and the degree-d generators) have the
    canonical rows of all spanning rows, and its sources are a basis
    made of spanning rows.  The x_i*s rows go in first, and none of
    them reduces to zero."""
    gset = _gset(family, n)
    below = ideal.degree_slice(gset, degree - 1) if degree else None
    calls = []

    def recording(rows, ncols, head=0):
        calls.append((list(rows), head))
        return RowSpace(rows, ncols, head)

    with monkeypatch.context() as m:
        m.setattr(ideal, "RowSpace", recording)
        sl = ideal.DegreeSlice(gset, degree)
    # the slice below is cached, so one elimination: its own
    ((inserted, head),) = calls
    assert inserted == [sl.spanning_row(t) for t in sl._inputs]
    # the x_i*s names (|u| >= 1) in name order, then the s*x_j and
    # generator names (|u| = 0) in name order
    xs, rest = sl._inputs[:head], sl._inputs[head:]
    assert all(t[1] >= 1 for t in xs) and all(t[1] == 0 for t in rest)
    assert list(xs) == sorted(set(xs)) and list(rest) == sorted(set(rest))
    assert set(xs) <= set(sl.sources)

    # how many rows the recursion picks, from the sources' words
    n_top = sum(1 for g in gset.gens if g.degree() == degree)
    picked = n_top
    if any(g.degree() < degree for g in gset.gens):
        for t in below.sources:
            u, _, _ = below.row_source(t)
            picked += 2 * n if u.is_unit() else n
    assert len(sl._inputs) == picked

    rows = {t: sl.spanning_row(t) for t in spanning_names(sl)}
    assert set(sl._inputs) <= rows.keys()
    full = RowSpace(list(rows.values()), len(sl.basis))
    assert sl.space == full
    assert sl.space.rows == full.rows

    sources = sl.sources
    assert len(sources) == sl.rank
    assert len(set(sources)) == len(sources)
    basis = RowSpace([rows[t] for t in sources], len(sl.basis))
    assert basis.rank == len(sources)
    assert basis == full
