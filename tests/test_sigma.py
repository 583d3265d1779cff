import itertools
import math

from oracles import (
    cyclic_letters, sigma_on, sigma_via_recursion_first,
    sigma_via_recursion_last,
)
from sigmaforge.cyclic import act
from sigmaforge.ring import Monomial, Polynomial, parse_poly
from sigmaforge.sigma import (
    CommPoly, abelianize, build_sigma, char_poly_image,
    elementary_symmetric, factored_char_coefficients, inverse_identity_image,
    verify_sigma_independence,
)


class TestBuild:
    def test_term_counts(self):
        for n in range(3, 7):
            for k in range(n + 1):
                s = build_sigma(n, k)
                assert len(s.terms) == math.comb(n, k)
                assert all(c == 1 for c in s.terms.values())

    def test_out_of_range(self):
        assert build_sigma(3, -1).is_zero()
        assert build_sigma(3, 4).is_zero()
        assert build_sigma(3, 0) == Polynomial.one(3)

    def test_words_are_increasing(self):
        s = build_sigma(4, 2)
        assert parse_poly("x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4", 4) == s
        assert Monomial.from_letters((1, 2, 3)) in build_sigma(3, 3).terms

    def test_coefficients_all_one_on_squarefree_words(self):
        for n, k in [(4, 2), (5, 3), (6, 4)]:
            for m in build_sigma(n, k).terms:
                assert len(m) == k
                assert all(a < b for a, b in zip(m, m[1:]))


class TestRecursions:
    def test_both_recursions_match_direct(self):
        for n in range(3, 7):
            letters = tuple(range(1, n + 1))
            for k in range(n + 2):
                direct = build_sigma(n, k)
                assert sigma_via_recursion_first(letters, k, n) == direct
                assert sigma_via_recursion_last(letters, k, n) == direct

    def test_recursions_on_arbitrary_lists(self):
        letters = (2, 4, 1)
        for k in range(4):
            direct = sigma_on(letters, k, 4)
            assert sigma_via_recursion_first(letters, k, 4) == direct
            assert sigma_via_recursion_last(letters, k, 4) == direct

    def test_shifted_instances(self):
        # image of the first-peel recursion under the power-i shift:
        # shifted sigma_k equals x_{i+1}*s_{k-1}(L) + s_k(L) with
        # L = i+2, ..., i+n (mod n), and the last-peel image under the
        # power-(i+1) shift uses the same L with tail x_{i+1}.
        for n in (3, 4, 5):
            for i in range(n):
                letters = cyclic_letters(n, i + 2)
                xi1 = Polynomial.variable((i % n) + 1, n)
                for k in range(1, n + 1):
                    shifted = act(i, build_sigma(n, k), n)
                    first_form = (xi1 * sigma_on(letters, k - 1, n)
                                  + sigma_on(letters, k, n))
                    assert shifted == first_form
                    shifted2 = act(i + 1, build_sigma(n, k), n)
                    last_form = (sigma_on(letters, k - 1, n) * xi1
                                 + sigma_on(letters, k, n))
                    assert shifted2 == last_form

    def test_cyclic_letters(self):
        assert cyclic_letters(4, 2) == (2, 3, 4)
        assert cyclic_letters(4, 3) == (3, 4, 1)
        assert cyclic_letters(3, 1) == (1, 2)


class TestAbelianize:
    def test_sigma_maps_to_elementary_symmetric(self):
        for n in range(3, 6):
            for k in range(n + 1):
                assert abelianize(build_sigma(n, k)) == \
                    elementary_symmetric(n, k)

    def test_ring_hom(self):
        p = parse_poly("x1*x2 - x2*x1", 3)
        assert abelianize(p).is_zero()
        q = parse_poly("x1^2 + 2*x3", 3)
        r = parse_poly("x2*x1 - 1/3", 3)
        assert abelianize(q * r) == abelianize(q) * abelianize(r)
        assert abelianize(q + r) == abelianize(q) + abelianize(r)

    def test_exponent_vectors(self):
        p = Polynomial.word([1, 3, 3, 1, 2], 3)
        assert abelianize(p) == CommPoly({(2, 1, 2): 1}, 3)


class TestCharacteristicImages:
    def test_char_poly_image_n3(self):
        s1, s2, s3 = (build_sigma(3, k) for k in (1, 2, 3))
        x1 = Polynomial.variable(1, 3)
        want = x1 ** 3 - s1 * x1 ** 2 + s2 * x1 - s3
        assert char_poly_image(3, 1) == want
        assert char_poly_image(3, 1).is_homogeneous(3)

    def test_factored_identity_ordering_is_exact(self):
        for n in (3, 4):
            diffs = factored_char_coefficients(n)
            assert set(diffs) == set(range(n + 1))
            for k, d in diffs.items():
                assert d.is_zero(), f"k={k} nonzero for identity ordering"

    def test_factored_rotated_orderings_abelianize_to_zero(self):
        for n in (3, 4):
            for r in range(1, n):
                for k, d in factored_char_coefficients(n, r).items():
                    assert abelianize(d).is_zero()
                    assert d.is_zero() or d.is_homogeneous(k)

    def test_inverse_identity_image_shape(self):
        p = inverse_identity_image(3, 1)
        assert p.is_homogeneous(3)
        assert abelianize(p).is_zero()
        # leading structure: x1*(x1^2 - s1*x1 + s2) - s3
        s1, s2, s3 = (build_sigma(3, k) for k in (1, 2, 3))
        x1 = Polynomial.variable(1, 3)
        assert p == x1 * (x1 ** 2 - s1 * x1 + s2) - s3


class TestIndependence:
    def test_independent_at_small_bounds(self):
        for n, bound in [(3, 4), (4, 4), (5, 3)]:
            rep = verify_sigma_independence(n, bound)
            assert rep["independent"], rep
            assert rep["count"] == rep["rank"]

    def test_expected_product_count(self):
        # number of exponent tuples with weighted degree <= 4, n=4
        count = sum(1 for a1 in range(5) for a2 in range(3)
                    for a3 in range(2) for a4 in range(2)
                    if a1 + 2 * a2 + 3 * a3 + 4 * a4 <= 4)
        rep = verify_sigma_independence(4, 4)
        assert rep["count"] == count
