"""Acceptance harness: one test per criterion, each with a time budget.

Every test prints a single pass/fail line. The budgets are the stated
ceilings; the measured times on a laptop are far below them, so a
budget overrun signals a real regression rather than jitter.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from oracles import (
    sigma_alpha_decomposition,
    sigma_via_recursion_first,
    sigma_via_recursion_last,
)
from sigmaforge import cyclic, ideal, matmodel, n3lab, rewrite
from sigmaforge.atoms import (
    enumerate_atoms,
    factor_atoms,
    orbit_max,
    semigroup_product,
)
from sigmaforge.ring import Monomial, Polynomial, basis_words, parse_poly
from sigmaforge.sigma import build_sigma


@contextmanager
def criterion(num, label, budget):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"acceptance {num:2d} {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"acceptance {num:2d} {label}: PASS ({elapsed:.2f}s of {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _random_word(rng, n, max_degree=8):
    length = rng.randint(1, 4)
    letters = [rng.randint(1, n)]
    while len(letters) < length:
        nxt = rng.randint(1, n)
        if nxt != letters[-1]:
            letters.append(nxt)
    exps = [rng.randint(1, 2) for _ in letters]
    while sum(exps) > max_degree:
        exps[exps.index(max(exps))] = 1
    return Monomial(i for i, e in zip(letters, exps) for _ in range(e))


def test_01_sigma_construction():
    with criterion(1, "sigma construction", 1.0):
        for n in range(3, 7):
            letters = tuple(range(1, n + 1))
            for k in range(0, n + 1):
                s = build_sigma(n, k)
                assert len(s.terms) == math.comb(n, k)
                assert s == sigma_via_recursion_first(letters, k, n)
                assert s == sigma_via_recursion_last(letters, k, n)


def test_02_generator_spans_agree():
    with criterion(2, "generator families span the same slices", 60.0):
        units = (ideal.run_check("thm_1_1", 3, max_degree=6)
                 + ideal.run_check("thm_1_1", 4, max_degree=5))
        assert len(units) == 9
        assert all(u["status"] == "pass" for u in units)


def test_03_quadratic_independence_and_diagonal_expansion():
    with criterion(3, "quadratic commutator structure", 5.0):
        for n in range(3, 7):
            units = ideal.run_check("thm_1_3_independence", n)
            assert all(u["status"] == "pass" for u in units)
            expected = (n - 1) * (n - 2) // 2
            assert units[0]["witness"]["count"] == expected
            assert units[0]["witness"]["rank"] == expected
        # n=3 carries the one relation class as extra certified units
        assert len(ideal.run_check("thm_1_3_independence", 3)) == 4
        for n in range(3, 7):
            units = ideal.run_check("eq_4", n)
            assert all(u["status"] == "pass" for u in units)
            signs = {u["witness"]["k"]: u["witness"]["second_sum_sign"]
                     for u in units}
            assert signs[n] == "empty"
            assert all(s == "+1" for k, s in signs.items() if k < n)


def test_04_single_commutators_stay_outside():
    with criterion(4, "single commutators are non-members", 5.0):
        for n in (3, 4, 5):
            units = ideal.run_check("cor_1_4", n)
            assert len(units) == n * (n - 1) // 2
            assert all(u["status"] == "pass" for u in units)
            assert all(u["witness"]["residual"] != "0" for u in units)


def test_05_weighted_commutator_identity():
    with criterion(5, "weighted commutator identity", 5.0):
        for n in (3, 4, 5):
            units = ideal.run_check("cor_1_5", n)
            assert all(u["status"] == "pass" for u in units)
        # for n=3 the identity is [2,1] + [3,2] = 2[1,3]
        from sigmaforge.ring import variable_commutator

        diff = (variable_commutator(2, 1, 3) + variable_commutator(3, 2, 3)
                - variable_commutator(1, 3, 3) * 2)
        assert ideal.cor_1_5_difference(3) == diff
        assert ideal.member(diff, ideal.commutator_generators(3)).member


def test_06_quadratic_quotient_and_roundtrip():
    with criterion(6, "quadratic quotient dimension and round trip", 10.0):
        for n, expected in ((3, 7), (4, 13), (5, 21), (6, 31)):
            assert ideal.quotient_dim(n, 2) == expected == n * n - n + 1
        rng = random.Random(20)
        words = basis_words(3, 2)
        gset = ideal.commutator_generators(3)
        for _ in range(100):
            p = Polynomial(
                {w: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for w in rng.sample(words, rng.randint(1, len(words)))}, 3)
            if p.is_zero():
                continue
            coeffs = ideal.canonical_quadratic(p)
            recon = ideal.reconstruct_quadratic(coeffs, 3)
            assert ideal.member(p - recon, gset).member
            # coefficients are unique: reading them back is stable
            assert ideal.canonical_quadratic(recon) == coeffs


def test_07_root_factorization_inverse_identities():
    with criterion(7, "root, factorization and inverse identities", 60.0):
        for name in ("root_identity", "factored_coeffs", "inverse_identity"):
            for n in (3, 4, 5, 6):
                units = ideal.run_check(name, n)
                assert units, name
                assert all(u["status"] == "pass" for u in units)


def test_08_atoms_factorization_and_order():
    with criterion(8, "atom combinatorics and the word order", 10.0):
        for n in (3, 4):
            for d in range(1, 6):
                assert len(enumerate_atoms(n, d)) == (n - 1) ** (d - 1)
        rng = random.Random(21)
        for _ in range(500):
            n = rng.choice((3, 4))
            m = _random_word(rng, n)
            rep = orbit_max(m, n)
            factors = factor_atoms(m, n)
            assert semigroup_product(factors, n) == rep
        pool = [_random_word(rng, 3) for _ in range(60)]
        pool += [_random_word(rng, 4, max_degree=6) for _ in range(60)]
        for _ in range(10_000):
            a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            ka, kb, kc = a.sort_key(), b.sort_key(), c.sort_key()
            assert [ka < kb, ka == kb, ka > kb].count(True) == 1
            assert (ka == kb) == (a == b)
            assert (ka < kb) == (kb > ka) == (a < b)
            if ka <= kb and kb <= kc:
                assert ka <= kc


def test_09_rewriter_worked_examples_and_roundtrip():
    with criterion(9, "invariant rewriter", 10.0):
        sq = cyclic.orbit_polynomial(Monomial((1, 1)), 3)
        assert rewrite.rewrite_invariant(sq).render() == (
            "-O[x1*x2] - O[x1*x3] + O[x1]^2")
        cu = cyclic.orbit_polynomial(Monomial((1, 1, 1)), 3)
        assert rewrite.rewrite_invariant(cu).render() == (
            "O[x1*x2*x1] + O[x1*x2*x3] + O[x1*x3*x1] + O[x1*x3*x2]"
            " - O[x1*x2]*O[x1] - O[x1*x3]*O[x1]"
            " - O[x1]*O[x1*x2] - O[x1]*O[x1*x3] + O[x1]^3")
        rng = random.Random(22)
        for trial in range(200):
            n = 3 if trial % 2 else 4
            p = Polynomial.zero(n)
            for _ in range(rng.randint(1, 3)):
                m = _random_word(rng, n, max_degree=5)
                p = p + cyclic.orbit_polynomial(m, n) * Fraction(
                    rng.randint(-6, 6), rng.randint(1, 3))
            expr = rewrite.rewrite_invariant(p)
            assert expr.evaluate() == p
        table = {k: sorted(map(int, sigma_alpha_decomposition(4, k)
                               .values()), reverse=True)
                 for k in (2, 3, 4)}
        assert table == {2: [3, 2, 1], 3: [2, 1, 1], 4: [1]}


def test_10_three_variable_suite():
    with criterion(10, "three-variable suite at degree bound six", 120.0):
        units = n3lab.verify_n3_suite(max_degree=6)
        assert len(units) >= 35
        assert all(u["status"] == "pass" for u in units)
        names = {u["check"] for u in units}
        for expected in ("n3_base_table", "n3_xc_shift", "n3_xc2_shift",
                         "n3_c3_central", "n3_orbit121_central",
                         "n3_reversal_nonmember", "n3_cubic",
                         "n3_s_reduce_atoms"):
            assert expected in names


def test_11_matrix_model_equivalence():
    with criterion(11, "matrix model equivalence property", 30.0):
        plan = (("commuting", 3), ("conj-cyclic", 3),
                ("block-triangular", 3), ("dense", 2))
        for family, dim in plan:
            rng = random.Random(23)
            for _ in range(2500):
                t = matmodel.random_tuple(family, 3, dim, rng)
                invariant, commuting = matmodel.check_c12(t)
                assert invariant == commuting
