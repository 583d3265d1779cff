import pytest
from fractions import Fraction

from sigmaforge.cyclic import act, orbit, orbit_polynomial
from sigmaforge.ring import Monomial, Polynomial, variable_commutator
from sigmaforge.sigma import build_sigma


def M(*letters):
    return Monomial.from_letters(letters)


def shift_sum(p):
    """The sum of act(r, p, n) over the n rotations r."""
    n = p.arity
    return sum((act(r, p, n) for r in range(n)), Polynomial.zero(n))


def test_action_convention_on_sigma3():
    # the one-step shift must send x1*x2*x3 to x2*x3*x1
    assert act(1, M(1, 2, 3), 3) == M(2, 3, 1)
    assert act(1, build_sigma(3, 3), 3) == Polynomial.word([2, 3, 1], 3)


def test_rotation_is_taken_mod_n():
    for n in (3, 4, 5):
        m = M(1, 2, 2, n, 1)
        p = build_sigma(n, 2)
        for r in range(-2 * n - 1, 2 * n + 2):
            assert act(r, m, n) == act(r % n, m, n)
            assert act(r, p, n) == act(r % n, p, n)
        assert act(n, m, n) is m
        assert act(-1, act(1, m, n), n) == m
    with pytest.raises(ValueError):
        act(1, Monomial(), 0)


def test_action_preserves_exponents():
    m = Monomial((2, 2, 1))  # x2^2*x1
    assert act(2, m, 3) == Monomial((1, 1, 3))


def test_action_is_multiplicative():
    u, v = M(1, 2), M(2, 4, 4)
    assert act(1, u * v, 4) == act(1, u, 4) * act(1, v, 4)


def test_orbit_has_n_distinct_members():
    for n in (3, 4, 5):
        o = orbit(M(1, 2), n)
        assert len(o) == n == len(set(o))
    with pytest.raises(ValueError):
        orbit(Monomial(), 3)


def test_orbit_polynomial_invariant():
    p = orbit_polynomial(M(1, 2, 1), 3)
    assert act(1, p, 3) == p
    assert len(p.terms) == 3


def test_average_examples():
    # (1/3)*(orbit(x1*x2) - orbit(x1*x3)) is the average of the commutator
    c = variable_commutator(1, 2, 3)
    want = (orbit_polynomial(M(1, 2), 3) - orbit_polynomial(M(1, 3), 3)) \
        * Fraction(1, 3)
    assert shift_sum(c) * Fraction(1, 3) == want
    assert act(1, want, 3) == want


def test_average_fixes_invariants():
    p = orbit_polynomial(M(1, 3, 2), 3) * 5 + orbit_polynomial(M(1, 2), 3)
    assert shift_sum(p) == p * 3


def test_sigma_not_invariant_but_average_of_shifts():
    s2 = build_sigma(3, 2)
    assert act(1, s2, 3) != s2
    # each orbit counts its increasing words: x1*x2 and x2*x3 in the
    # orbit of x1*x2, x1*x3 in its own
    total = orbit_polynomial(M(1, 2), 3) * 2 + orbit_polynomial(M(1, 3), 3)
    assert shift_sum(s2) == total
    assert act(1, total, 3) == total
