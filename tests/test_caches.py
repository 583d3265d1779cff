"""``sigmaforge.clear_caches()`` empties every process-wide cache."""

import importlib
import pkgutil

import sigmaforge
from sigmaforge import atoms, cyclic, ideal, n3lab
from sigmaforge.ring import Monomial, parse_poly


def package_modules():
    return [importlib.import_module(f"sigmaforge.{info.name}")
            for info in pkgutil.iter_modules(sigmaforge.__path__)]


def lru_caches():
    """Every lru_cache-wrapped function defined in the package."""
    found = {}
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if (callable(getattr(obj, "cache_info", None))
                    and getattr(obj, "__module__", None) == mod.__name__):
                found[f"{mod.__name__}.{name}"] = obj
    return found


def fill():
    """Slices, reductions and rewrites that fill every cache."""
    comm = ideal.commutator_generators(3)
    slices = [ideal.degree_slice(comm, 4),
              ideal.degree_slice(comm, 3, with_tags=True),
              ideal.degree_slice(ideal.difference_generators(4), 3)]
    ideal.canonical_quadratic(parse_poly("x1*x2 - x2*x1", 3))
    inv = cyclic.orbit_polynomial(Monomial.from_letters([1, 1, 2, 1, 3]), 3)
    reductions = [n3lab.reduce_invariant(inv),
                  n3lab.reduce_orbit(Monomial.from_letters([1, 2, 3, 1, 3])),
                  n3lab.expand_to_ring(n3lab.reduce_invariant(inv))]
    words = atoms.enumerate_atoms(3, 4)
    return slices, reductions, words


def test_clear_caches_empties_every_cache_and_rebuilds_equal_values():
    caches = lru_caches()
    # the caches the package is known to keep
    assert {"sigmaforge.ring.basis_words", "sigmaforge.sigma.build_sigma",
            "sigmaforge.atoms.enumerate_atoms",
            "sigmaforge.ideal.commutator_generators",
            "sigmaforge.n3lab._sym"} <= set(caches)
    slices, reductions, words = fill()
    # one slice per family and degree, whatever with_tags says
    assert slices[1] is ideal.degree_slice(ideal.commutator_generators(3), 3)
    assert all(cached.cache_info().currsize for cached in caches.values())
    assert ideal._slice_cache and n3lab._S_CACHE

    sigmaforge.clear_caches()
    for name, cached in caches.items():
        assert cached.cache_info().currsize == 0, name
    assert len(ideal._slice_cache) == 0
    assert len(n3lab._S_CACHE) == 0

    new_slices, new_reductions, new_words = fill()
    for old, new in zip(slices, new_slices):
        assert new is not old
        assert new.space == old.space
        assert new.space.rows == old.space.rows
        assert new.basis == old.basis
        assert new.space._records == old.space._records
    assert new_reductions == reductions
    assert new_words == words
