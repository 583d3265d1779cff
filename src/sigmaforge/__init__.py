"""Exact computations in the free ring on n noncommuting variables."""

__version__ = "0.1.0"

from .ring import Monomial, Polynomial, parse_poly, render_poly  # noqa: F401


def clear_caches():
    """Empty every process-wide cache of the package: word bases,
    elementary polynomials, atom lists, generator families, degree
    slices and the n3 tables.  The next call rebuilds what it needs."""
    import importlib

    for name in ("ring", "sigma", "atoms", "ideal", "n3lab"):
        importlib.import_module(f"{__name__}.{name}").clear_caches()
