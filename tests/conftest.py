"""Shared test settings.

Property tests run under one Hypothesis profile: examples are derived
from each test's source rather than drawn at random, so every run of
the suite tries the same inputs; the example count is bounded, and no
per-example deadline applies, because exact arithmetic on a loaded
machine is slow but not wrong.  Nothing is written to an example
database.
"""

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "sigmaforge", derandomize=True, max_examples=60, deadline=None,
        database=None, suppress_health_check=[HealthCheck.too_slow])
    settings.load_profile("sigmaforge")
