"""Settings shared by every test module."""

from hypothesis import settings

# Tier-1 must not turn red at random: every run draws the same examples,
# and no example database carries a failure from one run into the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
