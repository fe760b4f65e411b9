"""Hypothesis draws the same examples on every run and keeps no example
database, so a property test that fails does so on every checkout."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
