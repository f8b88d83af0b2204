"""Shared test settings.

One hypothesis profile for every property test: no deadline (the kernels
under test take variable time), derandomized draws so a run repeats
exactly, and no example database left behind.  Tests set only their own
max_examples and health-check exemptions.
"""

from hypothesis import settings

settings.register_profile("skewdyn", deadline=None, derandomize=True, database=None)
settings.load_profile("skewdyn")
