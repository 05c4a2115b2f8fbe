"""Test configuration shared by every module.

Hypothesis draws a fixed example set (derived from each test's source) and
keeps no example database, so two runs of the suite try the same inputs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
