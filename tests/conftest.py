"""Shared test settings.

Every hypothesis property runs derandomized and without a deadline, so the
suite is deterministic and its timings do not fail it on a busy host; a
test's own ``@settings`` only sets how many examples it draws.
"""

from hypothesis import settings

settings.register_profile("squintsim", derandomize=True, deadline=None)
settings.load_profile("squintsim")
