"""Shared test configuration: Hypothesis profiles and a fixed cost table.

The ``ci`` profile (selected with ``HYPOTHESIS_PROFILE=ci``) pins the
example stream (``derandomize=True``) so CI failures reproduce locally,
and prints the failing blob so the run log itself is the failure corpus.
The default ``dev`` profile keeps Hypothesis's randomized exploration
but disables deadlines — several suites build real replica grids per
example, and wall-clock flakiness is not a correctness signal.
"""

import os

from hypothesis import HealthCheck, Verbosity, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", deadline=None)
settings.register_profile(
    "thorough",
    max_examples=500,
    deadline=None,
    verbosity=Verbosity.normal,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

#: Fixed Eq. 6 rows ``(encoding, scan_rate, extra_time)`` for tests whose
#: assertions hang on which replica is primary (failover counts, pinned
#: primaries): passed as ``cost_params=``, they keep routing independent
#: of how fast this host decodes.  Stores left to measure their own rows
#: are covered by ``tests/storage/test_store_config.py`` and
#: ``tests/storage/test_ingest.py``.
FIXED_COST_PARAMS = (
    ("ROW-PLAIN", 5.0e6, 0.0020),
    ("ROW-SNAPPY", 4.0e6, 0.0022),
    ("ROW-GZIP", 2.2e6, 0.0030),
    ("ROW-LZMA2", 1.2e6, 0.0045),
    ("COL-PLAIN", 6.0e6, 0.0020),
    ("COL-SNAPPY", 4.5e6, 0.0022),
    ("COL-GZIP", 2.5e6, 0.0030),
    ("COL-LZMA2", 1.4e6, 0.0045),
)
