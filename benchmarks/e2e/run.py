"""``python3 benchmarks/e2e/run.py`` — the ``BENCHMARK.json`` command.

Needs no ``PYTHONPATH``: hands the arguments to
:func:`benchmarks.e2e.supervise.supervise`, which runs
:mod:`benchmarks.e2e.cli` with the checkout's root and ``src/`` on its
path and returns once every process of the run has ended.
"""

import sys
import time
from pathlib import Path

T0 = time.perf_counter()        # set-up time counts from here
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

if __name__ == "__main__":
    from benchmarks.e2e.supervise import supervise

    sys.exit(supervise(sys.argv[1:], T0))
