"""``PYTHONPATH=src python -m benchmarks.e2e`` — same as ``run.py``."""

import sys
import time

T0 = time.perf_counter()

if __name__ == "__main__":
    from benchmarks.e2e.supervise import supervise

    sys.exit(supervise(sys.argv[1:], T0))
