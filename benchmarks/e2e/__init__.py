"""The repo's end-to-end benchmark: four named workloads over one seeded
1M-record store, absolute QPS/latency, a per-layer budget and rooflines.

Entry points: ``python3 benchmarks/e2e/run.py`` (the ``BENCHMARK.json``
command) and ``PYTHONPATH=src python -m benchmarks.e2e``.  See README.md.
"""
