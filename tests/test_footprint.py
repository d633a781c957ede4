"""What a fresh interpreter pays for ``repro``.

The benchmark process, the fine-replica build child and every spawn
shard worker import ``repro`` and most of them generate a dataset, so
both costs are measured in a child interpreter of their own.
"""

import json
import os
import subprocess
import sys

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def _run_child(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_repro_loads_no_scipy():
    # scipy is imported by the MIP backend that uses it, not by ``repro``.
    got = _run_child(
        "import json, sys\n"
        "import repro\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    assert got == []


def test_generating_a_million_records_grows_rss_under_two_dataset_sizes():
    got = _run_child(
        "import json, resource\n"
        "import repro\n"
        "from repro.data import synthetic_shanghai_taxis\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "data = synthetic_shanghai_taxis(1_000_000, seed=2014, num_taxis=500)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(json.dumps({'grew': (after - before) * 1024,\n"
        "                  'size': data.binary_size_bytes()}))\n"
    )
    # The fleet is generated ~15 % oversized and trimmed one column at a
    # time, so the peak is the generated columns plus one spare column.
    assert got["grew"] <= 2 * got["size"], got
