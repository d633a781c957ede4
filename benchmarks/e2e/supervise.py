"""Run the benchmark as a child process and leave no process behind.

A run starts processes of its own: ``ShardServer``'s spawn shard
workers, the second replica-build process, and the spawn context's
resource tracker, which ends only once its parent has gone and so
outlives the interpreter that started it by a moment.  The entry points
(``run.py``, ``python -m benchmarks.e2e``) therefore do no work
themselves: they start :mod:`benchmarks.e2e.cli` in a session of its own,
adopt whatever it orphans (``PR_SET_CHILD_SUBREAPER``), and return only
when every process of that session has ended and every adopted one has
been waited for — on a clean exit, a crash, a watchdog ``os._exit`` or a
SIGTERM alike.  Stdout is inherited, so the child's last line is the
command's last line.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PR_SET_CHILD_SUBREAPER = 36
#: A process still running this long after the benchmark itself has
#: exited is not finishing on its own (the resource tracker needs
#: milliseconds): kill it.
ORPHAN_GRACE_S = 5.0
#: Environment variable carrying the entry point's start time
#: (``time.perf_counter()``, system-wide on Linux) so that ``setup_s``
#: counts from the command's start, not the child's.
T0_ENV = "BENCH_E2E_T0"


def kill_group(pgid: int) -> None:
    """SIGKILL every process of the group; none left is fine."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _running(sid: int) -> list[int]:
    """Pids of session ``sid`` that have not ended yet (a zombie has)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as fh:
                state, _ppid, _pgrp, session = \
                    fh.read().rpartition(")")[2].split()[:4]
        except OSError:                     # ended between listing and read
            continue
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


def end_session(sid: int, grace_s: float = ORPHAN_GRACE_S) -> None:
    """Return once no process of session ``sid`` (= its leader's process
    group, as nothing here changes groups) is running; whatever has not
    ended on its own after ``grace_s`` is killed."""
    give_up = time.monotonic() + grace_s
    while _running(sid):
        if time.monotonic() >= give_up:
            kill_group(sid)
        time.sleep(0.002)


def supervise(argv: list[str], t0: float) -> int:
    """Run ``python -m benchmarks.e2e.cli argv``; the exit code is the
    child's (non-zero if a signal ended it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env[T0_ENV] = repr(t0)
    # Orphaned descendants re-parent to this process instead of init, so
    # that it can wait for them.
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.cli", *argv], env=env,
        start_new_session=True)
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: kill_group(child.pid))
    code = child.wait()
    end_session(child.pid)
    while True:                             # wait for the adopted ones
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return code if code >= 0 else 128 - code
