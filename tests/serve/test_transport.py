"""The pipe transport's failure and lifetime contract: a lost worker is
a structured :class:`~repro.errors.WorkerLostError` (never a hang),
``start()`` returns only once every shard is hydrated, and ``stop()``
gives back every file descriptor and thread it took.
"""

import asyncio
import gc
import multiprocessing as mp
import os
import signal
import threading

import pytest

import repro.serve.worker as worker_module
from repro.errors import WorkerLostError
from repro.serve import ShardServer

#: A lost worker must surface within this long, not hang.
LOSS_TIMEOUT_S = 5.0

#: Thread workers die on purpose below; pytest would report each death.
dying_thread = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestWorkerLoss:
    def test_killed_spawn_worker_fails_the_batch_in_flight(self, config,
                                                           queries):
        async def go():
            async with ShardServer(config, n_shards=2,
                                   worker_mode="process") as server:
                victim = mp.active_children()[0]
                # Freeze the worker first so the batch is certainly
                # still in flight when the kill lands.
                os.kill(victim.pid, signal.SIGSTOP)
                inflight = asyncio.ensure_future(server.query(queries[0]))
                await asyncio.wait([inflight], timeout=0.05)
                assert not inflight.done()
                os.kill(victim.pid, signal.SIGKILL)
                with pytest.raises(WorkerLostError) as lost:
                    await asyncio.wait_for(inflight, LOSS_TIMEOUT_S)
                # ...and every later request fails the same way.
                with pytest.raises(WorkerLostError) as later:
                    await asyncio.wait_for(server.query(queries[1]),
                                           LOSS_TIMEOUT_S)
                return lost.value, later.value

        lost, later = asyncio.run(go())
        assert lost.exitcode == -signal.SIGKILL
        assert later.shard_id == lost.shard_id
        assert lost.shard_id in (0, 1)

    @dying_thread
    def test_dead_thread_worker_fails_the_batch_in_flight(
            self, config, queries, monkeypatch):
        # The thread-mode twin: the worker leaves its loop mid-request
        # and closes its pipe ends on the way out.
        def die(store, request, shard_id, options):
            raise SystemExit

        async def go():
            async with ShardServer(config, n_shards=2) as server:
                await server.query(queries[0])
                monkeypatch.setattr(worker_module, "_serve_request", die)
                with pytest.raises(WorkerLostError) as lost:
                    await asyncio.wait_for(server.query(queries[1]),
                                           LOSS_TIMEOUT_S)
                with pytest.raises(WorkerLostError):
                    await asyncio.wait_for(server.metrics_snapshot(),
                                           LOSS_TIMEOUT_S)
                return lost.value

        lost = asyncio.run(go())
        assert lost.exitcode is None
        assert "shard worker" in str(lost)


class TestReadyHandshake:
    def test_start_returns_with_every_shard_hydrated(self, config,
                                                     monkeypatch):
        hydrated = []
        real_open = worker_module._open_shard_store

        def recording_open(config, assignment, shard_id):
            store = real_open(config, assignment, shard_id)
            hydrated.append(shard_id)
            return store

        monkeypatch.setattr(worker_module, "_open_shard_store",
                            recording_open)

        async def go():
            server = ShardServer(config, n_shards=3)
            await server.start()
            seen = sorted(hydrated)
            await server.stop()
            return seen

        assert asyncio.run(go()) == [0, 1, 2]

    @dying_thread
    def test_worker_dying_while_hydrating_fails_start(self, config,
                                                      monkeypatch):
        real_open = worker_module._open_shard_store

        def flaky_open(config, assignment, shard_id):
            if shard_id == 1:
                raise SystemExit
            return real_open(config, assignment, shard_id)

        monkeypatch.setattr(worker_module, "_open_shard_store", flaky_open)
        threads_before = threading.active_count()

        async def go():
            server = ShardServer(config, n_shards=2)
            with pytest.raises(WorkerLostError) as lost:
                await asyncio.wait_for(server.start(), LOSS_TIMEOUT_S)
            # The failed start tore the healthy shard down again.
            with pytest.raises(RuntimeError, match="not started"):
                await server.query(None)
            return lost.value

        assert asyncio.run(go()).shard_id == 1
        assert threading.active_count() == threads_before


class TestNoLeaks:
    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_stop_returns_every_fd_and_thread(self, config, queries,
                                              worker_mode):
        async def go():
            async with ShardServer(config, n_shards=2,
                                   worker_mode=worker_mode) as server:
                await server.execute(queries[:4])
                await server.metrics_snapshot()

        # One throwaway loop first: whatever asyncio and (in process
        # mode) multiprocessing's resource tracker keep open for the
        # life of the interpreter is in the baseline; what earlier
        # tests left to the garbage collector is not.
        asyncio.run(go())
        gc.collect()
        fds, threads = open_fds(), threading.active_count()
        asyncio.run(go())
        assert open_fds() == fds
        assert threading.active_count() == threads
        assert mp.active_children() == []
