"""Coalescing concurrent range queries into batched shard dispatches.

The engine's ``execute_each`` decodes each involved partition once
per *batch* instead of once per query — but only if concurrent requests
actually arrive as one workload.  The :class:`Batcher` is that funnel,
and it batches *naturally*: one batch is in flight at a time, and
whatever arrived while it ran is the next batch.  There is no window
and no timer — an idle tier adds no wait of its own, and batch size
follows load by itself.
"""

from __future__ import annotations

import asyncio


class Batcher:
    """Natural (load-following) query coalescing on the asyncio loop.

    With nothing in flight, a submit schedules the flush for the end of
    the current loop tick, so queries submitted together (a ``gather``)
    share one batch.  While a batch is in flight arrivals accumulate and
    flush the moment it completes, at most ``max_batch`` at a time.

    ``flush`` is an async callable receiving ``[(query, future), ...]``;
    it must resolve every future (result or exception).  Any exception
    escaping ``flush`` itself is propagated to the batch's unresolved
    futures, so a submitter can never hang on a crashed flush.
    """

    def __init__(self, flush, max_batch: int = 64):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush_cb = flush
        self._max_batch = max_batch
        self._pending: list = []
        self._inflight: asyncio.Task | None = None
        self.batches_flushed = 0
        self.queries_batched = 0

    async def submit(self, query):
        """Queue one query; resolves with the flush callback's result
        for it."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((query, future))
        self.queries_batched += 1
        # The first arrival of an idle batcher arms the flush; later
        # ones this tick ride it, and with a batch in flight its
        # completion flushes them.
        if self._inflight is None and len(self._pending) == 1:
            loop.call_soon(self._flush_next)
        return await future

    async def drain(self) -> None:
        """Flush anything pending and wait until nothing is in flight."""
        self._flush_next()
        while self._inflight is not None:
            # _flush_done (added first) has run by the time this wakes.
            await asyncio.wait([self._inflight])

    def _flush_next(self) -> None:
        if self._inflight is not None or not self._pending:
            return
        batch = self._pending[:self._max_batch]
        del self._pending[:self._max_batch]
        self.batches_flushed += 1
        self._inflight = asyncio.ensure_future(self._run_flush(batch))
        self._inflight.add_done_callback(self._flush_done)

    def _flush_done(self, _task) -> None:
        self._inflight = None
        self._flush_next()

    async def _run_flush(self, batch) -> None:
        try:
            await self._flush_cb(batch)
        except BaseException as exc:  # noqa: BLE001 - must not strand futures
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
