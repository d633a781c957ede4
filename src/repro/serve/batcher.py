"""Coalescing concurrent range queries into batched shard dispatches.

The engine's ``execute_each`` decodes each involved partition once
per *batch* instead of once per query — but only if concurrent requests
actually arrive as one workload.  The :class:`Batcher` is that funnel:
admitted queries wait up to ``window_seconds`` (or until ``max_batch``
queued) and flush together into one routed, sharded dispatch.
"""

from __future__ import annotations

import asyncio


class Batcher:
    """Window/size-bounded query coalescing on the asyncio loop.

    ``flush`` is an async callable receiving ``[(query, future), ...]``;
    it must resolve every future (result or exception).  Any exception
    escaping ``flush`` itself is propagated to the batch's unresolved
    futures, so a submitter can never hang on a crashed flush.
    """

    def __init__(self, flush, window_seconds: float = 0.002,
                 max_batch: int = 64):
        if window_seconds < 0:
            raise ValueError("window_seconds must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._flush_cb = flush
        self._window = window_seconds
        self._max_batch = max_batch
        self._pending: list = []
        self._timer: asyncio.TimerHandle | None = None
        self._inflight: set[asyncio.Task] = set()
        self.batches_flushed = 0
        self.queries_batched = 0

    async def submit(self, query):
        """Queue one query; resolves with the flush callback's result
        for it."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append((query, future))
        self.queries_batched += 1
        if len(self._pending) >= self._max_batch:
            self._flush_now()
        elif self._timer is None:
            self._timer = loop.call_later(self._window, self._flush_now)
        return await future

    async def drain(self) -> None:
        """Flush anything pending and wait for in-flight batches."""
        self._flush_now()
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight),
                                 return_exceptions=True)

    def _flush_now(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self.batches_flushed += 1
        task = asyncio.ensure_future(self._run_flush(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_flush(self, batch) -> None:
        try:
            await self._flush_cb(batch)
        except BaseException as exc:  # noqa: BLE001 - must not strand futures
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            if not isinstance(exc, Exception):
                raise
