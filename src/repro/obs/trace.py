"""Per-query trace spans with parent/child structure.

A *span* covers one timed step of query execution — ``route``, a
per-partition ``scan``, the ``decode`` inside it, a ``repair`` — and
carries its parent's id, so a query's spans reassemble into a tree
("where did this query spend its time?").  Decisions that take no time
are zero-duration *events* under the same parent: a ``cache`` probe, a
``failover`` hop, and a ``retry``, which re-reads the unit at once.
Completed spans land in a bounded ring buffer (:class:`TraceRecorder`),
dumpable as JSON lines for offline analysis.

The engine never checks "is tracing on?" at each step: it asks the
store for a recorder once per call and gets either the real
:class:`TraceRecorder` or the shared :data:`NULL_RECORDER`, whose
methods are no-ops.  The disabled path therefore costs one attribute
check per query — the PR 1 benchmark gate stays green.

All methods are thread-safe: reads on several caller threads may
finish their spans concurrently.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field


def _span_id_seed() -> int:
    """A process- and instance-unique starting point for span ids.

    Span/trace ids must stay unique across *recorders*, not just within
    one: the serving tier runs one recorder per spawn worker and
    stitches their dumps into one tree, so two workers handing out
    ``1, 2, 3, ...`` would collide on every id.  Each recorder instead
    counts up from an independent random point in a 63-bit space (PID
    folded in as belt-and-braces against a weak entropy source); two
    recorders collide only if one emits enough spans to walk into the
    other's random offset — vanishingly improbable for any real run.
    """
    seed = int.from_bytes(os.urandom(8), "big") ^ (os.getpid() << 24)
    seed &= (1 << 63) - 1
    return seed or 1  # 0 is the null handle's id


@dataclass(slots=True)
class Span:
    """One timed step of query execution.

    ``start``/``end`` are ``time.perf_counter()`` readings — durations
    and sibling ordering are meaningful, absolute values are not.
    ``end`` is None while the span is open.
    """

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
        }


class _SpanHandle:
    """An open span: context manager, annotatable, finishable."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "TraceRecorder", span: Span):
        self._recorder = recorder
        self.span = span

    @property
    def span_id(self) -> int:
        return self.span.span_id

    @property
    def trace_id(self) -> int:
        return self.span.trace_id

    def annotate(self, **attrs: object) -> None:
        self.span.attrs.update(attrs)

    def finish(self) -> None:
        self._recorder.finish(self)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and "error" not in self.span.attrs:
            self.span.attrs["error"] = f"{type(exc).__name__}: {exc}"
        self.finish()


class TraceRecorder:
    """Collects finished spans into a bounded ring buffer.

    ``capacity`` bounds the number of *retained* spans — the recorder
    never grows without bound under a long-running workload; old spans
    fall off the front.  ``clock`` is injectable for deterministic
    tests.
    """

    enabled = True

    def __init__(self, capacity: int = 8192, clock=time.perf_counter):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = int(capacity)
        self._clock = clock
        self._spans: deque[Span] = deque(maxlen=self._capacity)
        self._ids = itertools.count(_span_id_seed())
        self._recorded = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- span lifecycle ----------------------------------------------------

    def start(self, name: str, parent: "_SpanHandle | None" = None, *,
              context=None, **attrs: object) -> _SpanHandle:
        """Open a span.  With no ``parent`` the span roots a new trace;
        otherwise it joins the parent's trace as a child.

        ``context`` is a remote parent — anything with ``trace_id`` and
        ``parent_span_id`` attributes (see
        :class:`repro.obs.distributed.TraceContext`).  It lets a span in
        this process continue a trace started in another one: the span
        adopts the context's trace id and parents under the remote span
        instead of rooting a new trace.  A local ``parent`` wins over a
        ``context`` when both are given.
        """
        # next() on itertools.count is atomic under the GIL — id
        # allocation needs no lock (spans start on pool threads, and
        # this sits on the engine's per-scan hot path).
        span_id = next(self._ids)
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        elif context is not None:
            trace_id = context.trace_id
            parent_id = context.parent_span_id
        else:
            trace_id = span_id
            parent_id = None
        span = Span(
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=self._clock(),
            attrs=attrs,  # the kwargs dict is fresh per call — owned
        )
        return _SpanHandle(self, span)

    def finish(self, handle: _SpanHandle) -> None:
        span = handle.span
        if span.end is not None:
            return  # already finished (double close is harmless)
        span.end = self._clock()
        with self._lock:
            self._spans.append(span)
            self._recorded += 1

    def event(self, name: str, parent: "_SpanHandle | None" = None,
              **attrs: object) -> None:
        """A zero-duration span — for instants like a failover decision."""
        self.finish(self.start(name, parent=parent, **attrs))

    # -- inspection --------------------------------------------------------

    def spans(self) -> list[Span]:
        """The retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    @property
    def recorded(self) -> int:
        """Spans finished over the recorder's lifetime (>= ``len(spans())``
        once the ring buffer wraps)."""
        with self._lock:
            return self._recorded

    def span_counts(self) -> dict[str, int]:
        """Retained span tally by name, for summaries."""
        return dict(_TallyCounter(s.name for s in self.spans()))

    def traces(self) -> dict[int, list[Span]]:
        """Retained spans grouped by trace id (each list oldest-first)."""
        out: dict[int, list[Span]] = {}
        for span in self.spans():
            out.setdefault(span.trace_id, []).append(span)
        return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """The retained spans as JSON lines (one span per line)."""
        return "".join(json.dumps(s.to_dict(), sort_keys=True) + "\n"
                       for s in self.spans())

    def dump_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns spans written."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return len(spans)


class _NullHandle:
    """The shared no-op span handle the null recorder hands out."""

    __slots__ = ()
    span_id = 0
    trace_id = 0

    def annotate(self, **attrs: object) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_HANDLE = _NullHandle()


class NullTraceRecorder:
    """The do-nothing recorder used when tracing is disabled.

    Shares the :class:`TraceRecorder` surface so instrumented code needs
    no conditionals; every method is a constant-time no-op.
    """

    enabled = False
    capacity = 0
    recorded = 0

    def start(self, name: str, parent=None, *, context=None,
              **attrs: object) -> _NullHandle:
        return _NULL_HANDLE

    def finish(self, handle) -> None:
        pass

    def event(self, name: str, parent=None, **attrs: object) -> None:
        pass

    def spans(self) -> list[Span]:
        return []

    def span_counts(self) -> dict[str, int]:
        return {}

    def traces(self) -> dict[int, list[Span]]:
        return {}

    def clear(self) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def dump_jsonl(self, path: str) -> int:
        with open(path, "w", encoding="utf-8"):
            pass
        return 0


#: The process-wide no-op recorder; instrumented code holds this when
#: tracing is off, so the disabled path never branches per step.
NULL_RECORDER = NullTraceRecorder()
