"""Span tracing over virtual (or charged) time.

A :class:`Span` is one named interval on one process's timeline.  Spans nest
per process — the tracer keeps a stack per process name, so a ``push`` span
opened inside a ``query`` span records the query as its parent — and RPC
spans come in linked client/server pairs: the server span's ``link`` field
carries the client span's id, which is how a Chrome trace reconstructs the
message flow between machines.

Span clocks are whatever the owning process calls time: virtual seconds on
the :class:`~repro.simt.scheduler.Scheduler`, accumulated charged seconds on
a :class:`~repro.rpc.thread_runtime.ThreadRuntime`.  The tracer never reads
a wall clock itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Span:
    """One completed interval on one process's timeline."""

    span_id: int
    name: str
    process: str
    start: float
    end: float
    parent_id: int | None = None
    #: "span" (plain nested interval), "client" (RPC caller side),
    #: "server" (RPC service side)
    kind: str = "span"
    #: for ``kind="server"``: the linked client span's id
    link: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: default cap on retained spans — long bench/chaos runs record millions of
#: intervals; past the cap new spans are counted but not stored
DEFAULT_MAX_SPANS = 262_144


class SpanTracer:
    """Collects spans; hands out ids; tracks one open-span stack per process.

    ``max_spans`` bounds memory: once the list reaches the cap, further
    spans are *dropped* (the earliest spans are kept — the start of a run
    is usually the interesting part of a trace) and counted in
    ``dropped``; when a :class:`~repro.obs.metrics.MetricsRegistry` is
    attached, every drop also increments the ``obs.spans_dropped`` counter.
    ``max_spans=None`` disables the cap.
    """

    def __init__(self, max_spans: int | None = DEFAULT_MAX_SPANS,
                 metrics=None) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError(f"max_spans must be >= 1 or None, got {max_spans}")
        self.spans: list[Span] = []
        self.max_spans = max_spans
        self.dropped = 0
        self.metrics = metrics
        self._lock = threading.Lock()
        self._next = 1
        self._stacks: dict[str, list[int]] = {}

    def __len__(self) -> int:
        return len(self.spans)

    def next_id(self) -> int:
        with self._lock:
            out = self._next
            self._next += 1
            return out

    def current(self, process: str) -> int | None:
        """The innermost open span id on ``process``, or None."""
        stack = self._stacks.get(process)
        return stack[-1] if stack else None

    def record(self, name: str, process: str, start: float, end: float, *,
               span_id: int | None = None, parent_id: int | None = None,
               kind: str = "span", link: int | None = None,
               attrs: dict | None = None) -> int:
        """Append a completed span; returns its id."""
        if span_id is None:
            span_id = self.next_id()
        with self._lock:
            if self.max_spans is not None and len(self.spans) >= self.max_spans:
                self.dropped += 1
                drop = True
            else:
                self.spans.append(Span(
                    span_id=span_id, name=name, process=process,
                    start=start, end=end, parent_id=parent_id, kind=kind,
                    link=link, attrs=attrs or {},
                ))
                drop = False
        if drop and self.metrics is not None:
            self.metrics.inc("obs.spans_dropped")
        return span_id

    def span(self, process: str, name: str, clock: Callable[[], float],
             attrs: dict | None = None) -> "_OpenSpan":
        """Context manager: an interval read off ``clock`` at enter/exit.

        Safe to hold across generator suspensions — the span simply covers
        everything (waits included) between enter and exit on that
        process's clock.
        """
        return _OpenSpan(self, process, name, clock, attrs)

    # -- queries ------------------------------------------------------------
    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def by_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]


class _OpenSpan:
    __slots__ = ("_tracer", "_process", "_name", "_clock", "_attrs",
                 "_id", "_parent", "_start")

    def __init__(self, tracer: SpanTracer, process: str, name: str,
                 clock: Callable[[], float], attrs: dict | None) -> None:
        self._tracer = tracer
        self._process = process
        self._name = name
        self._clock = clock
        self._attrs = attrs

    def __enter__(self) -> "_OpenSpan":
        self._id = self._tracer.next_id()
        self._parent = self._tracer.current(self._process)
        self._tracer._stacks.setdefault(self._process, []).append(self._id)
        self._start = self._clock()
        return self

    def __exit__(self, *exc) -> None:
        stack = self._tracer._stacks.get(self._process)
        if stack and stack[-1] == self._id:
            stack.pop()
        self._tracer.record(
            self._name, self._process, self._start, self._clock(),
            span_id=self._id, parent_id=self._parent, attrs=self._attrs,
        )
