"""Causal trace graph and critical-path extraction.

:class:`SpanTracer` records two causal relations: parent/child nesting
inside one process (driver spans, compute categories, RPC client
spans) and client→server links across processes (the propagated span
id).  This module reconstructs that DAG on the virtual clock and walks
it to answer *where did each query's virtual time actually go?*

The walk is a **cursor sweep**: inside a span, children sorted by start
time claim the interval they cover (clipped against earlier siblings
and the parent window), and every gap between children is attributed to
the span itself.  An RPC client span splits further: the tail of its
window that the linked server span was actually executing is attributed
to the *server* process/machine, the head is network/queueing time on
the client.  By construction the produced segments partition the root
span exactly — no virtual nanosecond is counted twice or silently lost
— which :meth:`CriticalPath.validate` checks and the hypothesis suite
exercises (``tests/test_trace_analysis.py``).

Nothing here assumes the simulated runtime: thread-mode traces (spans
on the accumulated charged clock) go through the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.spans import Span, SpanTracer
from repro.utils.timer import PHASES

#: span names that anchor one critical path each
ROOT_SPAN_NAMES = ("query", "query_batch")

#: span-name -> phase bucket: a compute span carries its category's name
#: (``ProcessClock.compute``), so the Figure 6 mapping applies as is;
#: client/server spans are classified by kind.
_PHASE_OF_NAME = {category: phase for phase, categories in PHASES.items()
                  for category in categories}

#: path phases beyond the aggregate breakdown: ``serve`` is the slice of
#: a remote call the server was actually executing (the straggler
#: signal the aggregate view cannot see).
PATH_PHASES = ("local_fetch", "remote_fetch", "serve", "push", "pop",
               "crashed", "other")


def machine_of_process(process: str) -> int:
    """Machine index encoded in ``compute:M.P`` / ``server:M`` names."""
    if ":" not in process:
        return -1
    tail = process.split(":", 1)[1]
    head = tail.split(".", 1)[0]
    try:
        return int(head)
    except ValueError:
        return -1


def phase_of_span(span: Span) -> str:
    if span.kind == "client":
        return "remote_fetch"
    if span.kind == "server":
        return "serve"
    return _PHASE_OF_NAME.get(span.name, "other")


def fault_of_span(span: Span) -> str | None:
    """The fault event a span witnessed, if any."""
    if span.name == "crashed":
        return "crash"
    if span.attrs:
        err = span.attrs.get("error")
        if err:
            return str(err)
    return None


@dataclass(frozen=True)
class PathSegment:
    """One contiguous critical interval with a single attribution."""

    start: float
    end: float
    process: str
    machine: int
    name: str
    phase: str
    #: "span" — a child span's own window; "self" — a gap attributed to
    #: the enclosing span; "network" / "serve" — the two halves of a
    #: clipped RPC client window.
    kind: str
    fault: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bucket(self) -> tuple:
        """The (machine, phase, span-name, fault-event) attribution key."""
        return (self.machine, self.phase, self.name, self.fault)

    def to_dict(self) -> dict:
        return {"start": self.start, "end": self.end,
                "process": self.process, "machine": self.machine,
                "name": self.name, "phase": self.phase,
                "kind": self.kind, "fault": self.fault}


@dataclass(frozen=True)
class CriticalPath:
    """The root span's window, partitioned into attributed segments."""

    root: Span
    segments: tuple

    @property
    def duration(self) -> float:
        return self.root.duration

    def validate(self) -> None:
        """Assert the segments partition ``[root.start, root.end]``.

        Chaining is checked with *exact* float equality — the sweep
        carries each segment's end forward as the next start, so any
        mismatch is a real accounting bug, not rounding.
        """
        if not self.segments:
            if self.root.duration != 0.0:
                raise AssertionError(
                    f"non-empty root {self.root.name} produced no segments")
            return
        cursor = self.root.start
        for seg in self.segments:
            if seg.start != cursor:
                raise AssertionError(
                    f"gap/overlap at {cursor}: segment starts at {seg.start}")
            if seg.end < seg.start:
                raise AssertionError(f"negative segment {seg}")
            cursor = seg.end
        if cursor != self.root.end:
            raise AssertionError(
                f"path ends at {cursor}, root ends at {self.root.end}")

    def totals(self) -> dict:
        """Critical seconds per (machine, phase, name, fault) bucket."""
        out: dict = {}
        for seg in self.segments:
            out[seg.bucket] = out.get(seg.bucket, 0.0) + seg.duration
        return out

    def phase_totals(self) -> dict:
        out = {phase: 0.0 for phase in PATH_PHASES}
        for seg in self.segments:
            out[seg.phase] = out.get(seg.phase, 0.0) + seg.duration
        return out

    def conservation_error(self) -> float:
        """|sum of segment durations − root duration| (float noise only)."""
        return abs(sum(s.duration for s in self.segments)
                   - self.root.duration)


class TraceGraph:
    """Span DAG: nesting within processes, RPC links across them."""

    def __init__(self, spans) -> None:
        self.spans = list(spans)
        self.by_id: dict = {}
        self.children: dict = {}
        self.server_of: dict = {}
        for idx, span in enumerate(self.spans):
            if span.span_id is not None:
                self.by_id[span.span_id] = span
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(
                    (span.start, idx, span))
            if span.kind == "server" and span.link is not None:
                self.server_of[span.link] = span
        for lst in self.children.values():
            lst.sort(key=lambda item: (item[0], item[1]))
        self.roots = tuple(s for s in self.spans
                           if s.name in ROOT_SPAN_NAMES)

    @classmethod
    def from_tracer(cls, tracer: SpanTracer) -> "TraceGraph":
        return cls(tracer.spans)

    def children_of(self, span: Span):
        if span.span_id is None:
            return ()
        return tuple(item[2] for item in self.children.get(span.span_id, ()))

    # -- critical path -------------------------------------------------------
    def critical_path(self, root: Span) -> CriticalPath:
        segments: list = []
        self._sweep(root, root.start, root.end, segments)
        path = CriticalPath(root=root, segments=tuple(segments))
        path.validate()
        return path

    def critical_paths(self) -> list:
        return [self.critical_path(root) for root in self.roots]

    def _self_segment(self, span: Span, lo: float, hi: float) -> PathSegment:
        return PathSegment(
            start=lo, end=hi, process=span.process,
            machine=machine_of_process(span.process), name=span.name,
            phase=phase_of_span(span), kind="self",
            fault=fault_of_span(span))

    def _sweep(self, span: Span, lo: float, hi: float, out: list) -> None:
        """Partition ``[lo, hi]`` between ``span``'s children and itself."""
        cursor = lo
        for child in self.children_of(span):
            if cursor >= hi:
                break
            if child.start >= hi:
                break  # children are start-sorted; the rest are clipped out
            c_lo = max(child.start, cursor)
            c_hi = min(child.end, hi)
            if c_hi <= c_lo:
                continue  # hidden behind an earlier sibling / zero width
            if c_lo > cursor:
                out.append(self._self_segment(span, cursor, c_lo))
            if child.kind == "client":
                self._client_sweep(child, c_lo, c_hi, out)
            else:
                self._sweep(child, c_lo, c_hi, out)
            cursor = c_hi
        if cursor < hi:
            out.append(self._self_segment(span, cursor, hi))

    def _client_sweep(self, client: Span, lo: float, hi: float,
                      out: list) -> None:
        """Split a clipped RPC window into network and server execution.

        The linked server span executed for ``server.duration`` seconds
        strictly before the response became ready, so the *tail* of the
        client window (up to that long) is server time; the head is
        wire latency, queueing, and any fault-retry churn on the client
        side.
        """
        fault = fault_of_span(client)
        server = None
        if client.span_id is not None:
            server = self.server_of.get(client.span_id)
        window = hi - lo
        serve_d = 0.0
        if server is not None:
            serve_d = min(max(server.duration, 0.0), window)
        # ``hi - serve_d`` can cancel below ``lo`` when ``serve_d`` was
        # clamped to the full window (hi - (hi - lo) != lo in floats);
        # the exact-equality chain needs the split point back in range.
        mid = max(lo, hi - serve_d)
        if mid > lo:
            out.append(PathSegment(
                start=lo, end=mid, process=client.process,
                machine=machine_of_process(client.process),
                name=client.name, phase="remote_fetch", kind="network",
                fault=fault))
        if serve_d > 0.0 and server is not None:
            out.append(PathSegment(
                start=mid, end=hi, process=server.process,
                machine=machine_of_process(server.process),
                name=server.name, phase="serve", kind="serve",
                fault=fault))
