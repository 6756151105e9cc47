"""Exporters: Chrome ``trace_event`` JSON, flat stats dict, text table.

``chrome_trace`` turns a :class:`~repro.obs.spans.SpanTracer` into the JSON
object format understood by ``chrome://tracing`` / Perfetto: one complete
(``"ph": "X"``) event per span, process/thread metadata so tracks are named
after simulated machines and workers, and flow (``"s"``/``"f"``) event pairs
stitching every RPC server span to its client span — the visual arrows that
show a request leaving one machine's timeline and landing on another's.

Virtual seconds are exported as microseconds (the trace format's unit).
Timed events are emitted sorted by ``ts`` (metadata first), so each track's
timestamps are monotone — the property ``tests`` assert on the schema.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanTracer


def chrome_trace(tracer: SpanTracer,
                 machine_of: Mapping[str, int] | None = None) -> dict:
    """Build a Chrome trace-event JSON object from recorded spans.

    ``machine_of`` maps process names to machine ids (the trace's ``pid``);
    unknown processes land on pid 0.
    """
    machine_of = machine_of or {}
    processes = sorted({s.process for s in tracer.spans})
    tids = {p: i + 1 for i, p in enumerate(processes)}
    meta: list[dict] = []
    events: list[dict] = []

    pids_seen = set()
    for p in processes:
        pid = int(machine_of.get(p, 0))
        if pid not in pids_seen:
            pids_seen.add(pid)
            meta.append({"ph": "M", "name": "process_name", "pid": pid,
                         "tid": 0, "args": {"name": f"machine {pid}"}})
        meta.append({"ph": "M", "name": "thread_name", "pid": pid,
                     "tid": tids[p], "args": {"name": p}})

    client_spans = {s.span_id: s for s in tracer.spans if s.kind == "client"}
    for s in tracer.spans:
        pid = int(machine_of.get(s.process, 0))
        args = {"span_id": s.span_id, **s.attrs}
        if s.parent_id is not None:
            args["parent_id"] = s.parent_id
        if s.link is not None:
            args["link"] = s.link
        events.append({
            "ph": "X", "name": s.name, "cat": s.kind,
            "ts": s.start * 1e6, "dur": max(s.end - s.start, 0.0) * 1e6,
            "pid": pid, "tid": tids[s.process], "args": args,
        })
        if s.kind == "server" and s.link in client_spans:
            client = client_spans[s.link]
            cpid = int(machine_of.get(client.process, 0))
            events.append({"ph": "s", "name": "rpc", "cat": "rpc",
                           "id": s.link, "ts": client.start * 1e6,
                           "pid": cpid, "tid": tids[client.process]})
            events.append({"ph": "f", "bp": "e", "name": "rpc", "cat": "rpc",
                           "id": s.link, "ts": s.start * 1e6,
                           "pid": pid, "tid": tids[s.process]})
    events.sort(key=lambda e: e["ts"])  # stable: ties keep record order
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, tracer: SpanTracer,
                       machine_of: Mapping[str, int] | None = None) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer, machine_of)))
    return path


def flat_stats(registry: MetricsRegistry) -> dict[str, float | int]:
    """The registry's flat stats dict (alias of ``snapshot`` for exporters)."""
    return registry.snapshot()


def text_table(stats: Mapping[str, float | int], title: str = "metrics") -> str:
    """Render a flat stats dict as an aligned two-column text table."""
    if not stats:
        return f"{title}: (empty)"
    keys = sorted(stats)
    width = max(len(k) for k in keys)
    lines = [f"{title}:"]
    for k in keys:
        v = stats[k]
        sval = str(v) if isinstance(v, int) else f"{v:.6g}"
        lines.append(f"  {k:<{width}}  {sval}")
    return "\n".join(lines)
