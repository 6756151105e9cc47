"""The open-loop serving driver: replay a trace through a session.

:func:`serve_trace` is the top of the serving stack (``repro.cli serve``
and ``benchmarks/bench_serving.py`` both sit on it).  It replays a seeded
:class:`~repro.serving.arrivals.ArrivalTrace` against one
:class:`~repro.serving.session.Session` on the virtual serving clock:

* when the queue is empty, jump the clock to the next arrival (open-loop
  idle time costs nothing);
* ingest every arrival whose scheduled time has passed — these hit
  admission control *before* the next batch dispatch, which is where
  queue-full and quota rejections come from under overload;
* dispatch a fused batch (respecting the configured minimum
  ``batch_window`` between dispatches) and let the drain advance the
  clock by what its deployments charge.

Everything here is a pure function of (graph, config, trace), so the
resulting :class:`ServingReport` — admission decisions, batch
compositions, latency percentiles, goodput — is bitwise-reproducible,
on either runtime.  SLO definitions (docs/serving.md):

* **attainment** — fraction of *completed* queries whose serving latency
  (completion minus submission, virtual seconds) met the SLO;
* **goodput** — SLO-meeting completions per virtual second of total
  serving time;
* **throughput** — all completions per virtual second, SLO-blind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serving.arrivals import ArrivalTrace
from repro.serving.session import QueryHandle, Session, SessionConfig


@dataclass
class ServingReport:
    """Summary of one trace replay (scalars first, raw handles attached)."""

    trace: str
    seed: int
    rate: float
    duration: float
    arrivals: int
    admitted: int
    rejected: int
    rejected_queue_full: int
    rejected_quota: int
    completed: int
    missed: int
    batches: int
    clock: float
    queue_peak: int
    p50: float
    p95: float
    p99: float
    attainment: float
    goodput: float
    throughput: float
    per_tenant: dict[str, dict[str, int]]
    handles: tuple[QueryHandle, ...] = field(repr=False, default=())
    session: Session | None = field(repr=False, default=None)

    def row(self) -> dict:
        """Flat scalar row for the bench observatory / JSON output."""
        return {
            "trace": self.trace, "seed": self.seed, "rate": self.rate,
            "arrivals": self.arrivals, "admitted": self.admitted,
            "rejected": self.rejected,
            "rejected_queue_full": self.rejected_queue_full,
            "rejected_quota": self.rejected_quota,
            "completed": self.completed, "missed": self.missed,
            "batches": self.batches, "clock": self.clock,
            "queue_peak": self.queue_peak,
            "p50": self.p50, "p95": self.p95, "p99": self.p99,
            "attainment": self.attainment, "goodput": self.goodput,
            "throughput": self.throughput,
        }

    def describe(self) -> str:
        """Human-readable block for ``repro.cli serve``."""
        lines = [
            f"trace={self.trace} seed={self.seed} rate={self.rate:g}/s "
            f"duration={self.duration:g}s",
            f"arrivals={self.arrivals} admitted={self.admitted} "
            f"rejected={self.rejected} "
            f"(queue_full={self.rejected_queue_full}, "
            f"quota={self.rejected_quota})",
            f"completed={self.completed} in {self.batches} batches over "
            f"{self.clock:.4f}s virtual; queue_peak={self.queue_peak}",
            f"latency p50={self.p50 * 1e3:.2f}ms p95={self.p95 * 1e3:.2f}ms "
            f"p99={self.p99 * 1e3:.2f}ms",
            f"slo_missed={self.missed} attainment={self.attainment:.3f} "
            f"goodput={self.goodput:.1f}/s throughput={self.throughput:.1f}/s",
        ]
        if self.per_tenant:
            lines.append("per-tenant:")
            for name in sorted(self.per_tenant):
                t = self.per_tenant[name]
                lines.append(
                    f"  {name:<12} admitted={t['admitted']:<5} "
                    f"rejected={t['rejected']:<5} "
                    f"completed={t['completed']:<5} missed={t['missed']}"
                )
        return "\n".join(lines)


def serve_trace(engine, trace: ArrivalTrace,
                config: SessionConfig | None = None) -> ServingReport:
    """Replay ``trace`` through a fresh session on ``engine``.

    Deterministic end to end: same (graph, config, trace) in, same report
    out — including on ``SessionConfig(runtime="threads")``.
    """
    session = Session(engine, config)
    cfg = session.config
    arrivals = trace.arrivals
    handles: list[QueryHandle] = []
    i = 0
    queue_peak = 0
    last_dispatch = -cfg.batch_window  # first batch may fire at t=0

    def ingest_due() -> None:
        nonlocal i, queue_peak
        while i < len(arrivals) and arrivals[i].time <= session.now:
            session.advance_to(arrivals[i].time)
            handles.append(session.submit(arrivals[i].query,
                                          tenant=arrivals[i].tenant))
            queue_peak = max(queue_peak, session.pending)
            i += 1

    while i < len(arrivals) or session.pending:
        if session.pending == 0 and i < len(arrivals):
            session.advance_to(arrivals[i].time)  # open-loop idle jump
        ingest_due()
        if session.pending:
            session.advance_to(last_dispatch + cfg.batch_window)
            ingest_due()  # arrivals that landed during the window wait
            last_dispatch = session.now
            session.drain()

    m = session.metrics
    snap = m.snapshot()
    completed = session.completed_total
    missed = session.missed_total
    good = completed - missed
    clock = session.now
    attainment = (good / completed) if completed else 0.0
    goodput = good / clock if clock > 0 else 0.0
    throughput = completed / clock if clock > 0 else 0.0
    m.set("serve.queue_peak", queue_peak)
    m.set("serve.attainment", attainment)
    m.set("serve.goodput", goodput)
    m.set("serve.throughput", throughput)

    tenants = sorted({h.tenant for h in handles})
    per_tenant = {
        t: {
            "admitted": int(snap.get(f"serve.tenant.{t}.admitted", 0)),
            "rejected": int(snap.get(f"serve.tenant.{t}.rejected", 0)),
            "completed": int(snap.get(f"serve.tenant.{t}.completed", 0)),
            "missed": int(snap.get(f"serve.tenant.{t}.missed", 0)),
        }
        for t in tenants
    }
    return ServingReport(
        trace=trace.name, seed=trace.seed, rate=trace.rate,
        duration=trace.duration, arrivals=len(arrivals),
        admitted=session.admitted_total, rejected=session.rejected_total,
        rejected_queue_full=int(snap.get("serve.rejected.queue_full", 0)),
        rejected_quota=int(snap.get("serve.rejected.quota_exceeded", 0)),
        completed=completed, missed=missed,
        batches=len(session.batch_log), clock=clock, queue_peak=queue_peak,
        p50=float(snap.get("serve.latency.p50", 0.0)),
        p95=float(snap.get("serve.latency.p95", 0.0)),
        p99=float(snap.get("serve.latency.p99", 0.0)),
        attainment=attainment, goodput=goodput, throughput=throughput,
        per_tenant=per_tenant, handles=tuple(handles), session=session,
    )
