"""Deterministic telemetry timelines.

A :class:`Timeline` is a typed series of ``(virtual_time, values)``
samples of selected counters and gauges, fed by engine runs
(``RunRequest(timeline=interval)``): every run's series opens with the
``t=0`` sample and closes with the final counters at the makespan
(:func:`final_sample`); on the virtual-time scheduler a timer additionally
fires every ``interval`` virtual seconds and snapshots the watch list
mid-run (:func:`install_sim_sampler`) — it re-arms only while other events
remain queued, so it can never keep the event loop alive by itself.  Real
threads have no virtual timer, so a thread-mode series keeps the two
deterministic edges.

Counter values come from :meth:`MetricsRegistry.counters` — the same
comparison unit the differential tests use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: engine-run watch list: counters under the cross-runtime contract.
ENGINE_WATCH = (
    "rpc.calls", "rpc.calls_local", "rpc.calls_remote",
    "rpc.request_bytes", "rpc.response_bytes",
    "rpc.retries", "rpc.timeouts", "rpc.dropped_messages", "rpc.giveups",
    "fetch.requests", "fetch.halo_hits", "fetch.misses",
    "obs.spans_dropped",
)


@dataclass(frozen=True)
class TimelineSample:
    """One snapshot: virtual time plus ``{name: value}``."""

    t: float
    values: dict

    def to_dict(self) -> dict:
        return {"t": self.t, "values": dict(self.values)}


@dataclass
class Timeline:
    """An append-only, time-ordered series of :class:`TimelineSample`."""

    interval: float | None = None
    samples: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def sample(self, t: float, values: dict) -> None:
        if self.samples and t < self.samples[-1].t:
            raise ValueError(
                f"timeline samples must be time-ordered: "
                f"{t} < {self.samples[-1].t}")
        self.samples.append(TimelineSample(t=float(t), values=dict(values)))

    def series(self, name: str) -> list:
        """``[(t, value), ...]`` for one watched instrument."""
        return [(s.t, s.values[name]) for s in self.samples
                if name in s.values]

    def names(self) -> tuple:
        seen: dict = {}
        for s in self.samples:
            for name in s.values:
                seen[name] = True
        return tuple(sorted(seen))

    def to_dict(self) -> dict:
        return {"interval": self.interval,
                "samples": [s.to_dict() for s in self.samples]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Timeline":
        tl = cls(interval=doc.get("interval"))
        for s in doc.get("samples", ()):
            tl.sample(s["t"], s["values"])
        return tl


def sample_counters(metrics, names) -> dict:
    """Snapshot ``names`` out of a registry's counters (missing -> 0)."""
    counters = metrics.counters()
    return {name: counters.get(name, 0) for name in names}


def sample_engine(timeline: Timeline, t: float, metrics,
                  gauges=None) -> None:
    """Append one engine-run snapshot (watch list + ``gauges()``) at ``t``."""
    values = sample_counters(metrics, ENGINE_WATCH)
    if gauges is not None:
        values.update(gauges())
    timeline.sample(t, values)


def install_sim_sampler(scheduler, metrics, timeline: Timeline,
                        interval: float, gauges=None) -> None:
    """Arm a virtual-time grid sampler on a :class:`Scheduler`.

    Takes the ``t=0`` sample immediately, then snapshots every
    ``interval`` virtual seconds while the run has other events queued.
    The timer checks the event queue *after* firing and only then
    re-arms, so an otherwise-finished run is never kept alive (and the
    scheduler's deadlock detection stays meaningful).  Timer callbacks
    only read counters — they cannot perturb the workload interleaving.
    """
    if interval <= 0:
        raise ValueError(f"timeline interval must be > 0, got {interval}")
    sample_engine(timeline, scheduler.now, metrics, gauges)

    def tick() -> None:
        sample_engine(timeline, scheduler.now, metrics, gauges)
        if scheduler._heap:
            scheduler.call_at(scheduler.now + interval, tick)

    scheduler.call_at(scheduler.now + interval, tick)


def final_sample(timeline: Timeline, metrics, makespan: float,
                 gauges=None) -> None:
    """Close an engine run's series with the final counters.

    Sampled at the run's makespan — or at the last grid sample when a
    trailing timer fired past it, since samples are time-ordered.  Both
    edges (``t=0`` and this one) are fully determined by the workload,
    never by wall time, which is what a thread-mode series consists of.
    """
    last = timeline.samples[-1].t if timeline.samples else 0.0
    sample_engine(timeline, max(makespan, last), metrics, gauges)
