"""``diagnose(run)``: one structured verdict per run.

Folds the causal critical path (:mod:`repro.obs.analysis.causal`), the
metrics snapshot and the per-machine heat maps into a single
JSON-serializable :class:`DiagnosisReport` — the object behind
``python -m repro.cli doctor``.

Two layers of comparison:

* :meth:`DiagnosisReport.differential_view` projects the report onto its
  **count-derived** fields (fault counters, heat-based straggler
  attribution, query-span counts).
  Those replay bitwise-identically across the virtual-time scheduler and
  :class:`~repro.rpc.thread_runtime.ThreadRuntime` for the same seed and
  fault plan — asserted in ``tests/test_runtime_differential.py``.
  Durations (critical-path seconds, clock skews) stay *out* of the view:
  they replay exactly on the scheduler, but the thread runtime waits on
  no modeled network, so its span durations are not the scheduler's.
* :func:`diff_reports` compares two full reports and names the
  critical-path buckets that moved — the before/after lens for "did my
  change actually shrink remote-fetch time?".
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.obs.analysis.causal import PATH_PHASES, TraceGraph

#: report schema tag — bump on incompatible field changes
DIAGNOSIS_SCHEMA = "repro.diagnosis/v3"

#: counters summarizing injected faults and the retry machinery
FAULT_COUNTER_NAMES = ("rpc.retries", "rpc.timeouts", "rpc.dropped_messages",
                       "rpc.giveups")


@dataclass
class DiagnosisReport:
    """Structured analysis of one run (see module doc for the contract)."""

    schema: str = DIAGNOSIS_SCHEMA
    n_queries: int = 0
    makespan: float = 0.0
    #: the trace hit its span cap: the paths below describe a *prefix*
    trace_incomplete: bool = False
    spans_dropped: int = 0
    has_trace: bool = False
    n_paths: int = 0
    #: summed critical seconds across all per-query paths
    path_total_s: float = 0.0
    #: max over paths of |segment sum - root span| (float noise only)
    conservation_error: float = 0.0
    #: every path's duration stayed <= the run makespan
    paths_within_makespan: bool = True
    #: (machine, phase, name, fault) buckets, descending critical seconds
    path_buckets: list = field(default_factory=list)
    phase_totals: dict = field(default_factory=dict)
    #: critical seconds on segments that witnessed a fault event
    fault_path_s: float = 0.0
    fault_counters: dict = field(default_factory=dict)
    #: per machine: final clock, skew vs the mean, heat + share
    stragglers: list = field(default_factory=list)

    # -- views ---------------------------------------------------------------
    def top_edges(self, n: int = 10) -> list:
        """The ``n`` heaviest critical-path buckets."""
        return self.path_buckets[:n]

    def differential_view(self) -> dict:
        """The count-derived projection (bitwise across runtimes)."""
        return {
            "schema": self.schema,
            "n_queries": self.n_queries,
            "n_paths": self.n_paths,
            "trace_incomplete": self.trace_incomplete,
            "spans_dropped": self.spans_dropped,
            "fault_counters": dict(self.fault_counters),
            "straggler_heat": {str(s["machine"]): s["heat"]
                               for s in self.stragglers},
        }

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: dict) -> "DiagnosisReport":
        if doc.get("schema") != DIAGNOSIS_SCHEMA:
            raise ValueError(
                f"unsupported diagnosis schema {doc.get('schema')!r}; "
                f"this build reads {DIAGNOSIS_SCHEMA}")
        fields = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in fields})

    @classmethod
    def from_json(cls, text: str) -> "DiagnosisReport":
        return cls.from_dict(json.loads(text))


def _bucket_rows(paths, path_total: float) -> list:
    totals: dict = {}
    for path in paths:
        for bucket, seconds in path.totals().items():
            totals[bucket] = totals.get(bucket, 0.0) + seconds
    rows = [
        {"machine": machine, "phase": phase, "name": name, "fault": fault,
         "seconds": seconds,
         "share": seconds / path_total if path_total > 0 else 0.0}
        for (machine, phase, name, fault), seconds in totals.items()
    ]
    rows.sort(key=lambda r: (-r["seconds"], r["machine"], r["phase"],
                             r["name"], str(r["fault"])))
    return rows


def _straggler_rows(per_proc_clocks: dict, heat: dict) -> list:
    from repro.obs.analysis.causal import machine_of_process

    clocks: dict = {}
    for proc, clock in per_proc_clocks.items():
        machine = machine_of_process(proc)
        clocks[machine] = max(clocks.get(machine, 0.0), clock)
    heat_totals = {int(m): int(sum(hmap.values()))
                   for m, hmap in heat.items()}
    machines = sorted(set(clocks) | set(heat_totals))
    mean_clock = (sum(clocks.values()) / len(clocks)) if clocks else 0.0
    total_heat = sum(heat_totals.values())
    rows = []
    for machine in machines:
        clock = clocks.get(machine, 0.0)
        h = heat_totals.get(machine, 0)
        rows.append({
            "machine": machine,
            "clock_s": clock,
            "clock_skew": clock / mean_clock if mean_clock > 0 else 0.0,
            "heat": h,
            "heat_share": h / total_heat if total_heat > 0 else 0.0,
        })
    rows.sort(key=lambda r: (-r["heat"], r["machine"]))
    return rows


def diagnose(run, *, validate: bool = True) -> DiagnosisReport:
    """Analyze one :class:`~repro.engine.engine.QueryRunResult`.

    Works with or without a trace: an untraced run still yields the
    counter-derived sections (faults, heat stragglers);
    a traced run adds critical paths.  ``validate=True`` re-asserts the
    conservation invariant on every extracted path.
    """
    metrics = dict(run.metrics or {})
    spans_dropped = int(metrics.get("obs.spans_dropped", 0))
    report = DiagnosisReport(
        n_queries=int(run.n_queries),
        makespan=float(run.makespan),
        spans_dropped=spans_dropped,
        trace_incomplete=spans_dropped > 0,
        fault_counters={
            **{name: int(metrics.get(name, 0))
               for name in FAULT_COUNTER_NAMES},
            **{name: int(value) for name, value in sorted(metrics.items())
               if name.startswith("rpc.faults.")},
        },
        stragglers=_straggler_rows(run.per_proc_clocks or {}, run.heat or {}),
    )

    tracer = getattr(run.obs, "tracer", None) if run.obs is not None else None
    if tracer is not None and tracer.spans:
        report.has_trace = True
        graph = TraceGraph.from_tracer(tracer)
        paths = graph.critical_paths()
        if validate:
            for path in paths:
                path.validate()
        report.n_paths = len(paths)
        report.path_total_s = sum(p.duration for p in paths)
        report.conservation_error = max(
            (p.conservation_error() for p in paths), default=0.0)
        report.paths_within_makespan = all(
            p.duration <= run.makespan + 1e-9 for p in paths)
        report.path_buckets = _bucket_rows(paths, report.path_total_s)
        phase_totals = {phase: 0.0 for phase in PATH_PHASES}
        for p in paths:
            for phase, seconds in p.phase_totals().items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
        report.phase_totals = phase_totals
        report.fault_path_s = sum(
            row["seconds"] for row in report.path_buckets
            if row["fault"] is not None)
    return report


# -- report diffing ----------------------------------------------------------
def _bucket_key(row: dict) -> tuple:
    return (row["machine"], row["phase"], row["name"], row["fault"])


def diff_reports(before: DiagnosisReport, after: DiagnosisReport,
                 *, top: int = 10) -> dict:
    """Name the critical-path buckets that moved between two reports."""
    a = {_bucket_key(r): r["seconds"] for r in before.path_buckets}
    b = {_bucket_key(r): r["seconds"] for r in after.path_buckets}
    moved = []
    for key in sorted(set(a) | set(b), key=str):
        before_s = a.get(key, 0.0)
        after_s = b.get(key, 0.0)
        delta = after_s - before_s
        if delta == 0.0:
            continue
        machine, phase, name, fault = key
        moved.append({"machine": machine, "phase": phase, "name": name,
                      "fault": fault, "before_s": before_s,
                      "after_s": after_s, "delta_s": delta})
    moved.sort(key=lambda r: -abs(r["delta_s"]))
    phases = {}
    for phase in set(before.phase_totals) | set(after.phase_totals):
        d = (after.phase_totals.get(phase, 0.0)
             - before.phase_totals.get(phase, 0.0))
        if d != 0.0:
            phases[phase] = d
    return {
        "schema": DIAGNOSIS_SCHEMA,
        "makespan_delta": after.makespan - before.makespan,
        "path_total_delta": after.path_total_s - before.path_total_s,
        "phase_deltas": phases,
        "moved": moved[:top],
        "n_moved": len(moved),
    }


# -- rendering ---------------------------------------------------------------
def _fmt_bucket(row: dict) -> str:
    fault = f" fault={row['fault']}" if row["fault"] else ""
    return (f"m{row['machine']:<3} {row['phase']:<13} {row['name']:<24} "
            f"{row['seconds']:.6f}s  {row['share'] * 100:5.1f}%{fault}")


def render_diagnosis(report: DiagnosisReport, *, top: int = 10) -> str:
    """Human-readable doctor summary (what ``cli doctor`` prints)."""
    lines = [f"diagnosis ({report.schema})",
             f"  queries: {report.n_queries}   "
             f"makespan: {report.makespan:.6f}s"]
    if report.trace_incomplete:
        lines.append(f"  WARNING: trace incomplete — "
                     f"{report.spans_dropped} spans dropped; critical "
                     f"paths describe a prefix of the run")
    if report.has_trace:
        lines.append(f"  critical paths: {report.n_paths} "
                     f"({report.path_total_s:.6f}s total, conservation "
                     f"error {report.conservation_error:.2e})")
        lines.append("  top critical-path buckets:")
        for row in report.top_edges(top):
            lines.append(f"    {_fmt_bucket(row)}")
        if report.fault_path_s > 0:
            lines.append(f"  fault impact on path: "
                         f"{report.fault_path_s:.6f}s")
    else:
        lines.append("  no span trace attached (run with trace=True for "
                     "critical paths)")
    if report.stragglers:
        lines.append("  machines (heat-ordered):")
        for row in report.stragglers:
            lines.append(
                f"    m{row['machine']:<3} clock {row['clock_s']:.6f}s "
                f"(skew {row['clock_skew']:.2f}x)  heat {row['heat']} "
                f"({row['heat_share'] * 100:5.1f}%)")
    if report.fault_counters:
        hot = {k: v for k, v in report.fault_counters.items() if v}
        lines.append(f"  fault counters: {hot if hot else 'clean'}")
    return "\n".join(lines)


def render_doctor_diff(diff: dict, *, top: int = 10) -> str:
    """Human-readable rendering of a :func:`diff_reports` document."""
    lines = [f"diagnosis diff ({diff['schema']})",
             f"  makespan: {diff['makespan_delta']:+.6f}s   "
             f"path total: {diff['path_total_delta']:+.6f}s"]
    if diff["phase_deltas"]:
        parts = ", ".join(f"{k} {v:+.6f}s"
                          for k, v in sorted(diff["phase_deltas"].items()))
        lines.append(f"  phases moved: {parts}")
    if not diff["moved"]:
        lines.append("  no critical-path buckets moved")
        return "\n".join(lines)
    lines.append(f"  moved buckets ({diff['n_moved']} total, "
                 f"top {min(top, len(diff['moved']))}):")
    for row in diff["moved"][:top]:
        fault = f" fault={row['fault']}" if row["fault"] else ""
        lines.append(
            f"    m{row['machine']:<3} {row['phase']:<13} "
            f"{row['name']:<24} {row['delta_s']:+.6f}s "
            f"({row['before_s']:.6f} -> {row['after_s']:.6f}){fault}")
    return "\n".join(lines)
