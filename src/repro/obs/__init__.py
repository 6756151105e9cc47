"""``repro.obs`` — the unified observability layer.

One :class:`Obs` bundle travels with every deployment (virtual-time cluster
or thread runtime): a process-safe :class:`MetricsRegistry` that every layer
increments under the same instrument names, and an optional
:class:`SpanTracer` recording nested per-process spans with linked RPC
client/server pairs.  Exporters turn a finished run into a Chrome
``trace_event`` JSON (:func:`chrome_trace` / :func:`write_chrome_trace`), a
flat stats dict (:func:`flat_stats`), or a CLI text table
(:func:`text_table`).

The design contract the differential tests enforce: the *identical* counters
appear whether a run used the virtual-time scheduler or the real-thread
runtime, because both increment this registry at the same logical points.

:mod:`repro.obs.bench` builds on this layer: structured
:class:`BenchReport` documents with embedded metrics snapshots, trajectory
aggregation, baseline comparison and the ``repro.cli bench`` regression
gate.  :mod:`repro.obs.analysis` adds trace analytics on top: causal
critical paths over the span DAG and the :func:`diagnose` reports behind
``repro.cli doctor``.  See ``docs/observability.md`` for the span-name /
Figure 6 phase mapping and a ``repro.cli profile`` walkthrough;
``docs/benchmarking.md`` for the bench observatory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.bench import (
    BenchReport,
    build_trajectory,
    compare_trajectories,
    evaluate_expectations,
    lint_results,
    render_diff,
    validate_report,
)
from repro.obs.analysis import (
    CriticalPath,
    DiagnosisReport,
    PathSegment,
    TraceGraph,
    diagnose,
    diff_reports,
    render_diagnosis,
    render_doctor_diff,
)
from repro.obs.export import chrome_trace, flat_stats, text_table, write_chrome_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.spans import DEFAULT_MAX_SPANS, Span, SpanTracer


@dataclass
class Obs:
    """One run's observability bundle: metrics always, spans when asked."""

    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: SpanTracer | None = None
    #: optional race sanitizer (repro.analysis.race.RaceDetector); typed as
    #: a plain object so obs stays import-independent of the analysis layer
    sanitizer: object | None = None

    @classmethod
    def create(cls, trace: bool = False,
               max_spans: int | None = DEFAULT_MAX_SPANS) -> "Obs":
        """A fresh bundle; ``trace=True`` attaches a span tracer.

        The tracer is linked back to the bundle's registry so spans
        dropped by the ``max_spans`` cap surface as ``obs.spans_dropped``.
        """
        metrics = MetricsRegistry()
        tracer = SpanTracer(max_spans=max_spans, metrics=metrics) \
            if trace else None
        return cls(metrics=metrics, tracer=tracer)


__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SPANS",
    "BenchReport",
    "Counter",
    "CriticalPath",
    "DiagnosisReport",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Obs",
    "PathSegment",
    "Span",
    "SpanTracer",
    "TraceGraph",
    "build_trajectory",
    "chrome_trace",
    "compare_trajectories",
    "diagnose",
    "diff_reports",
    "evaluate_expectations",
    "flat_stats",
    "lint_results",
    "render_diagnosis",
    "render_diff",
    "render_doctor_diff",
    "text_table",
    "validate_report",
    "write_chrome_trace",
]
