"""``repro.obs.analysis`` — trace analytics over the observability layer.

Three modules turn a finished run's raw telemetry into answers:

* :mod:`~repro.obs.analysis.causal` — span DAG reconstruction and
  per-query critical-path extraction with total-conserving
  (machine, phase, span-name, fault-event) attribution;
* :mod:`~repro.obs.analysis.rpc` — :func:`rpc_summary`, the per-method /
  per-machine-pair / payload-size account of a run's remote calls, read
  off the RPC client spans;
* :mod:`~repro.obs.analysis.doctor` — ``diagnose(run)`` →
  :class:`DiagnosisReport`, report diffing, and the rendering behind
  ``python -m repro.cli doctor``.

See the "Trace analytics & doctor" section of ``docs/observability.md``.
"""

from repro.obs.analysis.causal import (
    PATH_PHASES,
    CriticalPath,
    PathSegment,
    TraceGraph,
    machine_of_process,
)
from repro.obs.analysis.doctor import (
    DIAGNOSIS_SCHEMA,
    DiagnosisReport,
    diagnose,
    diff_reports,
    render_diagnosis,
    render_doctor_diff,
)
from repro.obs.analysis.rpc import rpc_summary

__all__ = [
    "DIAGNOSIS_SCHEMA",
    "PATH_PHASES",
    "CriticalPath",
    "DiagnosisReport",
    "PathSegment",
    "TraceGraph",
    "diagnose",
    "diff_reports",
    "machine_of_process",
    "render_diagnosis",
    "render_doctor_diff",
    "rpc_summary",
]
