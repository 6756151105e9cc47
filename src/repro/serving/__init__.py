"""Multi-tenant PPR-as-a-service front end (docs/serving.md).

Long-lived session/submit serving over :class:`~repro.engine.GraphEngine`:
seeded open-loop arrival traces, per-tenant admission control (quotas,
priorities, bounded queue with typed rejection), cross-tenant query
batching into shared-frontier iterations, and deterministic virtual-clock
SLO accounting that replays identically on the sim scheduler and
:class:`~repro.rpc.ThreadRuntime`.
"""

from repro.serving.arrivals import (
    TRACES,
    Arrival,
    ArrivalTrace,
    bursty_trace,
    poisson_trace,
)
from repro.serving.service import ServingReport, serve_trace
from repro.serving.session import (
    QUERY_KINDS,
    SESSION_RUNTIMES,
    Query,
    QueryHandle,
    Session,
    SessionConfig,
)
from repro.serving.tenancy import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionDecision,
    AdmissionRejected,
    RejectReason,
    TenantSpec,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionRejected",
    "Arrival",
    "ArrivalTrace",
    "DEFAULT_TENANT",
    "QUERY_KINDS",
    "Query",
    "QueryHandle",
    "RejectReason",
    "SESSION_RUNTIMES",
    "ServingReport",
    "Session",
    "SessionConfig",
    "TRACES",
    "TenantSpec",
    "bursty_trace",
    "poisson_trace",
    "serve_trace",
]
