"""Streaming graph updates (``repro.stream``).

The engine's graphs were static until this package: an edge stream is a
seeded sequence of :class:`UpdateBatch` objects (GDELT-style batched
inserts/deletes over a fixed node set), applied

* to a driver-side :class:`DynamicGraph` mirror (the authoritative mutable
  adjacency, snapshot-able back to :class:`~repro.graph.csr.CSRGraph`), and
* to the deployed :class:`~repro.storage.shard.GraphShard` objects through
  an atomic two-phase RPC protocol (:mod:`repro.stream.ingest`) that is
  visible to obs/chaos like any other traffic.

Published PPR vectors are maintained *incrementally*
(:mod:`repro.ppr.incremental`) instead of recomputed, and observed
``fetch.*`` heat drives shard rebalancing (:mod:`repro.stream.rebalance`).
:class:`StreamingSession` ties all of it to the serving clock.  See
docs/streaming.md.
"""

from repro.stream.dynamic import AppliedDelta, DynamicGraph
from repro.stream.generator import TemporalEdgeStream
from repro.stream.ingest import (
    IngestReport,
    ShardUpdate,
    StreamIngestError,
    build_shard_payloads,
    ingest_on_cluster,
)
from repro.stream.rebalance import (
    RebalanceDecision,
    RebalancePolicy,
    RebalanceReport,
    plan_rebalance,
)
from repro.stream.session import (
    StreamConfig,
    StreamEvent,
    StreamingSession,
    StreamReport,
)
from repro.stream.updates import UpdateBatch

__all__ = [
    "AppliedDelta",
    "DynamicGraph",
    "IngestReport",
    "RebalanceDecision",
    "RebalancePolicy",
    "RebalanceReport",
    "ShardUpdate",
    "StreamConfig",
    "StreamEvent",
    "StreamIngestError",
    "StreamReport",
    "StreamingSession",
    "TemporalEdgeStream",
    "UpdateBatch",
    "build_shard_payloads",
    "ingest_on_cluster",
    "plan_rebalance",
]
