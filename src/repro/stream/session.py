"""Streaming entry point: updates and queries on one serving clock.

:class:`StreamingSession` owns the full streaming loop around one
:class:`~repro.engine.engine.GraphEngine`:

* **publish** — run admitted sources through the normal distributed
  batched engine and keep each query's exact ``(p, r)`` pair as an
  :class:`~repro.ppr.incremental.IncrementalState`;
* **ingest** — apply one :class:`~repro.stream.updates.UpdateBatch` to
  the driver-side :class:`~repro.stream.dynamic.DynamicGraph` mirror and
  to every shard through the atomic two-phase protocol
  (:mod:`repro.stream.ingest`); a batch that fails to apply reverts the
  mirror and raises :class:`~repro.errors.StreamIngestError`, so mirror
  and shards never diverge;
* **refresh** — fold the accumulated row diffs into every published
  vector by residual correction + signed re-push
  (:mod:`repro.ppr.incremental`) instead of recomputing from scratch;
* **rebalance** — between epochs, turn the accumulated remote-request
  heat into migrations/replications (:mod:`repro.stream.rebalance`).

Every step advances the serving clock only by counts, never wall time:
publish, ingest and rebalance by the charge of the deployments they run
(:meth:`~repro.engine.cluster._Cluster.charge`), refresh by the
``COMPUTE.push`` price of the entries it writes.  All distributed traffic
runs on the session's configured runtime through the one
:func:`~repro.engine.cluster.deploy` seam — so the same event stream and
fault plan replay bitwise-identically on the virtual-time scheduler and
on real threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import MetricsRegistry
from repro.ppr.incremental import IncrementalState, RefreshStats
from repro.ppr.incremental import refresh as refresh_state
from repro.ppr.params import PPRParams
from repro.serving.session import SESSION_RUNTIMES, Query, Session, \
    SessionConfig
from repro.simt.compute import COMPUTE
from repro.stream.dynamic import DynamicGraph
from repro.stream.ingest import IngestReport, build_shard_payloads, \
    ingest_on_cluster, raise_if_failed, report_from_outcome
from repro.stream.rebalance import RebalancePolicy, RebalanceReport, \
    execute_rebalance, plan_rebalance
from repro.stream.updates import UpdateBatch
from repro.utils.validation import check_int


@dataclass(frozen=True)
class StreamEvent:
    """One item of a serving-clock event stream."""

    kind: str                      # "update" | "query" | "rebalance"
    batch: UpdateBatch | None = None
    source: int = -1
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.kind not in ("update", "query", "rebalance"):
            raise ValueError(f"unknown stream event kind {self.kind!r}")
        if self.kind == "update" and self.batch is None:
            raise ValueError("update events need a batch")
        if self.kind == "query" and self.source < 0:
            raise ValueError("query events need a source >= 0")


@dataclass
class StreamConfig:
    """Knobs of one streaming session."""

    runtime: str = "sim"           # "sim" | "threads"
    params: PPRParams | None = None
    #: refresh published vectors every N *applied* batches
    refresh_every: int = 1
    fault_plan: object = None
    retry_policy: object = None
    rebalance: RebalancePolicy = field(default_factory=RebalancePolicy)

    def __post_init__(self) -> None:
        if self.runtime not in SESSION_RUNTIMES:
            raise ValueError(f"runtime must be one of {SESSION_RUNTIMES}, "
                             f"got {self.runtime!r}")
        check_int("refresh_every", self.refresh_every, positive=True)


@dataclass
class StreamReport:
    """Cumulative outcome of one streaming session."""

    n_batches: int = 0
    n_applied: int = 0
    n_failed: int = 0
    n_queries: int = 0
    n_refreshes: int = 0
    clock: float = 0.0
    ingest_reports: list = field(default_factory=list)
    refresh_stats: list = field(default_factory=list)
    rebalance_reports: list = field(default_factory=list)


class StreamingSession:
    """Deterministic interleaving of updates and queries (see module doc)."""

    def __init__(self, engine, config: StreamConfig | None = None) -> None:
        self.engine = engine
        self.config = config if config is not None else StreamConfig()
        cfg = self.config
        #: inner admission/drain front end; owns the serving clock
        self.serving = Session(engine, SessionConfig(
            mode="batched", runtime=cfg.runtime, params=cfg.params,
            fault_plan=cfg.fault_plan, retry_policy=cfg.retry_policy,
        ))
        #: authoritative mutable adjacency, kept in lockstep with shards
        self.dyn = DynamicGraph.from_csr(engine.graph)
        # From here on the engine's whole-graph view reads through the
        # mirror: materialised by its readers (rebalance rebuilds, oracles),
        # never by ingest, and O(1) while the mirror is unchanged.
        engine.sharded.graph_source = self.dyn.snapshot
        #: source gid -> incrementally maintained (p, r)
        self.states: dict[int, IncrementalState] = {}
        #: accumulated fetch heat of the current relabel epoch:
        #: machine -> {node id -> count}
        self.heat: dict[int, dict[int, int]] = {}
        #: stream.* / rebalance.* counters plus merged per-round registries
        self.metrics = MetricsRegistry()
        self.report = StreamReport()
        self._tag = 0
        self._since_refresh = 0

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.serving.now

    def _advance(self, dt: float) -> None:
        self.serving.advance_to(self.serving.now + dt)

    # -- publish ------------------------------------------------------------
    def publish(self, sources) -> None:
        """Run ``sources`` through the batched engine; keep exact states.

        Each published vector's ``(p, r)`` pair comes straight out of the
        distributed ``MultiSSPPR`` — the very pair both runtimes produce
        bitwise-identically — and is maintained incrementally from then
        on.
        """
        from repro.engine.request import RunRequest

        cfg = self.config
        params = cfg.params if cfg.params is not None else PPRParams()
        sources = np.asarray(sources, dtype=np.int64)
        result, charge = self.serving._run(RunRequest(
            sources=sources, params=params, mode="batched",
            keep_states=True, fault_plan=cfg.fault_plan,
            retry_policy=cfg.retry_policy,
        ))
        n = self.dyn.n_nodes
        sharded = self.engine.sharded
        for gid in sources.tolist():
            view = result.states[gid]
            p = view.dense_result(sharded, n)
            r = view.dense_residual(sharded, n)
            self.states[gid] = IncrementalState(gid, params, p, r)
        self._merge_heat(result.heat)
        self.metrics.merge(result.obs.metrics)
        self.metrics.inc("stream.published", len(sources))
        self._advance(charge)

    # -- ingest -------------------------------------------------------------
    def ingest(self, batch: UpdateBatch) -> IngestReport:
        """Apply one update batch atomically to mirror + shards.

        The batch's touched rows are read once *before* the mirror
        mutates, as one capture every published state references (first
        touch since a state's last refresh wins), then
        the batch goes through the two-phase shard protocol.  On any
        distributed failure the mirror is reverted bitwise and a
        :class:`~repro.errors.StreamIngestError` is raised — the graph
        is unchanged everywhere.  A batch naming a vertex outside the
        node set is rejected (:class:`~repro.errors.GraphFormatError`)
        before anything — mirror, tag, counters — has moved.  A batch
        that changes no row runs no cluster and costs no time.
        """
        cfg = self.config
        self.dyn.check(batch)
        self._tag += 1
        tag = self._tag
        self.report.n_batches += 1
        self.metrics.inc("stream.batches")
        if len(batch):
            touched = np.unique(np.concatenate([batch.src, batch.dst]))
            capture = None  # read by the first state, shared by the rest
            for state in self.states.values():
                capture = state.capture_pre_rows(self.dyn, touched, capture)
        delta = self.dyn.apply(batch)
        if not delta:
            report = IngestReport(tag=tag, status="empty", n_changed=0,
                                  staged_rows=0, error=None, retries=0)
            self.report.ingest_reports.append(report)
            self.report.n_applied += 1
            return report

        payloads = build_shard_payloads(self.engine.sharded, self.dyn, delta)
        outcome, cluster = ingest_on_cluster(
            self.engine, payloads, tag, runtime=cfg.runtime,
            fault_plan=cfg.fault_plan, retry_policy=cfg.retry_policy)
        self.metrics.merge(cluster.obs.metrics)
        report = report_from_outcome(tag, outcome, delta.n_changed,
                                     cluster.retries)
        self.report.ingest_reports.append(report)
        self._advance(cluster.charge())
        if not report.applied:
            self.dyn.revert(delta)
            self.report.n_failed += 1
            raise_if_failed(report)
        self.report.n_applied += 1
        self.metrics.inc("stream.arcs_inserted", delta.arcs_inserted)
        self.metrics.inc("stream.arcs_deleted", delta.arcs_deleted)
        self.metrics.inc("stream.arcs_reweighted", delta.arcs_reweighted)
        self._since_refresh += 1
        if self._since_refresh >= cfg.refresh_every:
            self.refresh()
        return report

    # -- incremental maintenance --------------------------------------------
    def refresh(self) -> list[RefreshStats]:
        """Fold pending row diffs into every published vector.

        States that captured the same batches share one row diff.
        Priced as one ``COMPUTE.push`` over every residual entry written
        (corrections and the rows the signed pushes spread), no slots.
        """
        diffs: dict = {}
        stats = [refresh_state(self.states[gid], self.dyn, diffs=diffs)
                 for gid in sorted(self.states)]
        self._since_refresh = 0
        if not self.states:
            return stats
        corrections = sum(s.n_corrections for s in stats)
        pushes = sum(s.n_pushes for s in stats)
        entries = sum(s.n_entries for s in stats)
        self.report.n_refreshes += 1
        self.report.refresh_stats.append(stats)
        self.metrics.inc("stream.refreshes")
        self.metrics.inc("stream.refresh_corrections", corrections)
        self.metrics.inc("stream.refresh_pushes", pushes)
        self._advance(COMPUTE.push(corrections + entries, 0))
        return stats

    # -- queries ------------------------------------------------------------
    def submit(self, source: int, *, tenant: str = "default"):
        """Admit one SSPPR query at the current serving clock."""
        self.report.n_queries += 1
        self.metrics.inc("stream.queries")
        return self.serving.submit(Query(source=int(source)), tenant=tenant)

    def drain(self):
        """Execute pending admitted queries; harvest their fetch heat."""
        if not self.serving.pending:
            return None
        result = self.serving.drain()
        self._merge_heat(result.heat)
        return result

    def _merge_heat(self, heat) -> None:
        for machine, hmap in heat.items():
            acc = self.heat.setdefault(machine, {})
            for key, count in hmap.items():
                acc[key] = acc.get(key, 0) + count

    # -- rebalancing --------------------------------------------------------
    def epoch_rebalance(self) -> RebalanceReport:
        """Act on the epoch's accumulated heat; reset it afterwards."""
        cfg = self.config
        self.drain()
        plan = plan_rebalance(self.engine.sharded, self.heat,
                              cfg.rebalance)
        if plan:
            for cluster in execute_rebalance(
                    self.engine, plan, runtime=cfg.runtime,
                    fault_plan=cfg.fault_plan,
                    retry_policy=cfg.retry_policy):
                self.metrics.merge(cluster.obs.metrics)
                self._advance(cluster.charge())
        self.heat = {}
        self.metrics.inc("rebalance.epochs")
        self.metrics.inc("rebalance.migrations_planned", plan.n_migrated)
        self.metrics.inc("rebalance.replications_planned",
                         plan.n_replicated)
        self.report.rebalance_reports.append(plan)
        return plan

    # -- the loop -----------------------------------------------------------
    def run_stream(self, events) -> StreamReport:
        """Process an event sequence in order; return the session report.

        Update and rebalance events first drain pending queries, so each
        admitted batch executes against one consistent snapshot; a final
        drain and (if diffs are pending) refresh leave the published
        vectors current.  What the inner serving session recorded since
        the previous call is folded into :attr:`metrics` once.
        """
        for event in events:
            if event.kind == "update":
                self.drain()
                self.ingest(event.batch)
            elif event.kind == "query":
                self.submit(event.source, tenant=event.tenant)
            else:
                self.epoch_rebalance()
        self.drain()
        if self._since_refresh:
            self.refresh()
        self.report.clock = self.now
        served, self.serving.metrics = self.serving.metrics, MetricsRegistry()
        self.metrics.merge(served)
        return self.report

    # -- results ------------------------------------------------------------
    def published(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """The maintained ``(p, r)`` pair of one published source."""
        state = self.states[int(source)]
        return state.p, state.r
