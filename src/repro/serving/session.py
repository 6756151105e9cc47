"""The session/submit serving facade over :class:`GraphEngine`.

This module is the engine's *only* execution path.  A :class:`Session`
owns one deployment's serving state — an admission controller, a virtual
serving clock, accumulated ``serve.*`` metrics — and executes query
batches through :meth:`Session.run`, the one run body: written once against
the :func:`~repro.engine.cluster.deploy` seam, it serves both runtimes.
``GraphEngine.run(RunRequest(...))`` is a thin wrapper that opens a
throwaway session and calls the same code, so the batch and serving paths
produce byte-for-byte identical results by construction.

Serving use::

    session = engine.open_session(SessionConfig(
        tenants=(TenantSpec("gold", priority=2, quota=64),
                 TenantSpec("free", priority=0, quota=8)),
        slo=0.25,
    ))
    h = session.submit(Query(source=123), tenant="gold")
    session.drain()                      # execute everything admitted
    state = h.result()                   # per-query result + stats

``submit`` stamps the query at the session's virtual clock, runs admission
(bounded queue, per-tenant quota — docs/serving.md), and returns a
future-like :class:`QueryHandle`.  ``drain`` selects the next fused batch
(guarantee round + priority fill), executes concurrent SSPPR queries as
one shared-frontier :class:`~repro.ppr.multi_query.MultiSSPPR` batch per
owning process (``mode="batched"``, the default) alongside any walk
queries, advances the serving clock by what those deployments cost
(:meth:`~repro.engine.cluster._Cluster.charge`), and resolves the batch's
handles.

Determinism: the serving clock advances only by deployment charges, which
are computed from counts — compute charged by the one cost model, remote
calls priced by the network model, timed-out attempts by the retry
policy — so a seeded arrival trace produces identical admission
decisions, batch compositions, latencies, and result vectors on the
virtual-time scheduler and on real threads
(``SessionConfig(runtime="threads")``) — pinned by
``tests/test_serving.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.engine.breakdown import aggregate_breakdowns
from repro.engine.cluster import deploy
from repro.engine.query import (
    assign_queries,
    multi_query_driver,
    multi_query_tensor_driver,
    sample_sources,
)
from repro.engine.request import RUN_MODES, RunRequest, check_degradation
from repro.obs import MetricsRegistry
from repro.ppr.distributed import DegradationMode
from repro.ppr.multi_query import QueryView
from repro.ppr.params import PPRParams
from repro.rpc.retry import RetryPolicy
from repro.serving.tenancy import (
    AdmissionController,
    AdmissionDecision,
    AdmissionRejected,
    TenantSpec,
)
from repro.simt.faults import FaultPlan
from repro.storage.dist_storage import DistGraphStorage
from repro.storage.fetch import FetchCache, NeighborFetchService
from repro.utils.validation import check_int, check_nonnegative
from repro.walk.random_walk import distributed_random_walk

#: query kinds a session can serve
QUERY_KINDS = ("sppr", "walk")

#: execution runtimes a session can drain on
SESSION_RUNTIMES = ("sim", "threads")


@dataclass(frozen=True)
class Query:
    """One tenant-visible query: an SSPPR vector or a random walk."""

    source: int
    kind: str = "sppr"
    walk_length: int = 8

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"kind must be one of {QUERY_KINDS}, got {self.kind!r}"
            )
        # same rule as RunRequest.sources: integers only, nothing truncated
        check_int("source", self.source)
        check_nonnegative("source", self.source)
        check_int("walk_length", self.walk_length,
                  positive=self.kind == "walk")


@dataclass(frozen=True)
class SessionConfig:
    """Knobs for one serving session (tenancy, SLO, execution mode)."""

    #: fused execution mode for drained SSPPR batches; ``"batched"``
    #: (shared-frontier MultiSSPPR) is the cross-tenant batching default
    mode: str = "batched"
    params: PPRParams | None = None
    #: ``"sim"`` = virtual-time scheduler, ``"threads"`` = real OS threads
    runtime: str = "sim"
    tenants: tuple[TenantSpec, ...] = ()
    queue_cap: int = 256
    batch_cap: int = 64
    #: per-query latency SLO in virtual seconds (``None`` = no deadline
    #: accounting; completed queries then never count as missed)
    slo: float | None = None
    #: minimum virtual seconds between batch dispatches (batching cadence)
    batch_window: float = 0.0
    #: chaos knobs layered onto every drained batch
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    degradation: DegradationMode = DegradationMode.FAIL_FAST

    def __post_init__(self) -> None:
        if self.mode not in RUN_MODES:
            raise ValueError(
                f"mode must be one of {RUN_MODES}, got {self.mode!r}"
            )
        if self.runtime not in SESSION_RUNTIMES:
            raise ValueError(
                f"runtime must be one of {SESSION_RUNTIMES}, "
                f"got {self.runtime!r}"
            )
        check_degradation(self.mode, self.degradation)
        check_int("queue_cap", self.queue_cap, positive=True)
        check_int("batch_cap", self.batch_cap, positive=True)
        if self.slo is not None and not (math.isfinite(self.slo)
                                         and self.slo > 0):
            raise ValueError(
                f"slo must be finite and > 0, or None, got {self.slo}")
        if not (math.isfinite(self.batch_window) and self.batch_window >= 0):
            raise ValueError(
                f"batch_window must be finite and >= 0, "
                f"got {self.batch_window}"
            )


class QueryHandle:
    """Future-like handle for one submitted query.

    Resolves at the ``drain`` that executes its batch: ``status`` moves
    ``"queued" -> "done"`` (or straight to ``"rejected"`` at submit),
    ``result()`` returns the per-query result state, and ``latency`` /
    ``slo_ok`` carry the serving-clock accounting.
    """

    __slots__ = ("query", "tenant", "seq", "submitted_at", "status",
                 "reject_reason", "latency", "slo_ok", "batch_index",
                 "_value")

    def __init__(self, query: Query, tenant: str, seq: int,
                 submitted_at: float) -> None:
        self.query = query
        self.tenant = tenant
        self.seq = seq
        self.submitted_at = submitted_at
        self.status = "queued"
        self.reject_reason = None
        self.latency: float | None = None
        self.slo_ok: bool | None = None
        self.batch_index: int | None = None
        self._value = None

    @property
    def done(self) -> bool:
        return self.status == "done"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"

    def result(self):
        """The query's result: a ``QueryView`` (``DenseSSPPR`` under
        ``mode="tensor"``) or a walk row.

        Raises :class:`AdmissionRejected` for rejected queries and
        :class:`RuntimeError` while still queued.
        """
        if self.status == "rejected":
            raise AdmissionRejected(
                self.reject_reason,
                f"query #{self.seq} (tenant {self.tenant!r}) was rejected: "
                f"{self.reject_reason.value}",
            )
        if self.status != "done":
            raise RuntimeError(
                f"query #{self.seq} is still {self.status}; call "
                "session.drain() first"
            )
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"QueryHandle(seq={self.seq}, tenant={self.tenant!r}, "
                f"status={self.status!r})")


def _push_states(states: dict) -> list:
    """The distinct push states behind a run's per-query views, in order.

    Hashmap results are :class:`QueryView` s, several of which share one
    batched ``MultiSSPPR``; the dense baseline's states carry no operator
    counters.
    """
    return list({id(v.multi): v.multi for v in states.values()
                 if isinstance(v, QueryView)}.values())


class Session:
    """Long-lived submit/drain front end over one :class:`GraphEngine`."""

    def __init__(self, engine, config: SessionConfig | None = None) -> None:
        self.engine = engine
        self.config = config if config is not None else SessionConfig()
        self.admission = AdmissionController(
            tenants=self.config.tenants,
            queue_cap=self.config.queue_cap,
            batch_cap=self.config.batch_cap,
        )
        #: virtual serving clock (seconds); advanced by submissions'
        #: ``advance_to`` and by every drain's deployment charges
        self.now = 0.0
        #: serve.* metrics plus the merged per-batch engine registries
        self.metrics = MetricsRegistry()
        #: full admission audit log (one entry per submit)
        self.decisions: list[AdmissionDecision] = []
        #: per-drain batch compositions as submit-sequence tuples
        self.batch_log: list[tuple[int, ...]] = []
        self.admitted_total = 0
        self.rejected_total = 0
        self.completed_total = 0
        self.missed_total = 0
        self._seq = 0
        self._rejected_since_drain = 0

    # -- clock --------------------------------------------------------------
    def advance_to(self, t: float) -> None:
        """Move the serving clock forward to ``t`` (never backward)."""
        if t > self.now:
            self.now = t

    # -- submit -------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Queries admitted but not yet drained."""
        return self.admission.depth

    def submit(self, query: Query, *, tenant: str = "default") -> QueryHandle:
        """Admit one query at the current serving clock; never blocks."""
        if not isinstance(query, Query):
            raise TypeError(
                f"submit takes a Query, got {type(query).__name__}"
            )
        handle = QueryHandle(query, tenant, self._seq, self.now)
        self._seq += 1
        decision = self.admission.offer(handle.seq, tenant, handle)
        self.decisions.append(decision)
        m = self.metrics
        m.inc("serve.submitted")
        if decision.admitted:
            self.admitted_total += 1
            m.inc("serve.admitted")
            m.inc(f"serve.tenant.{tenant}.admitted")
        else:
            handle.status = "rejected"
            handle.reject_reason = decision.reason
            self.rejected_total += 1
            self._rejected_since_drain += 1
            m.inc("serve.rejected")
            m.inc(f"serve.rejected.{decision.reason.value}")
            m.inc(f"serve.tenant.{tenant}.rejected")
        m.set("serve.queue_depth", self.admission.depth)
        return handle

    # -- drain --------------------------------------------------------------
    def drain(self):
        """Execute the next fused batch; resolve its handles.

        Returns the batch's :class:`~repro.engine.QueryRunResult` with the
        serving-mode typed counters filled in (``admitted`` = queries
        executed in this batch, ``rejected`` = rejections since the
        previous drain, ``deadline_missed`` = this batch's SLO misses).
        Draining an empty queue returns an all-zero result.  Call
        repeatedly to empty a queue deeper than ``batch_cap``.
        """
        from repro.engine.engine import QueryRunResult

        handles = self.admission.take_batch()
        rejected_here = self._rejected_since_drain
        self._rejected_since_drain = 0
        if not handles:
            return QueryRunResult(
                n_queries=0, makespan=0.0, throughput=0.0, phases={},
                per_proc_clocks={}, remote_requests=0, local_calls=0,
                rejected=rejected_here,
            )
        cfg = self.config
        start = self.now
        batch_index = len(self.batch_log)
        self.batch_log.append(tuple(h.seq for h in handles))
        sppr = [h for h in handles if h.query.kind == "sppr"]
        walks = [h for h in handles if h.query.kind == "walk"]

        result = None
        service = 0.0
        if sppr:
            request = RunRequest(
                sources=np.array([h.query.source for h in sppr],
                                 dtype=np.int64),
                params=cfg.params, mode=cfg.mode, keep_states=True,
                fault_plan=cfg.fault_plan, retry_policy=cfg.retry_policy,
                degradation=cfg.degradation,
            )
            result, service = self._run(request)
            self.metrics.merge(result.obs.metrics)
        walk_rows: dict[tuple[int, int], np.ndarray] = {}
        for length in sorted({h.query.walk_length for h in walks}):
            roots = np.array([h.query.source for h in walks
                              if h.query.walk_length == length],
                             dtype=np.int64)
            rows, _makespan, charge = self.run_walks(roots, length)
            walk_rows.update({(int(row[0]), length): row for row in rows})
            service += charge

        completion = start + service
        self.now = completion

        missed = 0
        m = self.metrics
        for h in handles:
            h.status = "done"
            h.batch_index = batch_index
            if h.query.kind == "sppr":
                h._value = result.states[h.query.source]
            else:
                h._value = walk_rows[(h.query.source, h.query.walk_length)]
            h.latency = completion - h.submitted_at
            m.observe("serve.latency", h.latency)
            m.inc("serve.completed")
            m.inc(f"serve.tenant.{h.tenant}.completed")
            if cfg.slo is not None:
                h.slo_ok = h.latency <= cfg.slo
                if not h.slo_ok:
                    missed += 1
                    m.inc("serve.slo_missed")
                    m.inc(f"serve.tenant.{h.tenant}.missed")
        self.completed_total += len(handles)
        self.missed_total += missed
        m.inc("serve.batches")
        m.inc("serve.batch_queries", len(handles))
        m.set("serve.clock", self.now)
        m.set("serve.queue_depth", self.admission.depth)

        if result is None:
            result = QueryRunResult(
                n_queries=len(handles), makespan=service,
                throughput=len(handles) / service if service > 0 else 0.0,
                phases={}, per_proc_clocks={}, remote_requests=0,
                local_calls=0,
            )
        result.admitted = len(handles)
        result.rejected = rejected_here
        result.deadline_missed = missed
        return result

    # -- execution ----------------------------------------------------------
    def run(self, request: RunRequest):
        """Execute one batched SSPPR request on the session's runtime."""
        return self._run(request)[0]

    def _run(self, request: RunRequest):
        """:meth:`run`'s body: ``(result, the deployment's charge)``.

        This is the single execution path shared by ``engine.run`` (which
        opens a throwaway session) and ``drain`` — identical requests
        yield byte-for-byte identical results either way — and the single
        body for both runtimes: it is written against the
        :func:`~repro.engine.cluster.deploy` seam, so the virtual-time
        scheduler and real OS threads run the same worker names, the same
        query assignment and the same storage wrapping (a fresh demand
        ledger per machine per batch), issue the identical remote-call
        sequence, and replay a ``FaultPlan``'s drop decisions identically.

        Dispatches on ``request.mode`` (PPR Engine / tensor baseline /
        inter-query batching), deploys a fresh cluster at the engine
        config's optimization level with the request's
        tracing, fault plan and retry policy, and reports the
        fault-tolerance counters alongside the usual throughput numbers.
        """
        from repro.engine.engine import QueryRunResult

        engine = self.engine
        cfg = engine.config
        params = request.params if request.params is not None else PPRParams()
        seed = cfg.seed if request.seed is None else request.seed
        if request.sources is not None:
            sources = request.sources
        else:
            sources = sample_sources(engine.sharded, request.n_queries,
                                     seed=seed)
        # the boundary: caller ids are validated and become node ids here
        source_ids = engine.sharded.nodes_of(sources)

        cluster = deploy(engine.sharded, cfg, self.config.runtime,
                         fault_plan=request.fault_plan,
                         retry_policy=request.retry_policy,
                         trace=request.trace,
                         max_spans=request.max_spans,
                         sanitize=request.sanitize)
        obs = cluster.obs
        assignment = assign_queries(engine.sharded, source_ids,
                                    cfg.procs_per_machine)

        # one demand ledger per machine, shared by its computing
        # processes; its counts are the result's heat, which the stream
        # rebalancer reads between epochs
        ledgers: dict[int, FetchCache] = {}

        def storage_for(machine, proc, compress):
            if not compress:
                return DistGraphStorage(cluster.rrefs, machine, proc.name,
                                        compress=False)
            ledger = ledgers.get(machine)
            if ledger is None:
                ledger = ledgers[machine] = FetchCache(
                    sanitizer=cluster.sanitizer)
            return NeighborFetchService(cluster.rrefs, machine, proc.name,
                                        ledger)

        states: dict[int, object] = {}
        latencies: dict[int, float] = {}
        # one skip_remote accumulator per driver, summed in spawn order:
        # no cross-thread read-modify-write, and the same float sum on
        # both runtimes
        fault_stats: list[dict] = []
        # batched mode always collects: its per-query views are the only
        # way to read results back out of the shared MultiSSPPR
        collect = states if (request.keep_states
                             or request.mode == "batched") else None
        for (machine, proc_index), chunk in assignment.items():
            proc = cluster.worker(machine, proc_index)
            if request.mode == "tensor":
                body = multi_query_tensor_driver(
                    storage_for(machine, proc, True), proc, chunk,
                    engine.sharded, params, collect=collect,
                )
            else:
                fault_stats.append({"degraded_queries": 0,
                                    "abandoned_mass": 0.0})
                body = multi_query_driver(
                    storage_for(machine, proc, cfg.opt.compressed), proc,
                    chunk, engine.sharded, params, opt=cfg.opt,
                    batched=request.mode == "batched",
                    collect=collect, latencies=latencies,
                    degradation=request.degradation,
                    fault_stats=fault_stats[-1],
                )
            cluster.spawn_compute(machine, proc_index, body)

        makespan = cluster.run()
        charge = cluster.charge()
        procs = cluster.compute_processes()
        phases = aggregate_breakdowns([p.breakdown for p in procs])
        degraded_queries = sum(s["degraded_queries"] for s in fault_stats)
        abandoned_mass = sum((s["abandoned_mass"] for s in fault_stats), 0.0)
        obs.metrics.inc("engine.queries", len(sources))
        obs.metrics.inc("engine.degraded_queries", degraded_queries)
        obs.metrics.set("engine.makespan", makespan)
        for state in _push_states(states):
            # operator-work counts (pure counts — runtime-independent)
            for key, val in state.stats().items():
                obs.metrics.inc(key, int(val))
        race_violations: list = []
        if cluster.sanitizer is not None:
            race_violations = list(cluster.sanitizer.report())
            obs.metrics.inc("sanitizer.accesses", cluster.sanitizer.accesses)
            obs.metrics.inc("sanitizer.violations", len(race_violations))
        return QueryRunResult(
            n_queries=len(sources),
            makespan=makespan,
            throughput=len(sources) / makespan if makespan > 0 else float("inf"),
            phases=phases,
            per_proc_clocks={p.name: p.clock for p in procs},
            remote_requests=cluster.remote_requests,
            local_calls=cluster.local_calls,
            states=states,
            latencies=latencies,
            retries=cluster.retries,
            timeouts=cluster.timeouts,
            dropped_messages=cluster.dropped_messages,
            degraded_queries=degraded_queries,
            abandoned_mass=abandoned_mass,
            metrics=obs.metrics.snapshot(),
            obs=obs,
            heat={m: ledger.heat() for m, ledger in ledgers.items()},
            race_violations=race_violations,
        ), charge

    def run_walks(self, roots: np.ndarray,
                  walk_length: int) -> tuple[np.ndarray, float, float]:
        """Execute one random-walk batch (``roots`` are caller ids).

        The single walk execution path, shared by ``drain`` and
        ``engine.run_random_walks`` (through a throwaway session).  Returns
        ``(walks, makespan, charge)``: one row per root, duplicates
        included, in worker-name order, each row starting at its root, and
        the deployment's makespan and serving-clock charge.
        """
        engine = self.engine
        cfg = engine.config
        root_ids = engine.sharded.nodes_of(roots)
        cluster = deploy(engine.sharded, cfg, self.config.runtime,
                         fault_plan=self.config.fault_plan,
                         retry_policy=self.config.retry_policy)
        names = []
        for (machine, p), chunk in assign_queries(
                engine.sharded, root_ids, cfg.procs_per_machine).items():
            proc = cluster.worker(machine, p)
            g = DistGraphStorage(cluster.rrefs, machine, proc.name,
                                 compress=True)
            names.append(cluster.spawn_compute(
                machine, p, distributed_random_walk(
                    g, proc, chunk, engine.sharded, walk_length)))
        makespan = cluster.run()
        walks = np.concatenate(
            [cluster.result_of(n) for n in sorted(names)], axis=0)
        self.metrics.merge(cluster.obs.metrics)
        return walks, makespan, cluster.charge()

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat serving metrics snapshot (``serve.*`` + merged engine runs)."""
        return self.metrics.snapshot()
