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
queries, advances the serving clock by the deterministic
:class:`ServiceCostModel`, and resolves the batch's handles.

Determinism: the serving clock advances only by cost-model time computed
from runtime-independent inputs (query counts, operator push counts,
fault-plan retry counts), so a seeded arrival trace produces identical
admission decisions, batch compositions, latencies, and result vectors on
the virtual-time scheduler and on real threads
(``SessionConfig(runtime="threads")``) — pinned by
``tests/test_serving.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.breakdown import aggregate_breakdowns
from repro.engine.cluster import deploy
from repro.engine.query import (
    assign_queries,
    multi_query_batched_driver,
    multi_query_driver,
    multi_query_tensor_driver,
    sample_sources,
)
from repro.engine.request import RUN_MODES, RunRequest, check_degradation
from repro.obs import MetricsRegistry
from repro.ppr.distributed import DegradationMode
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
        if (isinstance(self.source, bool)
                or not isinstance(self.source, (int, np.integer))):
            raise ValueError(
                f"source must be an integer id, got {self.source!r}"
            )
        if self.source < 0:
            raise ValueError(f"source must be >= 0, got {self.source}")
        if self.kind == "walk" and self.walk_length <= 0:
            raise ValueError(
                f"walk_length must be > 0, got {self.walk_length}"
            )


@dataclass(frozen=True)
class ServiceCostModel:
    """Deterministic virtual service time for one fused batch.

    The serving clock advances by this model — never by measured wall
    time — so serving decisions replay identically on both runtimes.
    Inputs are runtime-independent: query counts, summed Forward-Push
    operator counts, walk steps, and fault-plan retry counts.
    """

    batch_overhead: float = 2e-3    # per-batch deployment + dispatch cost
    per_query: float = 1e-3         # per fused SSPPR query
    per_push: float = 5e-8          # per Forward-Push pair push
    per_walk_step: float = 2e-5     # per walker step
    per_retry: float = 1e-3         # per injected-fault retransmission

    def service_time(self, *, n_queries: int = 0, n_pushes: int = 0,
                     n_walk_steps: int = 0, n_retries: int = 0) -> float:
        if min(n_queries, n_pushes, n_walk_steps, n_retries) < 0:
            raise ValueError("cost-model inputs must be >= 0")
        return (self.batch_overhead
                + self.per_query * n_queries
                + self.per_push * n_pushes
                + self.per_walk_step * n_walk_steps
                + self.per_retry * n_retries)


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
    cost_model: ServiceCostModel = field(default_factory=ServiceCostModel)
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
        if self.slo is not None and self.slo <= 0:
            raise ValueError(f"slo must be > 0 or None, got {self.slo}")
        if self.batch_window < 0:
            raise ValueError(
                f"batch_window must be >= 0, got {self.batch_window}"
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
        """The query's result state (SSPPR state / walk row).

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


def _batch_pushes(states: dict) -> int:
    """Summed Forward-Push pushes across a batch's result states.

    Counts are pure operator work — identical on both runtimes.  Batched
    states are per-query views over shared ``MultiSSPPR`` objects; those
    are deduplicated so shared work is counted once.
    """
    total = 0
    seen: set[int] = set()
    for state in states.values():
        multi = getattr(state, "multi", None)
        if multi is not None:
            if id(multi) not in seen:
                seen.add(id(multi))
                total += int(multi.n_pushes)
        elif hasattr(state, "stats"):
            total += int(state.stats().get("ppr.pushes", 0))
    return total


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
        #: ``advance_to`` and by every drain's modeled service time
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
        n_pushes = 0
        n_retries = 0
        n_walk_steps = 0
        if sppr:
            request = RunRequest(
                sources=np.array([h.query.source for h in sppr],
                                 dtype=np.int64),
                params=cfg.params, mode=cfg.mode, keep_states=True,
                fault_plan=cfg.fault_plan, retry_policy=cfg.retry_policy,
                degradation=cfg.degradation,
            )
            result = self.run(request)
            n_pushes = _batch_pushes(result.states)
            n_retries += result.retries
            self.metrics.merge(result.obs.metrics)
        walk_rows: dict[tuple[int, int], np.ndarray] = {}
        if walks:
            lengths = sorted({h.query.walk_length for h in walks})
            for length in lengths:
                roots = np.array(
                    [h.query.source for h in walks
                     if h.query.walk_length == length], dtype=np.int64)
                rows, _makespan, retries = self.run_walks(roots, length)
                walk_rows.update({(int(row[0]), length): row
                                  for row in rows})
                n_retries += retries
                n_walk_steps += len(roots) * length

        service = cfg.cost_model.service_time(
            n_queries=len(sppr), n_pushes=n_pushes,
            n_walk_steps=n_walk_steps, n_retries=n_retries,
        )
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
        if n_retries:
            m.inc("serve.batch_retries", n_retries)
        m.set("serve.clock", self.now)
        m.set("serve.queue_depth", self.admission.depth)

        if result is None:
            result = QueryRunResult(
                n_queries=len(handles), makespan=service,
                throughput=len(handles) / service if service > 0 else 0.0,
                phases={}, per_proc_clocks={}, remote_requests=0,
                local_calls=0, retries=n_retries,
            )
        result.admitted = len(handles)
        result.rejected = rejected_here
        result.deadline_missed = missed
        return result

    # -- execution ----------------------------------------------------------
    def run(self, request: RunRequest):
        """Execute one batched SSPPR request on the session's runtime.

        This is the single execution path shared by ``engine.run`` (which
        opens a throwaway session) and ``drain`` — identical requests
        yield byte-for-byte identical results either way — and the single
        body for both runtimes: it is written against the
        :func:`~repro.engine.cluster.deploy` seam, so the virtual-time
        scheduler and real OS threads run the same worker names, the same
        query assignment and the same storage wrapping (fresh per-machine
        ``FetchCache`` per batch), issue the identical remote-call
        sequence, and replay a ``FaultPlan``'s drop decisions identically.

        Dispatches on ``request.mode`` (PPR Engine / tensor baseline /
        inter-query batching), deploys a fresh cluster at the engine
        config's optimization level and fetch settings with the request's
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

        # one FetchCache per machine, shared by its computing processes —
        # that sharing is what makes cross-request coalescing fire
        fetch_caches: dict[int, FetchCache] = {}
        # per-machine remote-row demand, mutated under the FetchCache lock;
        # the stream rebalancer reads it off the result between epochs
        heat_maps: dict[int, dict[int, int]] = {}

        def storage_for(machine, proc, compress):
            g = DistGraphStorage(cluster.rrefs, machine, proc.name,
                                 compress=compress)
            if not (compress
                    and (cfg.fetch_split or cfg.fetch_cache_bytes > 0)):
                return g
            fc = fetch_caches.get(machine)
            if fc is None:
                fc = fetch_caches[machine] = FetchCache(
                    cfg.fetch_cache_bytes, sanitizer=cluster.sanitizer
                )
            return NeighborFetchService(
                g, fc, split=cfg.fetch_split, coalesce=cfg.fetch_coalesce,
                metrics=obs.metrics, proc=proc,
                heat=heat_maps.setdefault(machine, {}),
            )

        def cache_gauges() -> dict:
            return {
                "fetch.cache_bytes": sum(
                    fc.nbytes for fc in fetch_caches.values()),
                "fetch.cache_entries": sum(
                    len(fc.rows) for fc in fetch_caches.values()),
            }

        run_timeline = None
        if request.timeline is not None:
            from repro.obs.analysis.timeline import Timeline

            run_timeline = Timeline(interval=request.timeline)
            cluster.start_timeline(run_timeline, gauges=cache_gauges)

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
            elif request.mode == "batched":
                body = multi_query_batched_driver(
                    storage_for(machine, proc, True), proc, chunk,
                    engine.sharded, params, collect=collect,
                )
            else:
                fault_stats.append({"degraded_queries": 0,
                                    "abandoned_mass": 0.0})
                body = multi_query_driver(
                    storage_for(machine, proc, cfg.opt.compressed), proc,
                    chunk, engine.sharded, params, opt=cfg.opt,
                    collect=collect, latencies=latencies,
                    degradation=request.degradation,
                    fault_stats=fault_stats[-1],
                )
            cluster.spawn_compute(machine, proc_index, body)

        makespan = cluster.run()
        procs = cluster.compute_processes()
        phases = aggregate_breakdowns([p.breakdown for p in procs])
        degraded_queries = sum(s["degraded_queries"] for s in fault_stats)
        abandoned_mass = sum((s["abandoned_mass"] for s in fault_stats), 0.0)
        if fetch_caches:
            for name, value in cache_gauges().items():
                obs.metrics.set(name, value)
        obs.metrics.inc("engine.queries", len(sources))
        obs.metrics.inc("engine.degraded_queries", degraded_queries)
        obs.metrics.set("engine.makespan", makespan)
        for state in states.values():
            # operator-work counts (pure counts — runtime-independent)
            if hasattr(state, "stats"):
                for key, val in state.stats().items():
                    obs.metrics.inc(key, int(val))
        race_violations: list = []
        if cluster.sanitizer is not None:
            race_violations = list(cluster.sanitizer.report())
            obs.metrics.inc("sanitizer.accesses", cluster.sanitizer.accesses)
            obs.metrics.inc("sanitizer.violations", len(race_violations))
        if run_timeline is not None:
            from repro.obs.analysis.timeline import final_sample

            final_sample(run_timeline, obs.metrics, makespan,
                         gauges=cache_gauges)
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
            heat=heat_maps,
            race_violations=race_violations,
            timeline=run_timeline,
        )

    def run_walks(self, roots: np.ndarray,
                  walk_length: int) -> tuple[np.ndarray, float, int]:
        """Execute one random-walk batch (``roots`` are caller ids).

        The single walk execution path, shared by ``drain`` and
        ``engine.run_random_walks`` (through a throwaway session).  Returns
        ``(walks, makespan, retries)``: one row per root, duplicates
        included, in worker-name order, each row starting at its root.
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
        return walks, makespan, cluster.retries

    # -- reporting ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Flat serving metrics snapshot (``serve.*`` + merged engine runs)."""
        return self.metrics.snapshot()
