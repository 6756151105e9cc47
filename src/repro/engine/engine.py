"""The public engine facade.

Typical use::

    from repro.engine import EngineConfig, GraphEngine, RunRequest
    from repro.graph import load_dataset

    graph = load_dataset("products", scale=0.1)
    engine = GraphEngine(graph, EngineConfig(n_machines=4))
    run = engine.run(RunRequest(n_queries=64))
    print(run.throughput, run.phases)

``GraphEngine`` partitions once (preprocessing, amortized across runs) and
deploys a fresh simulated cluster per query batch so virtual clocks start
at zero — matching the paper's repeated-run measurement protocol.

:meth:`GraphEngine.run` takes a :class:`~repro.engine.request.RunRequest`
bundling the query set, PPR parameters, optimization level, tracing, and
the fault-tolerance knobs (``FaultPlan`` / ``RetryPolicy`` / degradation
mode).  It is a thin wrapper over the serving layer's
:class:`~repro.serving.Session` — ``engine.run(request)`` opens a
throwaway session and executes through the same code path that
``session.drain()`` uses, so batch and serving runs are byte-for-byte
identical by construction.  Long-lived multi-tenant serving goes through
:meth:`GraphEngine.open_session` (docs/serving.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.cluster import SimCluster
from repro.engine.config import EngineConfig
from repro.engine.query import sample_sources
from repro.engine.request import RunRequest
from repro.graph.csr import CSRGraph
from repro.ppr.params import PPRParams
from repro.storage.build import ShardedGraph, build_shards
from repro.storage.dist_storage import DistGraphStorage


@dataclass
class QueryRunResult:
    """Outcome of one batched query run — THE stable result schema.

    Every execution path (``engine.run``, ``session.drain``, the thread
    runtime mirror) returns this exact shape; tools and benchmarks may
    rely on these typed fields rather than digging through the
    ``metrics`` snapshot.  Fields group as:

    * batch outcome — ``n_queries``, ``makespan``, ``throughput``,
      ``phases``, ``per_proc_clocks``, ``states``, ``latencies``;
    * transport accounting — ``remote_requests``, ``local_calls``;
    * fault tolerance — ``retries``, ``timeouts``, ``dropped_messages``,
      ``degraded_queries``, ``abandoned_mass``;
    * serving-mode counters (zero outside a session) — ``admitted``,
      ``rejected``, ``deadline_missed``;
    * diagnostics — ``metrics``, ``obs``, ``race_violations``.
    """

    n_queries: int
    makespan: float               # virtual seconds, max over compute procs
    throughput: float             # queries / virtual second
    phases: dict[str, float]      # aggregated Figure 6 / Table 3 phases
    per_proc_clocks: dict[str, float]
    remote_requests: int
    local_calls: int
    #: source global id -> finished SSPPR / DenseSSPPR state
    states: dict[int, object] = field(repr=False, default_factory=dict)
    #: per-query virtual latency keyed by source global ID (engine runs)
    latencies: dict[int, float] = field(repr=False, default_factory=dict)
    #: fault-tolerance counters — all zero on a healthy run
    retries: int = 0              # re-sent attempts (attempt > 1)
    timeouts: int = 0             # attempts that hit their deadline
    dropped_messages: int = 0     # requests lost on the injected network
    degraded_queries: int = 0     # queries that abandoned >= 1 remote fetch
    abandoned_mass: float = 0.0   # total residual written off by skip_remote
    #: serving-mode counters, first-class (zero for plain batch runs):
    #: queries executed in this drained batch / admission rejections since
    #: the previous drain / this batch's SLO deadline misses
    admitted: int = 0
    rejected: int = 0
    deadline_missed: int = 0
    #: flat MetricsRegistry snapshot (rpc.* counters, rpc.latency
    #: percentiles, engine.* gauges) — identical counter values on the
    #: virtual-time scheduler and the thread runtime
    metrics: dict = field(repr=False, default_factory=dict)
    #: the run's Obs bundle; ``obs.tracer`` holds the spans when
    #: ``RunRequest(trace=True)`` (export with repro.obs.write_chrome_trace)
    obs: object = field(repr=False, default=None)
    #: per-machine remote-row demand: machine -> {node id ->
    #: request count}, gathered by the fetch layer; feeds the
    #: telemetry-driven shard rebalancer (``repro.stream.rebalance``)
    heat: dict = field(repr=False, default_factory=dict)
    #: lockset violations found by the race sanitizer
    #: (``RunRequest(sanitize=True)``); always empty when sanitize is off,
    #: and empty on any clean run — the virtual-time runtime is
    #: single-threaded, so a non-empty list here means instrumentation
    #: recorded accesses from multiple OS threads without a common lock
    race_violations: list = field(repr=False, default_factory=list)
    #: telemetry Timeline (repro.obs.analysis) when the request asked for
    #: one with ``RunRequest(timeline=interval)``, else None
    timeline: object = field(repr=False, default=None)

    def latency_percentiles(self, q=(50, 90, 99)) -> dict[float, float]:
        """Virtual per-query latency percentiles in seconds.

        Keys are the requested percentiles as floats (``{50.0: ...}``),
        regardless of how ``q`` was spelled.
        """
        qs = [float(p) for p in q]
        if not self.latencies:
            return {p: 0.0 for p in qs}
        arr = np.asarray(list(self.latencies.values()), dtype=np.float64)
        if arr.size == 1:
            # a percentile of one sample is that sample; skip np.percentile,
            # which warns on some NumPy versions for degenerate inputs
            return {p: float(arr[0]) for p in qs}
        return {p: float(np.percentile(arr, p)) for p in qs}

    def phase_ratios(self) -> dict[str, float]:
        """Phases normalized by their sum (Figure 6's stacked ratios)."""
        total = sum(self.phases.values())
        if total <= 0:
            return {k: 0.0 for k in self.phases}
        return {k: v / total for k, v in self.phases.items()}


class GraphEngine:
    """Partition, deploy, and query a graph on a simulated cluster."""

    def __init__(self, graph: CSRGraph, config: EngineConfig | None = None,
                 *, sharded: ShardedGraph | None = None) -> None:
        self.config = config if config is not None else EngineConfig()
        if sharded is not None:
            if sharded.n_shards != self.config.n_shards:
                raise ValueError(
                    f"prebuilt shards ({sharded.n_shards}) != config "
                    f"machines ({self.config.n_shards})"
                )
            self.sharded = sharded
        else:
            result = self.config.partitioner.partition(
                graph, self.config.n_shards
            )
            self.sharded = build_shards(graph, result,
                                        seed=self.config.seed,
                                        halo_hops=self.config.halo_hops)

    @property
    def graph(self) -> CSRGraph:
        """Whole-graph view, read through :attr:`ShardedGraph.graph`."""
        return self.sharded.graph

    # -- serving -----------------------------------------------------------
    def open_session(self, config=None):
        """Open a long-lived serving session over this engine.

        ``config`` is a :class:`~repro.serving.SessionConfig` (tenancy,
        SLO, batching cadence, runtime).  The returned
        :class:`~repro.serving.Session` exposes
        ``submit(Query, tenant=...) -> QueryHandle`` and ``drain()``;
        see docs/serving.md.
        """
        from repro.serving.session import Session

        return Session(self, config)

    # -- SSPPR -------------------------------------------------------------
    def run(self, request: RunRequest) -> QueryRunResult:
        """Run one batched SSPPR request — the engine's query entry point.

        Dispatches on ``request.mode`` (PPR Engine / tensor baseline /
        inter-query batching), deploys a fresh cluster with the request's
        tracing, fault-plan, and retry-policy overrides, and reports the
        fault-tolerance counters alongside the usual throughput numbers.
        Thin wrapper over a throwaway serving session — the body lives in
        :meth:`repro.serving.Session.run`, the single execution path
        shared with ``session.drain()``.

        Under ``degradation=fail_fast`` (the default), the first remote
        fetch that exhausts its retries propagates as
        :class:`~repro.errors.RpcTimeoutError` /
        :class:`~repro.errors.WorkerCrashedError` out of this call; under
        ``skip_remote`` the batch completes and the accuracy loss is
        accounted in ``degraded_queries`` / ``abandoned_mass``.
        """
        from repro.serving.session import Session

        return Session(self).run(request)

    def run_queries_batched(self, n_queries: int | None = None, *,
                            sources: np.ndarray | None = None,
                            params: PPRParams | None = None,
                            seed: int | None = None) -> QueryRunResult:
        """Run SSPPR with inter-query batching (one MultiSSPPR per process).

        Each computing process advances its whole query chunk in lockstep,
        sharing every iteration's per-shard RPC across queries — trading a
        little extra state for far fewer, larger messages.  Results land in
        ``states`` keyed by source global ID.  Convenience wrapper over
        :meth:`run` with ``mode="batched"``.
        """
        return self.run(RunRequest(
            n_queries=n_queries if sources is None else None,
            sources=sources, params=params, seed=seed, mode="batched",
        ))

    def run_tensor_queries(self, n_queries: int | None = None, *,
                           sources: np.ndarray | None = None,
                           params: PPRParams | None = None,
                           keep_states: bool = False,
                           seed: int | None = None) -> QueryRunResult:
        """Run the same batch on the dense tensor baseline.

        Convenience wrapper over :meth:`run` with ``mode="tensor"``.
        """
        return self.run(RunRequest(
            n_queries=n_queries if sources is None else None,
            sources=sources, params=params, keep_states=keep_states,
            seed=seed, mode="tensor",
        ))

    # -- random walks ---------------------------------------------------------
    def run_random_walks(self, n_roots: int, walk_length: int, *,
                         seed: int | None = None) -> "WalkRunResult":
        """Distributed random walks (Figure 4 right).

        Thin wrapper over a throwaway serving session, like :meth:`run`:
        the body is :meth:`repro.serving.Session.run_walks`.
        """
        from repro.serving.session import Session

        seed = self.config.seed if seed is None else seed
        roots = sample_sources(self.sharded, n_roots, seed=seed)
        summary, makespan, _ = Session(self).run_walks(roots, walk_length)
        return WalkRunResult(
            roots=summary[:, 0],
            walks=summary,
            makespan=makespan,
            throughput=len(summary) / makespan if makespan > 0 else float("inf"),
        )

    # -- other graph algorithms (engine generality) ---------------------------
    def run_bfs(self, source_global: int) -> tuple[np.ndarray, float]:
        """Distributed BFS from ``source_global``.

        Returns ``(hop_distances, makespan)`` — distances are a dense |V|
        vector with -1 for unreached nodes.  Runs on the machine owning the
        source (owner-compute rule).
        """
        from repro.walk.bfs import distributed_bfs

        cfg = self.config
        source = int(self.sharded.nodes_of(source_global))
        machine = int(self.sharded.owner_of(source))
        cluster = SimCluster(self.sharded, cfg)
        proc = cluster.worker(machine, 0)
        g = DistGraphStorage(cluster.rrefs, machine, proc.name, compress=True)
        name = cluster.spawn_compute(
            machine, 0, distributed_bfs(g, proc, source))
        makespan = cluster.run()
        state = cluster.result_of(name)
        return state.dense_depths(self.sharded, self.graph.n_nodes), makespan

    def run_wcc(self) -> tuple[np.ndarray, float]:
        """Distributed weakly-connected components (all machines).

        Returns ``(labels, makespan)`` — labels are canonical per-component
        minimum global IDs.
        """
        from repro.walk.wcc import distributed_wcc

        cfg = self.config
        cluster = SimCluster(self.sharded, cfg)
        names = []
        for m in range(cfg.n_machines):
            proc = cluster.worker(m, 0)
            g = DistGraphStorage(cluster.rrefs, m, proc.name, compress=True)
            seeds = np.arange(self.sharded.base[m], self.sharded.base[m + 1])
            names.append(cluster.spawn_compute(
                m, 0, distributed_wcc(g, proc, seeds)))
        makespan = cluster.run()
        labels = np.full(self.graph.n_nodes, np.iinfo(np.int64).max,
                         dtype=np.int64)
        for name in names:
            ids, labs = cluster.result_of(name).results()
            np.minimum.at(labels, self.sharded.globals_of(ids), labs)
        # Canonicalize: label = min global ID within each class.  Every
        # core node is seeded, so all nodes are touched.
        out = np.empty(self.graph.n_nodes, dtype=np.int64)
        for lab in np.unique(labels):
            members = np.flatnonzero(labels == lab)
            out[members] = members.min()
        return out, makespan


@dataclass
class WalkRunResult:
    """Outcome of one distributed random-walk batch."""

    roots: np.ndarray
    walks: np.ndarray     # (n_roots, walk_length) global IDs
    makespan: float
    throughput: float
