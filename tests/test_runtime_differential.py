"""Differential testing: virtual-time scheduler vs real threads.

The same driver coroutines, the same ``ShardedGraph``, the same
``FaultPlan`` — executed once on the deterministic virtual-time
scheduler (via ``engine.run``) and once on real threads, through a
harness on ``deploy(..., "threads")`` (same worker names, same query
assignment, same storage options).  Because fault decisions
are keyed on (seed, caller, per-caller call index, attempt) — never on
time — and the unified metrics registry uses one counter namespace on
both runtimes, the two executions must agree on:

* the result vectors, exactly (bit-for-bit — same arithmetic, same
  order, timing-independent);
* every ``rpc.*`` counter, including the injected-fault accounting;
* the per-call RPC account (``rpc_summary`` over the one ``SpanTracer``)
  and the shape of the RPC spans it is read from.
"""

import numpy as np
import pytest

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.engine.cluster import deploy
from repro.engine.query import assign_queries, multi_query_driver, \
    sample_sources
from repro.graph import powerlaw_cluster
from repro.obs.analysis import TraceGraph, machine_of_process, rpc_summary
from repro.obs.analysis.causal import fault_of_span
from repro.ppr import DegradationMode, OptLevel, PPRParams
from repro.rpc import RetryPolicy
from repro.serving.session import Session, SessionConfig
from repro.simt import FaultPlan, Wait
from repro.storage import DistGraphStorage, FetchCache, NeighborFetchService
from tests.test_fetch_layer import assert_cache_quiescent

PARAMS = PPRParams(epsilon=1e-5)

# Every counter the RPC layer maintains.  ``rpc.latency`` is a histogram
# (virtual seconds vs real seconds) and deliberately not part of the
# cross-runtime contract; ``counters()`` never includes histograms.
RPC_COUNTERS = [
    "rpc.calls",
    "rpc.calls_local",
    "rpc.calls_remote",
    "rpc.request_bytes",
    "rpc.response_bytes",
    "rpc.retries",
    "rpc.timeouts",
    "rpc.dropped_messages",
    "rpc.faults.drop",
    "rpc.faults.timeout",
    "rpc.faults.retry",
]


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(500, 6, mixing=0.2, seed=11)
    return GraphEngine(graph, EngineConfig(n_machines=2))


def run_threaded(engine, sources, *, fetch=True, fetch_caches=None,
                 **overrides):
    """``engine.run``'s deployment on real threads, driver by driver.

    ``fetch`` mirrors the engine's fetch-layer wrapping (one shared
    FetchCache per machine) with the config's default knobs; a caller that
    wants to inspect those caches afterwards passes its own (empty)
    ``fetch_caches`` dict.  ``overrides`` are the cluster's per-run knobs
    (fault plan, retry policy, sanitize).
    """
    cfg = engine.config
    sharded = engine.sharded
    cluster = deploy(sharded, cfg, "threads", **overrides)
    states: dict[int, object] = {}
    if fetch_caches is None:
        fetch_caches = {}
    for (machine, p), chunk in assign_queries(
            sharded, sharded.nodes_of(sources),
            cfg.procs_per_machine).items():
        proc = cluster.worker(machine, p)
        g = DistGraphStorage(cluster.rrefs, machine, proc.name, compress=True)
        if fetch:
            if machine not in fetch_caches:
                fetch_caches[machine] = FetchCache(
                    cfg.fetch_cache_bytes, sanitizer=cluster.sanitizer)
            g = NeighborFetchService(
                g, fetch_caches[machine], split=cfg.fetch_split,
                coalesce=cfg.fetch_coalesce, metrics=cluster.obs.metrics,
                proc=proc)
        cluster.spawn_compute(machine, p, multi_query_driver(
            g, proc, chunk, sharded, PARAMS,
            opt=OptLevel.OVERLAP, collect=states,
        ))
    cluster.run()
    return cluster, states


def sim_request(sources, **overrides):
    # the module's engine deploys at OptLevel.OVERLAP (the config default)
    return RunRequest(sources=sources, params=PARAMS, keep_states=True,
                      **overrides)


def assert_same_vectors(engine, states_a, states_b):
    """Same sources, bit-for-bit equal dense result vectors."""
    n = engine.graph.n_nodes
    a = {g: s.dense_result(engine.sharded, n) for g, s in states_a.items()}
    b = {g: s.dense_result(engine.sharded, n) for g, s in states_b.items()}
    assert a.keys() == b.keys()
    for gid in a:
        np.testing.assert_array_equal(a[gid], b[gid])


def run_on_both(engine, request):
    """One request on the scheduler and on real threads."""
    sim = engine.run(request)
    thr = Session(engine, SessionConfig(runtime="threads")).run(request)
    return sim, thr


class TestHealthyDifferential:
    def test_results_and_counters_identical(self, engine):
        sources = sample_sources(engine.sharded, 8, seed=0)
        sim = engine.run(sim_request(sources))
        runtime, thread_states = run_threaded(engine, sources)
        assert_same_vectors(engine, sim.states, thread_states)

        sim_counters = sim.obs.metrics.counters()
        thr_counters = runtime.obs.metrics.counters()
        for key in ("rpc.calls", "rpc.calls_local", "rpc.calls_remote",
                    "rpc.request_bytes", "rpc.response_bytes",
                    "fetch.requests", "fetch.cache_hits", "fetch.halo_hits",
                    "fetch.misses", "fetch.coalesced", "fetch.bytes_saved"):
            assert sim_counters.get(key, 0) == thr_counters.get(key, 0), key
        # the fault counters never appeared on either side
        for key in ("rpc.retries", "rpc.dropped_messages", "rpc.giveups"):
            assert sim_counters.get(key, 0) == 0
            assert thr_counters.get(key, 0) == 0

    def test_legacy_counters_agree_with_registry(self, engine):
        """The typed counters are views of the registry, on both runtimes."""
        sources = sample_sources(engine.sharded, 4, seed=1)
        sim = engine.run(sim_request(sources))
        runtime, _ = run_threaded(engine, sources)
        c = runtime.obs.metrics.counters()
        assert c["rpc.calls_remote"] == runtime.remote_requests > 0
        assert c["rpc.calls_local"] == runtime.local_calls > 0
        assert (sim.remote_requests, sim.local_calls) == \
            (runtime.remote_requests, runtime.local_calls)


class TestFaultyDifferential:
    def test_same_faultplan_same_results_same_counters(self, engine):
        """The acceptance assertion: one FaultPlan, two runtimes, equal
        result vectors and equal retry/timeout/drop counters."""
        sources = sample_sources(engine.sharded, 8, seed=0)
        plan = FaultPlan(seed=13, drop_prob=0.15)
        policy = RetryPolicy(max_attempts=6, timeout=5.0)

        sim = engine.run(sim_request(
            sources, fault_plan=plan, retry_policy=policy))
        runtime, thread_states = run_threaded(
            engine, sources, fault_plan=plan, retry_policy=policy)

        # faults actually fired, and were survived, on both runtimes
        assert sim.retries > 0
        assert runtime.retries > 0
        assert_same_vectors(engine, sim.states, thread_states)

        sim_counters = sim.obs.metrics.counters()
        thr_counters = runtime.obs.metrics.counters()
        for key in RPC_COUNTERS:
            assert sim_counters.get(key, 0) == thr_counters.get(key, 0), key
        # and the legacy int fields tell the same story
        assert sim.retries == runtime.retries
        assert sim.timeouts == runtime.timeouts
        assert sim.dropped_messages == runtime.dropped_messages

    def _on_both(self, engine, request):
        sim, thr = run_on_both(engine, request)
        assert_same_vectors(engine, sim.states, thr.states)
        return sim, thr

    def test_skip_remote_degrades_identically(self, engine):
        """A fetch that exhausts its retries reaches the driver's
        ``except TRANSPORT_ERRORS`` on both runtimes: same written-off
        mass, same degraded answers."""
        sources = sample_sources(engine.sharded, 8, seed=0)
        sim, thr = self._on_both(engine, sim_request(
            sources, fault_plan=FaultPlan(seed=3, drop_prob=0.6),
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.01),
            degradation=DegradationMode.SKIP_REMOTE))
        assert sim.degraded_queries > 0 and sim.abandoned_mass > 0
        assert (sim.degraded_queries, sim.abandoned_mass) == \
            (thr.degraded_queries, thr.abandoned_mass)

    def test_explicit_one_shot_policy_beats_the_fault_default(self, engine):
        """The request's policy is used as given even under a fault plan
        (which alone would get the default policy) — one attempt means no
        retransmissions, on both runtimes."""
        sources = sample_sources(engine.sharded, 8, seed=0)
        sim, thr = self._on_both(engine, sim_request(
            sources, fault_plan=FaultPlan(seed=13, drop_prob=0.3),
            retry_policy=RetryPolicy(max_attempts=1, timeout=0.01),
            degradation=DegradationMode.SKIP_REMOTE))
        assert sim.dropped_messages > 0
        assert sim.retries == thr.retries == 0
        assert (sim.timeouts, sim.dropped_messages, sim.degraded_queries) \
            == (thr.timeouts, thr.dropped_messages, thr.degraded_queries)

    def test_faulty_equals_healthy_results(self, engine):
        """Dropped-and-retried messages never change the answer."""
        sources = sample_sources(engine.sharded, 6, seed=2)
        healthy = engine.run(sim_request(sources))
        faulty = engine.run(sim_request(
            sources, fault_plan=FaultPlan(seed=5, drop_prob=0.2),
            retry_policy=RetryPolicy(max_attempts=8, timeout=5.0)))
        assert faulty.retries > 0
        assert_same_vectors(engine, healthy.states, faulty.states)

    def test_thread_replay_is_deterministic(self, engine):
        sources = sample_sources(engine.sharded, 6, seed=3)
        plan = FaultPlan(seed=21, drop_prob=0.15)
        policy = RetryPolicy(max_attempts=6, timeout=5.0)
        a, _ = run_threaded(engine, sources, fault_plan=plan,
                            retry_policy=policy)
        b, _ = run_threaded(engine, sources, fault_plan=plan,
                            retry_policy=policy)
        assert a.obs.metrics.counters() == b.obs.metrics.counters()
        assert a.dropped_messages > 0
        assert a.dropped_messages == b.dropped_messages


class TestFetchLayerDifferential:
    """The fetch layer never changes answers — only how they travel."""

    def test_fetch_on_off_bitwise_identical_sim(self, engine):
        sources = sample_sources(engine.sharded, 8, seed=4)
        on = engine.run(sim_request(sources))
        bypassed = GraphEngine(engine.graph, EngineConfig(
            n_machines=2, fetch_split=False, fetch_cache_bytes=0),
            sharded=engine.sharded)
        off = bypassed.run(sim_request(sources))
        assert_same_vectors(engine, on.states, off.states)
        # ... and travels less: the hot-vertex cache absorbs repeats
        on_c = on.obs.metrics.counters()
        off_c = off.obs.metrics.counters()
        assert on.remote_requests < off.remote_requests
        assert on_c["rpc.response_bytes"] < off_c["rpc.response_bytes"]
        assert on_c["fetch.cache_hits"] > 0
        assert "fetch.requests" not in off_c

    def test_fetch_on_off_bitwise_identical_threads(self, engine):
        sources = sample_sources(engine.sharded, 8, seed=4)
        _, on_states = run_threaded(engine, sources, fetch=True)
        _, off_states = run_threaded(engine, sources, fetch=False)
        assert_same_vectors(engine, on_states, off_states)

    def test_overflowing_cache_evicts_identically_and_stays_quiescent(
            self, engine):
        """A cache too small for the run evicts the same rows on both
        runtimes, never changes an answer, and ends every run with exact
        byte accounts and one heap entry per resident row."""
        tight = GraphEngine(engine.graph, EngineConfig(
            n_machines=2, fetch_cache_bytes=4096), sharded=engine.sharded)
        sources = sample_sources(engine.sharded, 8, seed=4)
        roomy = engine.run(sim_request(sources))
        sim = tight.run(sim_request(sources))
        caches: dict[int, FetchCache] = {}
        runtime, thr_states = run_threaded(tight, sources,
                                           fetch_caches=caches)
        assert_same_vectors(engine, roomy.states, sim.states)
        assert_same_vectors(engine, sim.states, thr_states)
        sim_c = sim.obs.metrics.counters()
        thr_c = runtime.obs.metrics.counters()
        for key in ("fetch.evictions", "fetch.cache_hits", "fetch.misses",
                    "fetch.coalesced", "fetch.bytes_saved"):
            assert sim_c.get(key, 0) == thr_c.get(key, 0), key
        assert "fetch.evictions" not in roomy.obs.metrics.counters()
        assert sim_c["fetch.evictions"] > 0
        assert sim_c["fetch.cache_hits"] > 0  # stale heap entries exist
        assert sum(c.evictions for c in caches.values()) \
            == thr_c["fetch.evictions"]
        for cache in caches.values():
            assert cache.rows
            assert_cache_quiescent(cache)

    def test_sanitized_threads_clean_through_coalescing(self):
        """Two procs per machine hammer one shared FetchCache: the lockset
        detector must see accesses but no discipline violations."""
        graph = powerlaw_cluster(400, 6, mixing=0.3, seed=7)
        engine = GraphEngine(graph, EngineConfig(
            n_machines=2, procs_per_machine=2, halo_hops=2,
        ))
        sources = sample_sources(engine.sharded, 12, seed=5)
        caches: dict[int, FetchCache] = {}
        runtime, states = run_threaded(engine, sources, sanitize=True,
                                       fetch_caches=caches)
        assert len(states) == len(sources)
        assert runtime.sanitizer.accesses > 0
        assert list(runtime.sanitizer.report()) == []
        for cache in caches.values():
            assert not cache.pending
            assert_cache_quiescent(cache)


class TestTraceDifferential:
    """One tracer, one set of RPC hooks (``WorkerRegistry``): both
    runtimes record the same client/server span pairs, so everything read
    off them agrees — the per-call account, the client span's parent, the
    ``error`` attr of a failed call, the span id on the future."""

    CHAOS = dict(fault_plan=FaultPlan(seed=13, drop_prob=0.15),
                 retry_policy=RetryPolicy(max_attempts=6, timeout=5.0))
    GIVEUPS = dict(fault_plan=FaultPlan(seed=3, drop_prob=0.6),
                   retry_policy=RetryPolicy(max_attempts=2, timeout=0.01),
                   degradation=DegradationMode.SKIP_REMOTE)

    @staticmethod
    def _summary(run):
        tracer = run.obs.tracer
        return rpc_summary(tracer, {s.process: machine_of_process(s.process)
                                    for s in tracer.spans})

    @pytest.mark.parametrize("overrides", [{}, CHAOS], ids=["clean", "drops"])
    def test_rpc_summary_identical(self, engine, overrides):
        sources = sample_sources(engine.sharded, 8, seed=0)
        sim, thr = run_on_both(engine, sim_request(
            sources, trace=True, **overrides))
        summary = self._summary(sim)
        assert summary == self._summary(thr)
        assert summary["calls_remote"] == sim.remote_requests > 0
        assert summary["request_bytes_remote"] == \
            sim.metrics["rpc.request_bytes"]
        assert sum(summary["by_method"].values()) == sim.remote_requests
        matrix = np.array(summary["machine_matrix"])
        assert np.trace(matrix) == 0 and matrix.sum() == sim.remote_requests
        assert set(summary["payload_percentiles"]) == {50, 90, 99}

    def test_client_spans_hang_under_their_query(self, engine):
        sources = sample_sources(engine.sharded, 8, seed=0)
        for run in run_on_both(engine, sim_request(sources, trace=True)):
            graph = TraceGraph.from_tracer(run.obs.tracer)
            clients = run.obs.tracer.by_kind("client")
            assert len(clients) == run.remote_requests
            for span in clients:
                while span.name != "query":
                    assert span.parent_id is not None, span
                    span = graph.by_id[span.parent_id]

    def test_exhausted_call_leaves_error_client_span(self, engine):
        sources = sample_sources(engine.sharded, 8, seed=0)
        failed = []
        for run in run_on_both(engine, sim_request(
                sources, trace=True, **self.GIVEUPS)):
            tracer = run.obs.tracer
            errors = [s for s in tracer.by_kind("client")
                      if fault_of_span(s) == "RpcTimeoutError"]
            assert len(errors) == run.metrics["rpc.giveups"] > 0
            # every call has its client span; only served ones a server span
            assert len(tracer.by_kind("client")) == run.remote_requests
            assert len(tracer.by_kind("server")) == \
                run.remote_requests - len(errors)
            failed.append(len(errors))
        assert failed[0] == failed[1]

    @pytest.mark.parametrize("runtime", ["sim", "threads"])
    def test_coalesce_marker_links_origin(self, engine, runtime):
        """A second request joining an in-flight fetch draws its
        ``fetch.coalesced`` marker from ``fut.span_id`` on either
        runtime's future."""
        cluster = deploy(engine.sharded, engine.config, runtime, trace=True)
        proc = cluster.worker(0, 0)
        svc = NeighborFetchService(
            DistGraphStorage(cluster.rrefs, 0, proc.name, compress=True),
            FetchCache(engine.config.fetch_cache_bytes),
            metrics=cluster.obs.metrics, proc=proc)

        first_id = engine.sharded.base[1]

        def body():
            first = svc.get_neighbor_infos(1, first_id + np.array([0, 1, 2]))
            second = svc.get_neighbor_infos(1, first_id + np.array([1, 2, 3]))
            yield Wait(first)
            yield Wait(second)

        cluster.spawn_compute(0, 0, body())
        cluster.run()
        tracer = cluster.obs.tracer
        assert cluster.obs.metrics.count("fetch.coalesced") == 2
        origin, _late = sorted(tracer.by_kind("client"),
                               key=lambda s: s.span_id)
        (marker,) = tracer.by_kind("coalesce")
        assert marker.name == "fetch.coalesced"
        assert marker.link == origin.span_id
        assert marker.attrs["rows"] == 2


class TestDoctorDifferential:
    """``DiagnosisReport.differential_view()``: bitwise across runtimes.

    The doctor's count-derived projection — fault counters, cache
    counts, heat-based straggler attribution, query/path counts, the
    final timeline sample — must replay identically on the virtual-time
    scheduler and on :class:`ThreadRuntime` for the same seed and fault
    plan.  Durations stay out of the view by design.
    """

    def _both(self, engine, request):
        from repro.obs.analysis import diagnose

        sim = engine.run(request)
        thr = Session(engine, SessionConfig(runtime="threads")).run(request)
        return diagnose(sim), diagnose(thr)

    def test_healthy_reports_agree(self, engine):
        sources = sample_sources(engine.sharded, 8, seed=0)
        sim, thr = self._both(engine, sim_request(
            sources, trace=True, timeline=0.05))
        assert sim.has_trace and thr.has_trace
        assert sim.n_paths == len(sources)
        view = sim.differential_view()
        assert view == thr.differential_view()
        # the timeline's last sample joined the contract
        assert view["timeline_last"] is not None
        assert view["timeline_last"]["rpc.calls"] > 0

    def test_chaos_reports_agree(self, engine):
        sources = sample_sources(engine.sharded, 8, seed=0)
        sim, thr = self._both(engine, sim_request(
            sources, trace=True, timeline=0.05,
            fault_plan=FaultPlan(seed=13, drop_prob=0.15),
            retry_policy=RetryPolicy(max_attempts=6, timeout=5.0)))
        view = sim.differential_view()
        assert view == thr.differential_view()
        # faults actually fired and landed in the shared view
        assert view["fault_counters"]["rpc.dropped_messages"] > 0
        # both sides kept the books clean on the duration side too
        assert sim.conservation_error <= 1e-9
        assert thr.conservation_error <= 1e-9
        assert sim.paths_within_makespan and thr.paths_within_makespan


class TestStreamingDifferential:
    """Same event stream (+ FaultPlan), both runtimes: same everything.

    A full streaming session — publish, interleaved queries and update
    batches, incremental refresh, an epoch rebalance — replayed on the
    virtual-time scheduler and on real threads must agree on the
    published ``(p, r)`` pairs bit-for-bit, on every ``stream.*`` /
    ``rebalance.*`` counter, on the planned rebalance decisions, and on
    the final serving clock.
    """

    PUBLISH = [3, 17, 42]
    STREAM_COUNTERS = [
        "stream.published", "stream.batches", "stream.queries",
        "stream.arcs_inserted", "stream.arcs_deleted",
        "stream.arcs_reweighted", "stream.batches_committed",
        "stream.staged_rows", "stream.refreshes",
        "stream.refresh_corrections", "stream.refresh_pushes",
        "rebalance.epochs", "rebalance.migrations_planned",
        "rebalance.replications_planned", "rebalance.rows_installed",
        "rebalance.bytes_copied",
    ]

    def _run(self, runtime, *, fault_plan=None, retry_policy=None):
        from repro.stream import (RebalancePolicy, StreamConfig,
                                  StreamEvent, StreamingSession,
                                  TemporalEdgeStream)

        graph = powerlaw_cluster(200, 5, mixing=0.25, seed=19)
        engine = GraphEngine(graph, EngineConfig(n_machines=3, seed=0,
                                                 halo_hops=2))
        session = StreamingSession(engine, StreamConfig(
            runtime=runtime, params=PARAMS, refresh_every=1,
            fault_plan=fault_plan, retry_policy=retry_policy,
            rebalance=RebalancePolicy(top_k=6, min_heat=2),
        ))
        session.publish(self.PUBLISH)
        stream = TemporalEdgeStream(graph, seed=23, batch_size=12)
        events = []
        for i, batch in enumerate(stream.batches(4)):
            events.append(StreamEvent("query",
                                      source=self.PUBLISH[i % 3]))
            events.append(StreamEvent("update", batch=batch))
        events.append(StreamEvent("rebalance"))
        report = session.run_stream(events)
        return session, report

    def _assert_sessions_agree(self, sim, thr):
        sim_sess, sim_report = sim
        thr_sess, thr_report = thr
        for gid in self.PUBLISH:
            p_sim, r_sim = sim_sess.published(gid)
            p_thr, r_thr = thr_sess.published(gid)
            np.testing.assert_array_equal(p_sim, p_thr)
            np.testing.assert_array_equal(r_sim, r_thr)
        sim_c = sim_sess.metrics.counters()
        thr_c = thr_sess.metrics.counters()
        for key in self.STREAM_COUNTERS:
            assert sim_c.get(key, 0) == thr_c.get(key, 0), key
        sim_plans = [[(d.vertex, d.action, d.src_shard, d.dst_shards)
                      for d in rep.decisions]
                     for rep in sim_report.rebalance_reports]
        thr_plans = [[(d.vertex, d.action, d.src_shard, d.dst_shards)
                      for d in rep.decisions]
                     for rep in thr_report.rebalance_reports]
        assert sim_plans == thr_plans
        assert sim_report.clock == thr_report.clock
        assert sim_report.n_applied == thr_report.n_applied

    def test_healthy_stream_bitwise_identical(self):
        sim = self._run("sim")
        thr = self._run("threads")
        sim_report = sim[1]
        assert sim_report.n_batches == 4
        assert sim_report.n_applied == 4
        assert sim_report.n_queries == 4
        # the epoch actually rebalanced something
        assert any(sim_report.rebalance_reports)
        self._assert_sessions_agree(sim, thr)

    def test_faulty_stream_bitwise_identical(self):
        """Dropped-and-retried streaming traffic changes nothing but the
        retry counters — and those agree across runtimes too."""
        plan = FaultPlan(seed=31, drop_prob=0.1)
        policy = RetryPolicy(max_attempts=8, timeout=5.0)
        sim = self._run("sim", fault_plan=plan, retry_policy=policy)
        thr = self._run("threads", fault_plan=plan, retry_policy=policy)
        self._assert_sessions_agree(sim, thr)
        # faults fired on both sides and the accounting matches
        sim_c = sim[0].metrics.counters()
        thr_c = thr[0].metrics.counters()
        assert sim_c.get("rpc.dropped_messages", 0) > 0
        for key in RPC_COUNTERS:
            assert sim_c.get(key, 0) == thr_c.get(key, 0), key

    def test_faulty_stream_equals_healthy_stream(self):
        healthy = self._run("sim")
        faulty = self._run("sim", fault_plan=FaultPlan(seed=37,
                                                       drop_prob=0.15),
                           retry_policy=RetryPolicy(max_attempts=8,
                                                    timeout=5.0))
        for gid in self.PUBLISH:
            p_h, r_h = healthy[0].published(gid)
            p_f, r_f = faulty[0].published(gid)
            np.testing.assert_array_equal(p_h, p_f)
            np.testing.assert_array_equal(r_h, r_f)
