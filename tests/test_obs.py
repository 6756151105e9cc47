"""The unified observability layer: registry, spans, exporters, wiring.

Covers the ``repro.obs`` instruments in isolation (process-safety, the
percentile edge cases), the span tracer's nesting and RPC client/server
linking, the Chrome ``trace_event`` exporter, and the end-to-end wiring:
a traced engine run whose ``metrics`` snapshot agrees with the legacy
counters, the ``crashed`` breakdown phase, and the ``repro.cli profile``
acceptance path.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro import EngineConfig, GraphEngine, PPRParams, RunRequest
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Obs,
    SpanTracer,
    chrome_trace,
    text_table,
)
from repro.graph import powerlaw_cluster
from repro.rpc import RetryPolicy
from repro.simt import CrashWindow, FaultPlan


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(600, 6, mixing=0.2, seed=2)
    return GraphEngine(graph, EngineConfig(n_machines=2))


class _CountingLock:
    """A lock that counts how often it is entered."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.entered = 0

    def __enter__(self):
        self._lock.acquire()
        self.entered += 1
        return self

    def __exit__(self, *exc) -> None:
        self._lock.release()


class TestMetricsRegistry:
    def test_counter_gauge_roundtrip(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.set("g", 2.5)
        assert reg.counter("a").value == 5
        assert reg.gauge("g").value == 2.5
        assert reg.counters() == {"a": 5}

    def test_negative_inc_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="negative"):
            reg.inc("a", -1)

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.inc("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.gauge("x")
        with pytest.raises(TypeError, match="Counter"):
            reg.histogram("x")

    def test_histogram_empty_and_single_sample(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert h.percentile(50) == 0.0
        assert h.percentile(99) == 0.0
        h.observe(3e-4)
        # one sample: every percentile is that sample (clamped to max)
        assert h.percentile(0) == pytest.approx(3e-4)
        assert h.percentile(50) == pytest.approx(3e-4)
        assert h.percentile(100) == pytest.approx(3e-4)

    def test_histogram_percentiles_bracket_samples(self):
        h = Histogram("lat", threading.Lock())
        values = [1e-5 * (i + 1) for i in range(100)]
        for v in values:
            h.observe(v)
        assert h.count == 100
        assert h.sum == pytest.approx(sum(values))
        p50, p99 = h.percentile(50), h.percentile(99)
        assert min(values) <= p50 <= p99 <= max(values)
        # ranks: p50 covers >= half the samples, p99 nearly all
        assert sum(v <= p50 for v in values) >= 50
        assert sum(v <= p99 for v in values) >= 90

    def test_histogram_fractional_percentile_rank_is_not_truncated(self):
        """The value at rank ceil(q*n/100): p33.34 of 1, 2, 3 ms is the
        2nd observation (q*n = 100.02 must not truncate to rank 1)."""
        h = Histogram("lat", threading.Lock(), buckets=(1e-3, 2e-3, 3e-3))
        for v in (1e-3, 2e-3, 3e-3):
            h.observe(v)
        assert h.percentile(33.34) == 2e-3
        assert [h.percentile(q) for q in (33, 34, 66, 67)] == \
            [1e-3, 2e-3, 2e-3, 3e-3]

    def test_histogram_integer_percentiles_hit_the_ceiling_rank(self):
        """p50/p95/p99 (every snapshot's) read the observation at rank
        ceil(q*n/100), for every sample count."""
        for n in range(1, 120):
            bounds = tuple(float(i + 1) for i in range(n))
            h = Histogram("lat", threading.Lock(), buckets=bounds)
            for v in bounds:
                h.observe(v)
            for q in (50, 95, 99):
                assert h.percentile(q) == float(max(1, -(-q * n // 100)))

    def test_histogram_overflow_reports_max(self):
        h = Histogram("lat", threading.Lock(), buckets=(1.0,))
        h.observe(5.0)
        h.observe(7.0)
        assert h.overflow == 2
        assert h.percentile(99) == 7.0

    def test_snapshot_expands_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["h.count"] == 1
        assert snap["h.p50"] == pytest.approx(0.5)
        assert snap["h.max"] == 0.5

    def test_merge_folds_all_kinds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        b.set("g", 1.5)
        a.observe("h", 0.1)
        b.observe("h", 0.2)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 1.5
        assert a.histogram("h").count == 2

    def test_thread_hammer(self):
        reg = MetricsRegistry()
        n_threads, n_iters = 8, 2000

        def work():
            for _ in range(n_iters):
                reg.inc("hits")
                reg.observe("lat", 1e-4)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == n_threads * n_iters
        assert reg.histogram("lat").count == n_threads * n_iters

    def test_existing_instrument_is_found_without_the_create_lock(self):
        reg = MetricsRegistry()
        reg._create_lock = _CountingLock()
        reg.inc("a")
        reg.observe("h", 1e-4)
        assert reg._create_lock.entered == 2  # one per creation
        reg.inc("a")
        reg.observe("h", 2e-4)
        assert reg.counter("a") is reg.get("a")
        with pytest.raises(TypeError, match="Counter"):
            reg.histogram("a")
        assert reg._create_lock.entered == 2
        assert reg.counters() == {"a": 2} and reg.histogram("h").count == 2

    def test_racing_creators_share_one_instrument(self):
        """Threads that create the same names at once each find the one
        instrument per name: a lost creation would lose its increments."""
        reg = MetricsRegistry()
        n_threads, names = 8, [f"c{i}" for i in range(200)]
        start = threading.Barrier(n_threads)
        seen = [set() for _ in range(n_threads)]

        def work(i):
            start.wait()
            for name in names:
                inst = reg.counter(name)
                inst.inc()
                seen[i].add(id(inst))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reg.counters() == {name: n_threads for name in names}
        assert all(ids == seen[0] for ids in seen)

    def test_text_table_renders_all_keys(self):
        reg = MetricsRegistry()
        reg.inc("rpc.calls", 7)
        reg.set("makespan", 0.25)
        out = text_table(reg.snapshot(), title="run")
        assert out.startswith("run:")
        assert "rpc.calls" in out and "7" in out
        assert text_table({}) == "metrics: (empty)"


class TestSpanTracer:
    def test_nesting_assigns_parents(self):
        tracer = SpanTracer()
        clock = {"t": 0.0}

        def now():
            clock["t"] += 1.0
            return clock["t"]

        with tracer.span("p0", "outer", now):
            with tracer.span("p0", "inner", now):
                pass
        outer = tracer.by_name("outer")[0]
        inner = tracer.by_name("inner")[0]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.start < inner.start < inner.end < outer.end

    def test_stacks_are_per_process(self):
        tracer = SpanTracer()
        with tracer.span("a", "sa", lambda: 0.0):
            with tracer.span("b", "sb", lambda: 0.0):
                pass
        assert tracer.by_name("sb")[0].parent_id is None

    def test_record_with_reserved_id_and_link(self):
        tracer = SpanTracer()
        client_id = tracer.next_id()
        tracer.record("rpc:m", "caller", 0.0, 1.0, span_id=client_id,
                      kind="client")
        tracer.record("serve:m", "owner", 0.4, 0.6, kind="server",
                      link=client_id)
        (server,) = tracer.by_kind("server")
        assert server.link == client_id
        assert tracer.by_kind("client")[0].span_id == client_id


class TestChromeExport:
    def _tracer(self):
        tracer = SpanTracer()
        cid = tracer.next_id()
        tracer.record("rpc:get", "compute:0.0", 0.0, 1.0, span_id=cid,
                      kind="client")
        tracer.record("serve:get", "server:1", 0.3, 0.7, kind="server",
                      link=cid)
        tracer.record("push", "compute:0.0", 1.0, 1.5)
        return tracer, cid

    def test_complete_events_and_metadata(self):
        tracer, _ = self._tracer()
        doc = chrome_trace(tracer, {"compute:0.0": 0, "server:1": 1})
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3
        by_name = {e["name"]: e for e in xs}
        assert by_name["rpc:get"]["pid"] == 0
        assert by_name["serve:get"]["pid"] == 1
        assert by_name["rpc:get"]["ts"] == 0.0
        assert by_name["rpc:get"]["dur"] == pytest.approx(1e6)
        thread_names = {e["args"]["name"]
                        for e in doc["traceEvents"]
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert thread_names == {"compute:0.0", "server:1"}

    def test_flow_events_link_client_to_server(self):
        tracer, cid = self._tracer()
        doc = chrome_trace(tracer)
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"] == cid
        # the arrow leaves at the client's start, lands at the server's start
        assert starts[0]["ts"] == 0.0
        assert finishes[0]["ts"] == pytest.approx(0.3e6)


class TestEngineWiring:
    def test_metrics_agree_with_legacy_counters(self, engine):
        run = engine.run(RunRequest(n_queries=6, seed=3))
        m = run.metrics
        assert m["rpc.calls_remote"] == run.remote_requests
        assert m["rpc.calls_local"] == run.local_calls
        assert m["rpc.calls"] == run.remote_requests + run.local_calls
        assert m["engine.queries"] == run.n_queries
        assert m["rpc.request_bytes"] > 0
        assert m["rpc.response_bytes"] > 0
        assert m["rpc.latency.count"] == run.remote_requests
        assert 0 < m["rpc.latency.p50"] <= m["rpc.latency.p99"]

    def test_fault_counters_mirrored_into_registry(self, engine):
        run = engine.run(RunRequest(
            n_queries=6, fault_plan=FaultPlan(seed=9, drop_prob=0.2),
            retry_policy=RetryPolicy(max_attempts=8),
        ))
        m = run.metrics
        assert run.retries > 0
        assert m["rpc.retries"] == run.retries
        assert m["rpc.timeouts"] == run.timeouts
        assert m["rpc.dropped_messages"] == run.dropped_messages
        assert m["rpc.faults.drop"] == run.dropped_messages

    def test_untraced_run_records_no_spans(self, engine):
        run = engine.run(RunRequest(n_queries=2))
        assert run.obs.tracer is None
        assert "rpc.calls" in run.metrics  # metrics are always on

    def test_traced_run_links_every_server_span(self, engine):
        run = engine.run(RunRequest(n_queries=6, seed=3, trace=True))
        tracer = run.obs.tracer
        clients = tracer.by_kind("client")
        servers = tracer.by_kind("server")
        assert len(clients) == run.remote_requests
        assert len(servers) == len(clients)
        client_ids = {s.span_id for s in clients}
        assert all(s.link in client_ids for s in servers)
        # per-query spans, one per source, parented over pop/push/fetch
        assert len(tracer.by_name("query")) == run.n_queries
        query_ids = {s.span_id for s in tracer.by_name("query")}
        assert any(s.parent_id in query_ids for s in tracer.by_name("push"))
        assert all(s.end >= s.start for s in tracer.spans)

    def test_rpc_summary_agrees_with_snapshot(self, engine):
        from repro.obs.analysis import machine_of_process, rpc_summary

        run = engine.run(RunRequest(n_queries=3, trace=True))
        machine_of = {s.process: machine_of_process(s.process)
                      for s in run.obs.tracer.spans}
        summary = rpc_summary(run.obs.tracer, machine_of)
        assert summary["calls_remote"] == run.metrics["rpc.calls_remote"] \
            == run.remote_requests
        assert summary["request_bytes_remote"] == \
            run.metrics["rpc.request_bytes"]


class TestCrashedPhase:
    def test_crash_window_time_lands_in_crashed_phase(self, engine):
        from repro.ppr import DegradationMode

        plan = FaultPlan(seed=1, crashes=(
            CrashWindow(server="server:1", crash_at=0.0),
        ))
        run = engine.run(RunRequest(
            n_queries=6, params=PPRParams(epsilon=1e-5), fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.01),
            degradation=DegradationMode.SKIP_REMOTE,
        ))
        assert run.degraded_queries > 0
        assert run.phases["crashed"] > 0
        # outage time is reattributed, not double counted: wait time blocked
        # on the dead server moved out of remote_fetch into crashed

    def test_phases_conserve_total_time(self, engine):
        plan = FaultPlan(seed=1, crashes=(
            CrashWindow(server="server:1", crash_at=0.0),
        ))
        from repro.ppr import DegradationMode
        from repro.engine.cluster import SimCluster
        from repro.engine.query import assign_queries, multi_query_driver, \
            sample_sources
        from repro.ppr.distributed import OptLevel
        from repro.storage import DistGraphStorage

        cfg = engine.config
        cluster = SimCluster(engine.sharded, cfg, fault_plan=plan,
                             retry_policy=RetryPolicy(max_attempts=2,
                                                      timeout=0.01))
        sources = engine.sharded.nodes_of(
            sample_sources(engine.sharded, 6, seed=0))
        for (m, p), chunk in assign_queries(engine.sharded, sources,
                                            cfg.procs_per_machine).items():
            proc = cluster.worker(m, p)
            g = DistGraphStorage(cluster.rrefs, m, proc.name, compress=True)
            cluster.spawn_compute(m, p, multi_query_driver(
                g, proc, chunk, engine.sharded,
                PPRParams(epsilon=1e-5), opt=OptLevel.OVERLAP,
                degradation=DegradationMode.SKIP_REMOTE,
            ))
        cluster.run()
        from repro.engine.breakdown import aggregate_breakdowns

        procs = cluster.compute_processes()
        phases = aggregate_breakdowns([p.breakdown for p in procs])
        assert phases["crashed"] > 0
        total_breakdown = sum(sum(p.breakdown.seconds.values())
                              for p in procs)
        assert sum(phases.values()) == pytest.approx(total_breakdown)

    def test_healthy_run_has_zero_crashed_phase(self, engine):
        run = engine.run(RunRequest(n_queries=2))
        assert run.phases["crashed"] == 0.0


class TestSpanCap:
    def test_cap_drops_and_counts(self):
        tracer = SpanTracer(max_spans=3)
        for i in range(5):
            tracer.record(f"s{i}", "p", float(i), float(i) + 0.5)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        # earliest spans are kept — the start of a run is the useful part
        assert [s.name for s in tracer.spans] == ["s0", "s1", "s2"]

    def test_dropped_spans_surface_as_metric(self):
        obs = Obs.create(trace=True, max_spans=2)
        for i in range(4):
            obs.tracer.record(f"s{i}", "p", 0.0, 1.0)
        assert obs.tracer.dropped == 2
        assert obs.metrics.snapshot()["obs.spans_dropped"] == 2

    def test_uncapped_when_none(self):
        tracer = SpanTracer(max_spans=None)
        for i in range(10):
            tracer.record("s", "p", 0.0, 1.0)
        assert len(tracer) == 10 and tracer.dropped == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(max_spans=0)

    def test_capped_traced_run_still_reports(self, engine):
        run = engine.run(RunRequest(n_queries=4, seed=1, trace=True,
                                    max_spans=8))
        assert len(run.obs.tracer) == 8
        assert run.obs.tracer.dropped > 0
        assert run.metrics["obs.spans_dropped"] == run.obs.tracer.dropped


class TestChromeTraceSchema:
    """The trace_event contract a real traced run must satisfy."""

    @pytest.fixture(scope="class")
    def doc(self, engine):
        run = engine.run(RunRequest(n_queries=5, seed=4, trace=True))
        return chrome_trace(run.obs.tracer)

    def test_required_keys_per_event(self, doc):
        assert set(doc) >= {"traceEvents", "displayTimeUnit"}
        for e in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(e), e
            if e["ph"] != "M":  # metadata events carry no timestamp
                assert "ts" in e and e["ts"] >= 0
            if e["ph"] == "X":
                assert "dur" in e and e["dur"] >= 0

    def test_metadata_precedes_events(self, doc):
        phases = [e["ph"] for e in doc["traceEvents"]]
        last_meta = max(i for i, p in enumerate(phases) if p == "M")
        first_event = min(i for i, p in enumerate(phases) if p != "M")
        assert last_meta < first_event

    def test_ts_monotone_per_track(self, doc):
        tracks = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "X":
                tracks.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        assert tracks
        for ts in tracks.values():
            assert ts == sorted(ts)

    def test_flow_ids_pair_client_to_server(self, doc):
        events = doc["traceEvents"]
        start_ids = sorted(e["id"] for e in events if e["ph"] == "s")
        finish_ids = sorted(e["id"] for e in events if e["ph"] == "f")
        assert start_ids and start_ids == finish_ids
        client_ids = {e["args"]["span_id"] for e in events
                      if e["ph"] == "X" and e.get("cat") == "client"}
        assert set(start_ids) <= client_ids


class TestCliProfile:
    def test_profile_writes_linked_chrome_trace(self, tmp_path):
        """Acceptance: a 2-machine profile emits RPC-linked Chrome JSON."""
        from repro.cli import main

        out = tmp_path / "trace.json"
        rc = main(["profile", "products", "--scale", "0.02",
                   "--machines", "2", "--queries", "4",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        clients = [e for e in events
                   if e["ph"] == "X" and e.get("cat") == "client"]
        servers = [e for e in events
                   if e["ph"] == "X" and e.get("cat") == "server"]
        assert clients and servers
        client_ids = {e["args"]["span_id"] for e in clients}
        assert all(e["args"]["link"] in client_ids for e in servers)
        # flow arrows present and machine pids distinct
        assert any(e["ph"] == "s" for e in events)
        assert any(e["ph"] == "f" for e in events)
        assert {e["pid"] for e in events if e["ph"] == "X"} == {0, 1}

    def test_profile_format_stats_emits_json(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["profile", "products", "--scale", "0.02",
                   "--machines", "2", "--queries", "2",
                   "--format", "stats",
                   "--out", str(tmp_path / "unused.json")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_queries"] == 2
        assert "rpc.calls" in doc["metrics"]
        assert "remote_fetch" in doc["phases"]
        assert not (tmp_path / "unused.json").exists()  # no trace written

    def test_profile_format_table_skips_trace(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["profile", "products", "--scale", "0.02",
                   "--machines", "2", "--queries", "2",
                   "--format", "table",
                   "--out", str(tmp_path / "unused.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "phases:" in out
        assert not (tmp_path / "unused.json").exists()


class TestObsBundle:
    def test_create_toggles_tracer(self):
        assert Obs.create(trace=False).tracer is None
        assert Obs.create(trace=True).tracer is not None

    def test_engine_queries_sum_across_runs_is_per_run(self, engine):
        a = engine.run(RunRequest(n_queries=2))
        b = engine.run(RunRequest(n_queries=3))
        # a fresh registry per run: counts never leak across deployments
        assert a.metrics["engine.queries"] == 2
        assert b.metrics["engine.queries"] == 3
