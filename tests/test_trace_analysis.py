"""Trace analytics: critical-path invariants and doctor reports.

The hypothesis suite generates random span forests straight into a
:class:`SpanTracer` — nested children, overlapping siblings, linked RPC
client/server pairs, zero-width intervals — and asserts the sweep's
conservation contract: the extracted segments partition the root span
*exactly*, every virtual nanosecond attributed once.  Engine-backed
tests then pin the same invariants on real traces from both healthy and
chaos runs, plus the :func:`diagnose` report surface behind
``repro.cli doctor``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.graph import powerlaw_cluster
from repro.obs.analysis import (
    DIAGNOSIS_SCHEMA,
    PATH_PHASES,
    DiagnosisReport,
    TraceGraph,
    diagnose,
    diff_reports,
    machine_of_process,
    render_diagnosis,
    render_doctor_diff,
)
from repro.obs.spans import SpanTracer
from repro.rpc import RetryPolicy
from repro.simt import FaultPlan


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(500, 6, mixing=0.2, seed=11)
    return GraphEngine(graph, EngineConfig(n_machines=2))


# -- random trace generation -------------------------------------------------
CHILD_NAMES = ("push", "pop", "local_exec", "stage", "crashed")


def _grow(draw, tracer, parent_id, process, lo, hi, depth):
    """Record random children of ``parent_id`` inside ``[lo, hi]``."""
    if depth >= 3 or hi - lo < 1e-3:
        return
    n = draw(st.integers(min_value=0, max_value=3))
    if n == 0:
        return
    if draw(st.booleans()):
        # disjoint siblings: consecutive pairs of sorted cut points
        pts = sorted(draw(st.lists(
            st.floats(min_value=lo, max_value=hi),
            min_size=2 * n, max_size=2 * n)))
        windows = [(pts[2 * i], pts[2 * i + 1]) for i in range(n)]
    else:
        # free-form: siblings may overlap or hide behind each other —
        # the sweep must clip, never double-count
        windows = []
        for _ in range(n):
            a = draw(st.floats(min_value=lo, max_value=hi))
            b = draw(st.floats(min_value=a, max_value=hi))
            windows.append((a, b))
    for a, b in windows:
        if b > a and draw(st.booleans()):
            cid = tracer.next_id()
            tracer.record("rpc.fetch_rows", process, a, b, span_id=cid,
                          parent_id=parent_id, kind="client")
            s_hi = draw(st.floats(min_value=a, max_value=b))
            s_lo = draw(st.floats(min_value=a, max_value=s_hi))
            tracer.record("fetch_rows", "server:1", s_lo, s_hi,
                          kind="server", link=cid)
        else:
            name = draw(st.sampled_from(CHILD_NAMES))
            sid = tracer.next_id()
            tracer.record(name, process, a, b, span_id=sid,
                          parent_id=parent_id)
            _grow(draw, tracer, sid, process, a, b, depth + 1)


@st.composite
def traces(draw):
    tracer = SpanTracer(max_spans=None)
    end = draw(st.floats(min_value=0.25, max_value=8.0))
    root_id = tracer.next_id()
    _grow(draw, tracer, root_id, "compute:0.1", 0.0, end, 0)
    tracer.record("query", "compute:0.1", 0.0, end, span_id=root_id)
    return tracer


class TestPathInvariants:
    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_segments_partition_root_exactly(self, tracer):
        graph = TraceGraph.from_tracer(tracer)
        assert len(graph.roots) == 1
        path = graph.critical_path(graph.roots[0])
        path.validate()  # exact-equality chaining
        assert all(seg.duration >= 0.0 for seg in path.segments)
        assert path.conservation_error() <= 1e-9
        # buckets and phases are alternative partitions of the same time
        assert abs(sum(path.totals().values()) - path.duration) <= 1e-9
        phases = path.phase_totals()
        assert set(phases) >= set(PATH_PHASES)
        assert abs(sum(phases.values()) - path.duration) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(traces())
    def test_attribution_is_consistent(self, tracer):
        path = TraceGraph.from_tracer(tracer).critical_paths()[0]
        for seg in path.segments:
            assert seg.machine == machine_of_process(seg.process)
            assert seg.phase in PATH_PHASES
            if seg.kind == "serve":
                assert seg.process == "server:1"
                assert seg.phase == "serve"
            elif seg.kind == "network":
                assert seg.phase == "remote_fetch"
            if seg.name == "crashed" and seg.kind != "self":
                assert seg.fault == "crash"


class TestClientSweep:
    """Deterministic pins on the RPC client-window split."""

    def _path(self, tracer):
        return TraceGraph.from_tracer(tracer).critical_paths()[0]

    def test_tail_attributed_to_server(self):
        tracer = SpanTracer(max_spans=None)
        rid = tracer.next_id()
        cid = tracer.next_id()
        tracer.record("rpc.fetch_rows", "compute:0.1", 1.0, 5.0,
                      span_id=cid, parent_id=rid, kind="client")
        tracer.record("fetch_rows", "server:1", 2.0, 3.5,
                      kind="server", link=cid)
        tracer.record("query", "compute:0.1", 0.0, 6.0, span_id=rid)
        path = self._path(tracer)
        shape = [(s.kind, s.start, s.end, s.machine) for s in path.segments]
        # server executed 1.5s, attributed at the window's *tail*
        assert shape == [("self", 0.0, 1.0, 0), ("network", 1.0, 3.5, 0),
                         ("serve", 3.5, 5.0, 1), ("self", 5.0, 6.0, 0)]
        assert path.phase_totals()["serve"] == 1.5

    def test_server_longer_than_window_clamps(self):
        tracer = SpanTracer(max_spans=None)
        rid = tracer.next_id()
        cid = tracer.next_id()
        tracer.record("rpc.fetch_rows", "compute:0.1", 1.0, 3.0,
                      span_id=cid, parent_id=rid, kind="client")
        # a server span longer than the clipped client window (e.g. the
        # window lost time to an earlier sibling) claims all of it
        tracer.record("fetch_rows", "server:1", 0.0, 10.0,
                      kind="server", link=cid)
        tracer.record("query", "compute:0.1", 1.0, 3.0, span_id=rid)
        path = self._path(tracer)
        kinds = [s.kind for s in path.segments]
        assert kinds == ["serve"]
        assert path.phase_totals()["serve"] == 2.0
        path.validate()

    def test_unlinked_client_is_all_network(self):
        tracer = SpanTracer(max_spans=None)
        rid = tracer.next_id()
        cid = tracer.next_id()
        tracer.record("rpc.fetch_rows", "compute:0.1", 1.0, 3.0,
                      span_id=cid, parent_id=rid, kind="client")
        tracer.record("query", "compute:0.1", 0.0, 4.0, span_id=rid)
        path = self._path(tracer)
        net = [s for s in path.segments if s.kind == "network"]
        assert len(net) == 1
        assert (net[0].start, net[0].end) == (1.0, 3.0)
        assert not [s for s in path.segments if s.kind == "serve"]

    def test_client_error_attr_becomes_fault_bucket(self):
        tracer = SpanTracer(max_spans=None)
        rid = tracer.next_id()
        cid = tracer.next_id()
        tracer.record("rpc.fetch_rows", "compute:0.1", 1.0, 3.0,
                      span_id=cid, parent_id=rid, kind="client",
                      attrs={"error": "timeout"})
        tracer.record("query", "compute:0.1", 0.0, 4.0, span_id=rid)
        path = self._path(tracer)
        faults = {s.fault for s in path.segments if s.kind == "network"}
        assert faults == {"timeout"}
        assert any(b[3] == "timeout" for b in path.totals())


class TestEnginePaths:
    def test_single_query_path_equals_query_span(self, engine):
        run = engine.run(RunRequest(n_queries=1, seed=3, trace=True))
        graph = TraceGraph.from_tracer(run.obs.tracer)
        paths = graph.critical_paths()
        assert len(paths) == 1
        (query_span,) = run.obs.tracer.by_name("query")
        assert paths[0].root is query_span
        assert paths[0].duration == query_span.duration
        assert paths[0].conservation_error() <= 1e-9
        assert paths[0].duration <= run.makespan + 1e-9

    def test_multi_query_paths_within_makespan(self, engine):
        run = engine.run(RunRequest(n_queries=6, seed=4, trace=True))
        paths = TraceGraph.from_tracer(run.obs.tracer).critical_paths()
        assert len(paths) == 6
        for path in paths:
            path.validate()
            assert path.conservation_error() <= 1e-9
            assert path.duration <= run.makespan + 1e-9

    def test_chaos_paths_still_conserve(self, engine):
        run = engine.run(RunRequest(
            n_queries=6, seed=4, trace=True,
            fault_plan=FaultPlan(seed=13, drop_prob=0.15),
            retry_policy=RetryPolicy(max_attempts=6, timeout=5.0)))
        assert run.retries > 0
        report = diagnose(run)
        assert report.has_trace
        assert report.conservation_error <= 1e-9
        assert report.paths_within_makespan


class TestDiagnose:
    def test_report_fields_and_json_roundtrip(self, engine):
        run = engine.run(RunRequest(n_queries=4, seed=5, trace=True))
        report = diagnose(run)
        assert report.schema == DIAGNOSIS_SCHEMA
        assert report.has_trace
        assert report.n_queries == 4
        assert report.n_paths == 4
        assert not report.trace_incomplete
        assert report.paths_within_makespan
        assert report.conservation_error <= 1e-9
        assert abs(sum(report.phase_totals.values())
                   - report.path_total_s) <= 1e-9
        assert report.path_buckets  # non-empty, descending seconds
        secs = [row["seconds"] for row in report.path_buckets]
        assert secs == sorted(secs, reverse=True)
        assert {row["machine"] for row in report.stragglers} == {0, 1}
        again = DiagnosisReport.from_json(report.to_json())
        assert again.to_dict() == report.to_dict()
        text = render_diagnosis(report)
        assert "critical paths: 4" in text

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="unsupported"):
            DiagnosisReport.from_dict({"schema": "repro.diagnosis/v999"})
        with pytest.raises(ValueError, match="unsupported"):
            DiagnosisReport.from_dict({"schema": "repro.diagnosis/v1"})

    def test_trace_incomplete_flag(self, engine):
        run = engine.run(RunRequest(n_queries=4, seed=5, trace=True,
                                    max_spans=8))
        report = diagnose(run)
        assert report.spans_dropped > 0
        assert report.trace_incomplete
        assert "WARNING: trace incomplete" in render_diagnosis(report)

    def test_self_diff_is_empty(self, engine):
        run = engine.run(RunRequest(n_queries=3, seed=6, trace=True))
        report = diagnose(run)
        diff = diff_reports(report, report)
        assert diff["n_moved"] == 0
        assert diff["moved"] == []
        assert diff["phase_deltas"] == {}
        assert diff["makespan_delta"] == 0.0
        assert "no critical-path buckets moved" in render_doctor_diff(diff)

    def test_untraced_run_still_diagnoses_counters(self, engine):
        run = engine.run(RunRequest(n_queries=3, seed=6))
        report = diagnose(run)
        assert not report.has_trace
        assert report.n_paths == 0
        assert report.fault_counters["rpc.retries"] == 0
        assert sum(row["heat"] for row in report.stragglers) == sum(
            sum(h.values()) for h in run.heat.values())
        assert "no span trace attached" in render_diagnosis(report)


class TestMachineOfProcess:
    @pytest.mark.parametrize("process,machine", [
        ("compute:3.2", 3), ("server:1", 1), ("compute:0.1", 0),
        ("driver", -1), ("compute:x.1", -1),
    ])
    def test_parse(self, process, machine):
        assert machine_of_process(process) == machine
