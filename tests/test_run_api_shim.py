"""The stable ``QueryRunResult`` schema and latency-percentile edges.

``engine.run(RunRequest(...))`` is the one batch entry point (the
deprecated ``run_queries`` shim was removed once serving landed); these
tests pin the result-schema contract — the typed serving counters default
to zero on plain batch runs, convenience wrappers return the same shape —
plus the degenerate ``latency_percentiles`` inputs (0 and 1 samples) that
historically tripped ``np.percentile`` — and the knob surface: the exact
field names of ``EngineConfig``, ``RunRequest``, ``SessionConfig`` and
``StreamConfig``, so a new knob is a
visible test diff — and the boundary: caller ids are validated once, with
one typed error, on every path in; a knob combination that would silently
do nothing is rejected where it is written.
"""

import dataclasses

import numpy as np
import pytest

import repro.stream
from repro.engine import EngineConfig, GraphEngine, QueryRunResult, RunRequest
from repro.engine.query import sample_sources
from repro.errors import ShardError
from repro.graph import powerlaw_cluster
from repro.ppr import DegradationMode, PPRParams
from repro.serving import Query, SessionConfig
from repro.stream import StreamConfig


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(400, 6, mixing=0.2, seed=7)
    return GraphEngine(graph, EngineConfig(n_machines=2))


class TestResultSchema:
    def test_shim_is_gone(self, engine):
        assert not hasattr(engine, "run_queries")

    def test_serving_counters_default_zero_on_batch_runs(self, engine):
        run = engine.run(RunRequest(n_queries=3))
        assert isinstance(run, QueryRunResult)
        assert (run.admitted, run.rejected, run.deadline_missed) == (0, 0, 0)

    def test_forwards_all_kwargs(self, engine):
        sources = sample_sources(engine.sharded, 3, seed=5)
        params = PPRParams(epsilon=1e-4)
        run = engine.run(RunRequest(sources=sources, params=params,
                                    keep_states=True, seed=5))
        assert run.n_queries == 3
        assert sorted(run.states) == sorted(sources.tolist())

    def test_wrappers_share_the_run_path(self, engine):
        """Convenience wrappers are pure forwarders over ``run``: same
        deterministic outputs as the equivalent explicit request."""
        sources = sample_sources(engine.sharded, 4, seed=9)
        old = engine.run_queries_batched(sources=sources)
        new = engine.run(RunRequest(sources=sources, mode="batched"))
        assert isinstance(old, QueryRunResult)
        assert old.n_queries == new.n_queries
        assert old.remote_requests == new.remote_requests
        assert old.local_calls == new.local_calls
        assert old.states.keys() == new.states.keys()
        n = engine.graph.n_nodes
        for gid in old.states:
            np.testing.assert_array_equal(
                old.states[gid].dense_result(engine.sharded, n),
                new.states[gid].dense_result(engine.sharded, n),
            )

    def test_sources_win_over_n_queries(self, engine):
        sources = sample_sources(engine.sharded, 2, seed=0)
        run = engine.run(RunRequest(sources=sources))
        assert run.n_queries == 2


class TestSourceValidation:
    """Out-of-range caller ids never wrap, never escape as ``IndexError``
    and never depend on the mode: ``ShardError`` from the one boundary
    function, before any cluster is deployed."""

    @pytest.mark.parametrize("mode", ["engine", "batched", "tensor"])
    @pytest.mark.parametrize("bad", [-1, 400])
    def test_run_rejects_out_of_range_sources(self, engine, mode, bad):
        good = int(sample_sources(engine.sharded, 1, seed=0)[0])
        with pytest.raises(ShardError, match="out of range"):
            engine.run(RunRequest(sources=[good, bad], mode=mode))

    @pytest.mark.parametrize("bad", [-1, 400])
    def test_bfs_rejects_out_of_range_source(self, engine, bad):
        with pytest.raises(ShardError, match="out of range"):
            engine.run_bfs(bad)

    def test_walk_query_rejects_out_of_range_root(self, engine):
        session = engine.open_session()
        session.submit(Query(source=400, kind="walk"))
        with pytest.raises(ShardError, match="out of range"):
            session.drain()


class TestKnobCombinations:
    @pytest.mark.parametrize("mode", ["batched", "tensor"])
    def test_skip_remote_needs_engine_mode(self, mode):
        with pytest.raises(ValueError, match='mode="engine"'):
            RunRequest(n_queries=1, mode=mode,
                       degradation=DegradationMode.SKIP_REMOTE)
        with pytest.raises(ValueError, match='mode="engine"'):
            SessionConfig(mode=mode,
                          degradation=DegradationMode.SKIP_REMOTE)

    def test_session_default_mode_is_batched(self):
        with pytest.raises(ValueError, match='mode="engine"'):
            SessionConfig(degradation=DegradationMode.SKIP_REMOTE)

    def test_skip_remote_with_engine_mode_is_accepted(self):
        RunRequest(n_queries=1, degradation=DegradationMode.SKIP_REMOTE)
        SessionConfig(mode="engine",
                      degradation=DegradationMode.SKIP_REMOTE)


class TestKnobSurface:
    """Every independently settable field, by name.  Adding one doubles
    the configurations tests and benches must cover: it has to show up
    here, next to the non-test caller that needs it."""

    def test_engine_config_fields(self):
        assert tuple(f.name for f in dataclasses.fields(EngineConfig)) == (
            "n_machines", "procs_per_machine", "partitioner", "network",
            "opt", "halo_hops", "retry_policy", "fetch_split",
            "fetch_cache_bytes", "fetch_coalesce", "seed",
        )

    def test_run_request_fields(self):
        assert tuple(f.name for f in dataclasses.fields(RunRequest)) == (
            "n_queries", "sources", "params", "mode", "opt", "keep_states",
            "seed", "trace", "max_spans", "fault_plan", "retry_policy",
            "degradation", "sanitize", "fetch_split", "fetch_cache_bytes",
            "fetch_coalesce", "timeline",
        )

    def test_session_config_fields(self):
        assert tuple(f.name for f in dataclasses.fields(SessionConfig)) == (
            "mode", "params", "runtime", "tenants", "queue_cap", "batch_cap",
            "slo", "batch_window", "cost_model", "fault_plan",
            "retry_policy", "degradation", "seed", "timeline",
        )

    def test_stream_config_fields(self):
        """``cost_model`` / ``serving`` / ``max_pushes`` had no caller and
        are gone; the cost coefficients are module constants."""
        assert tuple(f.name for f in dataclasses.fields(StreamConfig)) == (
            "runtime", "params", "refresh_every", "fault_plan",
            "retry_policy", "rebalance", "timeline",
        )
        assert not hasattr(repro.stream, "StreamCostModel")


class TestLatencyPercentiles:
    def _result(self, latencies):
        return QueryRunResult(
            n_queries=len(latencies), makespan=1.0, throughput=1.0,
            phases={}, per_proc_clocks={}, remote_requests=0, local_calls=0,
            latencies=latencies,
        )

    def test_zero_samples(self):
        out = self._result({}).latency_percentiles()
        assert out == {50.0: 0.0, 90.0: 0.0, 99.0: 0.0}

    def test_one_sample_is_that_sample(self):
        out = self._result({7: 0.125}).latency_percentiles(q=(1, 50, 99.9))
        assert out == {1.0: 0.125, 50.0: 0.125, 99.9: 0.125}

    def test_keys_are_floats_regardless_of_spelling(self):
        out = self._result({1: 0.1, 2: 0.3}).latency_percentiles(q=(50, 95))
        assert set(out) == {50.0, 95.0}
        assert all(isinstance(k, float) for k in out)

    def test_many_samples_are_ordered(self):
        lat = {i: 0.01 * (i + 1) for i in range(20)}
        out = self._result(lat).latency_percentiles(q=(10, 50, 90))
        assert out[10.0] <= out[50.0] <= out[90.0]
        assert min(lat.values()) <= out[10.0]
        assert out[90.0] <= max(lat.values())

    def test_engine_run_populates_latencies(self, engine):
        run = engine.run(RunRequest(n_queries=3))
        assert len(run.latencies) == 3
        pct = run.latency_percentiles()
        assert pct[50.0] > 0
