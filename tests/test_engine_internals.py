"""Focused tests for engine internals: query assignment, source sampling,
breakdown mapping, latency reporting, and cluster bring-up."""

import numpy as np
import pytest

from repro import EngineConfig, GraphEngine, RunRequest
from repro.engine.breakdown import PHASES, aggregate_breakdowns, phase_seconds
from repro.engine.cluster import SimCluster
from repro.engine.query import assign_queries, sample_sources
from repro.errors import SimulationError
from repro.graph import CSRGraph, powerlaw_cluster
from repro.partition import HashPartitioner, PartitionResult
from repro.storage import build_shards
from repro.utils.timer import TimeBreakdown


@pytest.fixture(scope="module")
def sharded():
    g = powerlaw_cluster(300, 6, mixing=0.2, seed=0)
    return build_shards(g, HashPartitioner().partition(g, 3))


class TestSampleSources:
    def test_even_spread_across_shards(self, sharded):
        sources = sample_sources(sharded, 9, seed=1)
        owners = sharded.owner_of(sharded.nodes_of(sources))
        np.testing.assert_array_equal(np.bincount(owners, minlength=3),
                                      [3, 3, 3])

    def test_remainder_round_robin(self, sharded):
        sources = sample_sources(sharded, 7, seed=2)
        counts = np.bincount(sharded.owner_of(sharded.nodes_of(sources)),
                             minlength=3)
        assert counts.sum() == 7
        assert counts.max() - counts.min() <= 1

    def test_prefers_connected_nodes(self, sharded):
        sources = sample_sources(sharded, 12, seed=3)
        degrees = np.diff(sharded.graph.indptr)
        assert np.all(degrees[sources] > 0)

    def test_invalid_count(self, sharded):
        with pytest.raises(ValueError):
            sample_sources(sharded, 0)

    def test_reproducible(self, sharded):
        a = sample_sources(sharded, 6, seed=5)
        b = sample_sources(sharded, 6, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_isolated_only_shard_still_works(self):
        # shard 1 holds only isolated nodes
        g = CSRGraph.from_edges(4, [0], [1])
        res = PartitionResult(np.array([0, 0, 1, 1]), 2)
        sharded = build_shards(g, res)
        sources = sample_sources(sharded, 2, seed=0)
        assert len(sources) == 2


class TestAssignQueries:
    def test_owner_compute_respected(self, sharded):
        sources = sharded.nodes_of(sample_sources(sharded, 12, seed=6))
        assignment = assign_queries(sharded, sources, 2)
        for (machine, _proc), chunk in assignment.items():
            np.testing.assert_array_equal(
                sharded.owner_of(chunk), machine
            )

    def test_round_robin_within_machine(self, sharded):
        sources = sharded.nodes_of(sample_sources(sharded, 12, seed=7))
        assignment = assign_queries(sharded, sources, 2)
        for m in range(3):
            total = sum(len(assignment.get((m, p), ())) for p in range(2))
            mine = int((sharded.owner_of(sources) == m).sum())
            assert total == mine

    def test_all_queries_assigned_once(self, sharded):
        sources = sharded.nodes_of(sample_sources(sharded, 10, seed=8))
        assignment = assign_queries(sharded, sources, 3)
        got = np.sort(np.concatenate(list(assignment.values())))
        np.testing.assert_array_equal(got, np.sort(sources))

    def test_invalid_procs(self, sharded):
        with pytest.raises(ValueError):
            assign_queries(sharded, np.array([0]), 0)


class TestBreakdownMapping:
    def test_phase_seconds_maps_categories(self):
        bd = TimeBreakdown()
        bd.charge("local_call", 1.0)
        bd.charge("local_exec", 2.0)
        bd.charge("rpc_issue", 0.5)
        bd.charge("wait", 1.5)
        bd.charge("push", 3.0)
        bd.charge("pop", 0.25)
        bd.charge("mystery", 9.0)
        phases = phase_seconds(bd)
        assert phases["local_fetch"] == pytest.approx(3.0)
        assert phases["remote_fetch"] == pytest.approx(2.0)
        assert phases["push"] == pytest.approx(3.0)
        assert phases["pop"] == pytest.approx(0.25)
        assert phases["other"] == pytest.approx(9.0)

    def test_aggregate_sums_processes(self):
        a, b = TimeBreakdown(), TimeBreakdown()
        a.charge("push", 1.0)
        b.charge("push", 2.0)
        out = aggregate_breakdowns([a, b])
        assert out["push"] == pytest.approx(3.0)

    def test_phase_registry_covers_known_categories(self):
        mapped = {c for cats in PHASES.values() for c in cats}
        assert {"local_call", "local_exec", "rpc_issue", "wait",
                "push", "pop"} <= mapped


class TestLatencies:
    def test_latency_per_query(self):
        g = powerlaw_cluster(300, 6, mixing=0.2, seed=9)
        engine = GraphEngine(g, EngineConfig(n_machines=2))
        run = engine.run(RunRequest(n_queries=6, seed=10))
        assert len(run.latencies) == 6
        assert all(v > 0 for v in run.latencies.values())
        p = run.latency_percentiles()
        assert p[50] <= p[90] <= p[99]
        # makespan is at least the slowest single query
        assert run.makespan >= max(run.latencies.values()) - 1e-12

    def test_empty_latency_percentiles(self):
        from repro.engine.engine import QueryRunResult
        r = QueryRunResult(n_queries=0, makespan=0.0, throughput=0.0,
                           phases={}, per_proc_clocks={}, remote_requests=0,
                           local_calls=0)
        assert r.latency_percentiles() == {50: 0.0, 90: 0.0, 99: 0.0}


class TestSimCluster:
    def test_shard_count_mismatch(self, sharded):
        with pytest.raises(SimulationError, match="shards"):
            SimCluster(sharded, EngineConfig(n_machines=5))

    def test_rrefs_point_to_shards(self, sharded):
        cluster = SimCluster(sharded, EngineConfig(n_machines=3))
        for m, rref in enumerate(cluster.rrefs):
            assert rref.local_value() is sharded.shards[m]

    def test_makespan_empty_cluster(self, sharded):
        cluster = SimCluster(sharded, EngineConfig(n_machines=3))
        assert cluster.run() == 0.0

    def test_results_collects_all(self, sharded):
        from repro.simt.events import Sleep
        cluster = SimCluster(sharded, EngineConfig(n_machines=3))

        def body(value):
            yield Sleep(0.0)
            return value

        cluster.spawn_compute(0, 0, body("a"))
        cluster.spawn_compute(1, 0, body("b"))
        cluster.run()
        assert cluster.results() == {"compute:0.0": "a", "compute:1.0": "b"}
