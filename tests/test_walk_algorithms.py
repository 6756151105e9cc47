"""Tests for distributed BFS, node2vec walks, uniform walks, and FORA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig
from repro.engine.cluster import SimCluster
from repro.graph import CSRGraph, erdos_renyi, path_graph, powerlaw_cluster
from repro.partition import HashPartitioner, MetisLitePartitioner
from repro.ppr import fora_ssppr, power_iteration_ssppr, topk_precision
from repro.storage import DistGraphStorage, build_shards
from repro.walk import (
    distributed_bfs,
    distributed_node2vec_walk,
    single_machine_bfs,
    single_machine_random_walk,
)


def run_driver_on_cluster(graph, n_machines, make_body, *, seed=0,
                          partitioner=None):
    """Spawn one driver on machine 0 of a fresh cluster; return its result."""
    part = partitioner or MetisLitePartitioner(seed=0)
    sharded = build_shards(graph, part.partition(graph, n_machines))
    cluster = SimCluster(sharded, EngineConfig(n_machines=n_machines))
    name = "compute:0.0"
    g = DistGraphStorage(cluster.rrefs, 0, name)

    def driver():
        proc = cluster.scheduler.processes[name]
        result = yield from make_body(g, proc, sharded)
        return result

    cluster.spawn_compute(0, 0, driver())
    cluster.run()
    return sharded, cluster.scheduler.result_of(name)


class TestSingleMachineBfs:
    def test_path_depths(self):
        g = path_graph(5)
        depths = single_machine_bfs(g, 0)
        np.testing.assert_array_equal(depths, [0, 1, 2, 3, 4])

    def test_unreached_marked(self):
        g = CSRGraph.from_edges(4, [0], [1])  # 2, 3 disconnected
        depths = single_machine_bfs(g, 0)
        assert depths[2] == -1 and depths[3] == -1

    def test_bad_source(self):
        with pytest.raises(ValueError):
            single_machine_bfs(path_graph(3), 9)


class TestDistributedBfs:
    def test_matches_reference(self):
        graph = powerlaw_cluster(400, 6, mixing=0.2, seed=1)
        sharded, state = run_driver_on_cluster(
            graph, 3,
            lambda g, proc, sh: distributed_bfs(g, proc, int(sh.base[0])),
        )
        source = int(sharded.shards[0].core_global[0])
        expected = single_machine_bfs(graph, source)
        got = state.dense_depths(sharded, graph.n_nodes)
        np.testing.assert_array_equal(got, expected)

    def test_max_depth_truncates(self):
        graph = powerlaw_cluster(300, 6, seed=2)
        sharded, state = run_driver_on_cluster(
            graph, 2,
            lambda g, proc, sh: distributed_bfs(
                g, proc, int(sh.base[0]), max_depth=2,
            ),
        )
        _keys, depths = state.results()
        assert depths.max() <= 2

    def test_invalid_state_args(self):
        from repro.walk.bfs import BfsState
        with pytest.raises(ValueError, match="non-negative"):
            BfsState(-1, 4)
        with pytest.raises(ValueError, match="outside the table's domain"):
            BfsState(4, 4)

    @given(n=st.integers(20, 100), k=st.integers(1, 3),
           seed=st.integers(0, 10))
    @settings(max_examples=10, deadline=None)
    def test_depths_property(self, n, k, seed):
        graph = erdos_renyi(n, 4, seed=seed)
        sharded, state = run_driver_on_cluster(
            graph, k,
            lambda g, proc, sh: distributed_bfs(g, proc, int(sh.base[0])),
            partitioner=HashPartitioner(),
        )
        source = int(sharded.shards[0].core_global[0])
        expected = single_machine_bfs(graph, source)
        got = state.dense_depths(sharded, n)
        np.testing.assert_array_equal(got, expected)


class TestNode2vec:
    def test_walks_follow_edges(self):
        graph = powerlaw_cluster(300, 6, mixing=0.2, seed=3)
        _, summary = run_driver_on_cluster(
            graph, 2,
            lambda g, proc, sh: distributed_node2vec_walk(
                g, proc, sh.nodes_of(sh.shards[0].core_global[:5]), sh, 6,
                p=0.5, q=2.0, seed=4,
            ),
        )
        assert summary.shape == (5, 7)
        for row in summary:
            for s in range(6):
                u, v = int(row[s]), int(row[s + 1])
                assert u == v or graph.has_arc(u, v)

    def test_low_p_returns_more(self):
        """Small p (return-happy) revisits the previous node more often
        than large p, on a cycle where the choice is stark."""
        from repro.graph import cycle_graph
        graph = cycle_graph(30)

        def count_backtracks(p):
            _, summary = run_driver_on_cluster(
                graph, 1,
                lambda g, proc, sh: distributed_node2vec_walk(
                    g, proc, sh.nodes_of(sh.shards[0].core_global[:8]),
                    sh, 20,
                    p=p, q=1.0, seed=5,
                ),
                partitioner=HashPartitioner(),
            )
            back = 0
            for row in summary:
                for s in range(2, summary.shape[1]):
                    if row[s] == row[s - 2]:
                        back += 1
            return back

        assert count_backtracks(0.05) > count_backtracks(20.0)

    def test_invalid_params(self):
        graph = path_graph(5)
        sharded = build_shards(graph, HashPartitioner().partition(graph, 1))
        g = None
        with pytest.raises(ValueError):
            # generator raises eagerly on validation via next()
            gen = distributed_node2vec_walk(None, None, np.array([0]),
                                            sharded, 0)
            next(gen)
        with pytest.raises(ValueError):
            gen = distributed_node2vec_walk(None, None, np.array([0]),
                                            sharded, 3, p=0.0)
            next(gen)


class TestReferenceWalker:
    def test_structure(self):
        g = powerlaw_cluster(200, 5, seed=6)
        walks = single_machine_random_walk(g, np.array([0, 1, 2]), 5, seed=7)
        assert walks.shape == (3, 6)
        for row in walks:
            for s in range(5):
                u, v = int(row[s]), int(row[s + 1])
                assert u == v or g.has_arc(u, v)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            single_machine_random_walk(path_graph(3), np.array([0]), 0)


class TestFora:
    def test_estimate_sums_to_one(self):
        g = powerlaw_cluster(200, 6, seed=8)
        est = fora_ssppr(g, 0, seed=9)
        assert est.sum() == pytest.approx(1.0, abs=1e-6)

    def test_close_to_ground_truth(self):
        g = powerlaw_cluster(300, 6, mixing=0.2, seed=10)
        exact = power_iteration_ssppr(g, 5, alpha=0.462)
        est = fora_ssppr(g, 5, push_epsilon=1e-3, walks_per_unit=40_000,
                         seed=11)
        assert np.abs(est - exact).sum() < 0.12
        assert topk_precision(est, exact, 20) >= 0.8

    def test_more_walks_help(self):
        g = powerlaw_cluster(250, 6, seed=12)
        exact = power_iteration_ssppr(g, 0, alpha=0.462)
        coarse = fora_ssppr(g, 0, push_epsilon=5e-3, walks_per_unit=500,
                            seed=13)
        fine = fora_ssppr(g, 0, push_epsilon=5e-3, walks_per_unit=50_000,
                          seed=13)
        assert np.abs(fine - exact).sum() < np.abs(coarse - exact).sum()

    def test_pure_push_source(self):
        """If push fully converges (tiny eps), no walks are needed."""
        g = path_graph(10)
        exact = power_iteration_ssppr(g, 4, alpha=0.462)
        est = fora_ssppr(g, 4, push_epsilon=1e-9, seed=14)
        assert np.abs(est - exact).sum() < 1e-6

    def test_invalid_args(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            fora_ssppr(g, 0, push_epsilon=0.0)
        with pytest.raises(ValueError):
            fora_ssppr(g, 0, walks_per_unit=0.0)
