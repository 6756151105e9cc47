"""Tests for distributed weakly-connected components (label propagation)."""

import numpy as np
import pytest

from repro import EngineConfig
from repro.engine.cluster import SimCluster
from repro.graph import CSRGraph, erdos_renyi, powerlaw_cluster
from repro.partition import HashPartitioner, MetisLitePartitioner
from repro.storage import DistGraphStorage, build_shards
from repro.walk.wcc import WccState, distributed_wcc, single_machine_wcc
from hypothesis import given, settings
from hypothesis import strategies as st


def run_wcc_all_machines(graph, n_machines, partitioner=None):
    """Every machine seeds its own core nodes; union the label tables."""
    part = partitioner or MetisLitePartitioner(seed=0)
    sharded = build_shards(graph, part.partition(graph, n_machines))
    cluster = SimCluster(sharded, EngineConfig(n_machines=n_machines))
    names = []
    for m in range(n_machines):
        name = f"compute:{m}.0"
        g = DistGraphStorage(cluster.rrefs, m, name)
        seeds = np.arange(sharded.base[m], sharded.base[m + 1])

        def driver(g=g, seeds=seeds, name=name):
            proc = cluster.scheduler.processes[name]
            state = yield from distributed_wcc(g, proc, seeds)
            return state
        cluster.spawn_compute(m, 0, driver())
        names.append(name)
    cluster.run()
    # union: take min label per node across machines
    labels = np.full(graph.n_nodes, np.iinfo(np.int64).max, dtype=np.int64)
    for name in names:
        state = cluster.scheduler.result_of(name)
        ids, labs = state.results()
        np.minimum.at(labels, sharded.globals_of(ids), labs)
    # canonicalize label ids -> the min *global id* in each class
    out = np.empty(graph.n_nodes, dtype=np.int64)
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        out[members] = members.min()
    return out


class TestWccState:
    def test_invalid_shards(self):
        with pytest.raises(ValueError, match="non-negative"):
            WccState(np.array([-1]), 4)

    def test_single_component_graph(self):
        g = powerlaw_cluster(150, 6, seed=0)
        got = run_wcc_all_machines(g, 2)
        ref = single_machine_wcc(g)
        np.testing.assert_array_equal(got, ref)

    def test_fragments(self):
        g = CSRGraph.from_edges(7, [0, 1, 3, 5], [1, 2, 4, 6])
        got = run_wcc_all_machines(g, 2, partitioner=HashPartitioner())
        ref = single_machine_wcc(g)
        np.testing.assert_array_equal(got, ref)

    @given(n=st.integers(15, 60), k=st.integers(1, 3), seed=st.integers(0, 10))
    @settings(max_examples=8, deadline=None)
    def test_matches_reference(self, n, k, seed):
        g = erdos_renyi(n, 2, seed=seed)
        got = run_wcc_all_machines(g, k, partitioner=HashPartitioner())
        ref = single_machine_wcc(g)
        np.testing.assert_array_equal(got, ref)
