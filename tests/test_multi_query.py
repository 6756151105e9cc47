"""Tests for inter-query batched SSPPR (MultiSSPPR) — results must match
the single-query engine within the epsilon bound, at far fewer RPCs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, GraphEngine, PPRParams, RunRequest
from repro.graph import erdos_renyi, powerlaw_cluster
from repro.partition import HashPartitioner
from repro.ppr import MultiSSPPR, forward_push_parallel
from repro.storage import build_shards

PARAMS = PPRParams()


def run_multi(sharded, sources_global, params=PARAMS):
    """Drive a MultiSSPPR directly against shards (no RPC layer)."""
    sources = sharded.nodes_of(sources_global)
    shard = sharded.owner_of(sources)
    assert len(np.unique(shard)) == 1, "all sources must share a shard"
    own = int(shard[0])
    wdegs = sharded.shards[own].source_weighted_degrees(sources)
    m = MultiSSPPR(sources, params, wdegs)
    while True:
        node_ids = m.pop()
        if len(node_ids) == 0:
            return m
        shard_ids = sharded.owner_of(node_ids)
        for j in range(sharded.n_shards):
            mask = shard_ids == j
            if not mask.any():
                continue
            infos = sharded.shards[j].get_neighbor_batch(node_ids[mask])
            m.push(infos, node_ids[mask])


class TestMultiSSPPRState:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            MultiSSPPR([], PARAMS, [])
        with pytest.raises(ValueError):
            MultiSSPPR([0], PARAMS, [1.0, 2.0])
        with pytest.raises(ValueError):
            MultiSSPPR([0], PARAMS, [-1.0])
        with pytest.raises(ValueError):
            MultiSSPPR([-1], PARAMS, [1.0])

    def test_results_for_bad_qid(self):
        m = MultiSSPPR([0, 1], PARAMS, [1.0, 1.0])
        with pytest.raises(ValueError):
            m.results_for(5)

    def test_total_mass_equals_n_queries(self):
        g = powerlaw_cluster(300, 6, mixing=0.2, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        own0 = sharded.shards[0].core_global[:4]
        m = run_multi(sharded, own0)
        assert m.total_mass() == pytest.approx(4.0)

    def test_each_query_matches_reference(self):
        g = powerlaw_cluster(400, 8, mixing=0.15, seed=1)
        sharded = build_shards(g, HashPartitioner().partition(g, 3))
        sources = sharded.shards[1].core_global[:5]
        m = run_multi(sharded, sources)
        bound = 2 * PARAMS.epsilon * g.weighted_degrees.sum()
        for qid, gid in enumerate(sources.tolist()):
            dense = m.dense_result_for(qid, sharded, g.n_nodes)
            ref, _, _ = forward_push_parallel(g, gid, PARAMS)
            assert np.abs(dense - ref).sum() <= bound, qid

    def test_single_query_batch_degenerates(self):
        g = powerlaw_cluster(200, 6, seed=2)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        src = sharded.shards[0].core_global[:1]
        m = run_multi(sharded, src)
        dense = m.dense_result_for(0, sharded, g.n_nodes)
        ref, _, _ = forward_push_parallel(g, int(src[0]), PARAMS)
        bound = 2 * PARAMS.epsilon * g.weighted_degrees.sum()
        assert np.abs(dense - ref).sum() <= bound

    def test_duplicate_sources_supported(self):
        """Two queries from the same source produce identical vectors."""
        g = powerlaw_cluster(200, 6, seed=3)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        src = sharded.shards[0].core_global[0]
        m = run_multi(sharded, np.array([src, src]))
        a = m.dense_result_for(0, sharded, g.n_nodes)
        b = m.dense_result_for(1, sharded, g.n_nodes)
        np.testing.assert_allclose(a, b)


class TestEngineBatchedQueries:
    def test_matches_sequential_engine(self):
        g = powerlaw_cluster(600, 8, mixing=0.15, seed=4)
        engine = GraphEngine(g, EngineConfig(n_machines=3, seed=0))
        seq = engine.run(RunRequest(n_queries=9, keep_states=True, seed=5))
        bat = engine.run_queries_batched(
            sources=np.array(sorted(seq.states)), seed=5
        )
        bound = 2 * PARAMS.epsilon * g.weighted_degrees.sum()
        for gid in seq.states:
            a = seq.states[gid].dense_result(engine.sharded, g.n_nodes)
            b = bat.states[gid].dense_result(engine.sharded, g.n_nodes)
            assert np.abs(a - b).sum() <= bound
            assert bat.states[gid].total_mass() == pytest.approx(1.0)

    def test_fewer_rpcs_than_sequential(self):
        g = powerlaw_cluster(600, 8, mixing=0.3, seed=6)
        engine = GraphEngine(g, EngineConfig(n_machines=3, seed=0))
        seq = engine.run(RunRequest(n_queries=12, seed=7))
        bat = engine.run_queries_batched(n_queries=12, seed=7)
        assert bat.remote_requests < seq.remote_requests

    def test_result_view_surface(self):
        g = powerlaw_cluster(300, 6, seed=8)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        run = engine.run_queries_batched(n_queries=4, seed=9)
        for gid, view in run.states.items():
            gids, values = view.results_global(engine.sharded)
            assert np.all(values > 0)
            assert view.n_touched > 0
            assert view.n_iterations > 0

    def test_missing_args_rejected(self):
        g = powerlaw_cluster(100, 4, seed=10)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        with pytest.raises(ValueError, match="n_queries or sources"):
            engine.run_queries_batched()


class TestMultiQueryProperties:
    @given(
        n=st.integers(40, 120),
        batch=st.integers(1, 5),
        seed=st.integers(0, 15),
    )
    @settings(max_examples=12, deadline=None)
    def test_batched_equals_individual(self, n, batch, seed):
        g = erdos_renyi(n, 5, seed=seed)
        params = PPRParams(epsilon=1e-4)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        sources = sharded.shards[0].core_global[:batch]
        if len(sources) < batch:
            return
        m = run_multi(sharded, sources, params)
        assert m.total_mass() == pytest.approx(float(batch))
        bound = 2 * params.epsilon * g.weighted_degrees.sum() + 1e-12
        for qid, gid in enumerate(sources.tolist()):
            dense = m.dense_result_for(qid, sharded, n)
            ref, _, _ = forward_push_parallel(g, gid, params)
            assert np.abs(dense - ref).sum() <= bound
