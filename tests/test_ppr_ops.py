"""Tests for the hashmap-backed SSPPR operators (pop/push) and the dense
tensor-based state, against single-machine references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import erdos_renyi, powerlaw_cluster
from repro.partition import HashPartitioner, MetisLitePartitioner
from repro.ppr import PPRParams, SSPPR, forward_push_parallel
from repro.ppr.tensor_ops import DenseSSPPR
from repro.storage import build_shards

PARAMS = PPRParams()


def run_hashmap_query(sharded, source_global, params=PARAMS):
    """Drive SSPPR to completion directly against shards (no RPC layer)."""
    source = sharded.nodes_of([source_global])
    shard = sharded.shards[int(sharded.owner_of(source)[0])]
    wdeg = shard.source_weighted_degrees(source)[0]
    m = SSPPR(int(source[0]), params, float(wdeg), int(sharded.base[-1]))
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


def run_dense_query(sharded, source_global, params=PARAMS):
    """Drive the tensor baseline to completion directly against shards."""
    source = sharded.nodes_of([source_global])
    m = DenseSSPPR(int(source[0]), params, sharded.to_node)
    m.seed_source_degree(
        sharded.shards[int(sharded.owner_of(source)[0])]
        .source_weighted_degrees(source)[0]
    )
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


class TestSSPPRState:
    def test_init_queues_source(self):
        m = SSPPR(3, PARAMS, 2.5, 4)
        np.testing.assert_array_equal(m.pop(), [3])
        # second pop is empty
        assert len(m.pop()) == 0

    def test_invalid_init(self):
        with pytest.raises(ValueError, match="non-negative"):
            SSPPR(-1, PARAMS, 1.0, 4)
        with pytest.raises(ValueError, match="source_wdegs must be >= 0"):
            SSPPR(0, PARAMS, -1.0, 4)

    def test_push_unknown_source_rejected(self):
        g = powerlaw_cluster(50, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        m = SSPPR(0, PARAMS, 1.0, g.n_nodes)
        other = sharded.base[1:2]  # first id of shard 1: never touched
        infos = sharded.shards[1].get_neighbor_batch(other)
        with pytest.raises(ValueError, match="never touched"):
            m.push(infos, other)

    def test_push_length_mismatch_rejected(self):
        g = powerlaw_cluster(50, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 1))
        m = SSPPR(0, PARAMS, 1.0, g.n_nodes)
        infos = sharded.shards[0].get_neighbor_batch(np.array([0, 1]))
        with pytest.raises(ValueError, match="sources"):
            m.push(infos, np.array([0]))

    def test_matches_single_machine_reference(self):
        g = powerlaw_cluster(400, 8, mixing=0.2, seed=1)
        sharded = build_shards(g, MetisLitePartitioner(seed=0).partition(g, 3))
        for source in (0, 17, 250):
            m = run_hashmap_query(sharded, source)
            approx = m.query(0).dense_result(sharded, g.n_nodes)
            ref, _, _ = forward_push_parallel(g, source, PARAMS)
            bound = 2 * PARAMS.epsilon * g.weighted_degrees.sum()
            assert np.abs(approx - ref).sum() <= bound
            assert m.total_mass() == pytest.approx(1.0)

    def test_chunked_pushes_stay_within_epsilon_bound(self):
        """Splitting an iteration's frontier into per-shard chunks changes
        intermediate residual consumption (a node pushed in chunk A may
        receive more mass from chunk B within the same iteration), but both
        schedules remain valid epsilon-approximations — the guarantee the
        overlap optimization relies on."""
        g = powerlaw_cluster(300, 6, mixing=0.2, seed=2)
        sharded4 = build_shards(g, HashPartitioner().partition(g, 4))
        sharded1 = build_shards(g, HashPartitioner().partition(g, 1))
        ma = run_hashmap_query(sharded4, 11)
        mb = run_hashmap_query(sharded1, 11)
        a = ma.query(0).dense_result(sharded4, g.n_nodes)
        b = mb.query(0).dense_result(sharded1, g.n_nodes)
        bound = 2 * PARAMS.epsilon * g.weighted_degrees.sum()
        assert np.abs(a - b).sum() <= bound
        assert ma.total_mass() == pytest.approx(1.0)
        assert mb.total_mass() == pytest.approx(1.0)

    def test_isolated_source(self):
        from repro.graph import CSRGraph
        from repro.partition import PartitionResult
        g = CSRGraph.from_edges(3, [0], [1])
        sharded = build_shards(g, PartitionResult(np.zeros(3, dtype=int), 1))
        m = run_hashmap_query(sharded, 2)
        dense = m.query(0).dense_result(sharded, 3)
        assert dense[2] == pytest.approx(1.0)

    def test_results_only_positive(self):
        g = powerlaw_cluster(200, 5, seed=3)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        m = run_hashmap_query(sharded, 0)
        _keys, values = m.query(0).results()
        assert np.all(values > 0)

    def test_counters_populated(self):
        g = powerlaw_cluster(200, 5, seed=4)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        m = run_hashmap_query(sharded, 0)
        assert m.n_pushes > 0
        assert m.n_iterations > 0
        assert m.n_entries_processed >= m.n_pushes
        assert not m.queued.any()  # drained


class TestDenseState:
    def test_matches_hashmap_engine(self):
        g = powerlaw_cluster(400, 8, mixing=0.2, seed=5)
        sharded = build_shards(g, MetisLitePartitioner(seed=0).partition(g, 3))
        for source in (3, 99):
            a = run_hashmap_query(sharded, source).query(0).dense_result(
                sharded, g.n_nodes
            )
            b = run_dense_query(sharded, source).dense_result()
            bound = 2 * PARAMS.epsilon * g.weighted_degrees.sum()
            assert np.abs(a - b).sum() <= bound

    def test_mass_conservation(self):
        g = powerlaw_cluster(300, 6, seed=6)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        m = run_dense_query(sharded, 5)
        assert m.total_mass() == pytest.approx(1.0)

    def test_invalid_init(self):
        with pytest.raises(ValueError):
            DenseSSPPR(10, PARAMS, np.arange(5))
        with pytest.raises(ValueError):
            DenseSSPPR(-1, PARAMS, np.arange(5))

    def test_push_length_mismatch(self):
        g = powerlaw_cluster(50, 4, seed=7)
        sharded = build_shards(g, HashPartitioner().partition(g, 1))
        m = DenseSSPPR(0, PARAMS, sharded.to_node)
        infos = sharded.shards[0].get_neighbor_batch(np.array([0, 1]))
        with pytest.raises(ValueError, match="sources"):
            m.push(infos, np.array([0]))


class TestEngineEquivalenceProperties:
    @given(
        n=st.integers(30, 150),
        k=st.integers(1, 4),
        seed=st.integers(0, 20),
        eps_exp=st.sampled_from([4, 5]),
    )
    @settings(max_examples=15, deadline=None)
    def test_hashmap_equals_reference_any_graph(self, n, k, seed, eps_exp):
        g = erdos_renyi(n, 5, seed=seed)
        params = PPRParams(epsilon=10.0 ** (-eps_exp))
        sharded = build_shards(g, HashPartitioner().partition(g, k))
        source = seed % n
        m = run_hashmap_query(sharded, source, params)
        approx = m.query(0).dense_result(sharded, n)
        ref, _, _ = forward_push_parallel(g, source, params)
        bound = 2 * params.epsilon * g.weighted_degrees.sum() + 1e-12
        assert np.abs(approx - ref).sum() <= bound
        assert m.total_mass() == pytest.approx(1.0)


def flagged_slots(state) -> np.ndarray:
    """The activated set as the state stores it: one flag per touched slot."""
    flagged = np.flatnonzero(state.queued)
    assert np.all(flagged < len(state.map))  # never a flag past the table
    return flagged


def check_pop(state, mass: float):
    """``pop`` returns exactly the flagged slots' nodes, sorted, and clears."""
    flagged_keys = state.map.keys()[flagged_slots(state)]
    node_keys = np.unique(flagged_keys // getattr(state, "n_queries", 1))
    node_ids = state.pop()
    np.testing.assert_array_equal(node_ids, node_keys)
    assert not state.queued.any()
    assert state.total_mass() == pytest.approx(mass)
    return node_ids


def check_push(state, infos, node_ids, mass: float):
    """``push`` only ever *adds* flags, and only on above-threshold slots."""
    before = flagged_slots(state)
    state.push(infos, node_ids)
    after = flagged_slots(state)
    assert np.isin(before, after).all()
    fresh = np.setdiff1d(after, before)
    eps = state.params.epsilon
    assert np.all(state.residual[fresh] > eps * state.wdeg[fresh])
    assert state.total_mass() == pytest.approx(mass)
    return after


class TestSlotFrontierInvariant:
    """The activated set is the queued flags of the touched slots."""

    @given(n=st.integers(20, 120), k=st.integers(1, 4),
           seed=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_ssppr_flags_are_the_frontier(self, n, k, seed):
        g = powerlaw_cluster(n, 4, seed=seed)
        sharded = build_shards(g, HashPartitioner().partition(g, k))
        source = sharded.nodes_of([seed % n])
        wdeg = sharded.shards[int(sharded.owner_of(source)[0])] \
            .source_weighted_degrees(source)[0]
        m = SSPPR(int(source[0]), PPRParams(epsilon=1e-4), float(wdeg),
                  g.n_nodes)
        assert np.count_nonzero(m.queued) == 1
        while True:
            node_ids = check_pop(m, 1.0)
            if len(node_ids) == 0:
                break
            shard_ids = sharded.owner_of(node_ids)
            for j in np.unique(shard_ids).tolist():
                mask = shard_ids == j
                infos = sharded.shards[j].get_neighbor_batch(node_ids[mask])
                after = check_push(m, infos, node_ids[mask], 1.0)
                # every node this response reached that now sits above
                # its threshold is activated
                hit = np.unique(m.map.lookup(infos.to_arrays()[1]))
                hot = hit[m.residual[hit]
                          > m.params.epsilon * m.wdeg[hit]]
                assert np.isin(hot, after).all()
                assert np.count_nonzero(m.queued) == len(after)
        n_touched = len(m.map)
        assert np.all(m.residual[:n_touched]
                      <= m.params.epsilon * m.wdeg[:n_touched])

    @given(n=st.integers(20, 120), k=st.integers(1, 4),
           batch=st.integers(1, 6), seed=st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_multi_flags_are_the_frontier(self, n, k, batch, seed):
        from repro.ppr import MultiSSPPR

        g = powerlaw_cluster(n, 4, seed=seed)
        sharded = build_shards(g, HashPartitioner().partition(g, k))
        own = np.arange(sharded.base[0], sharded.base[1])[:batch]
        wdegs = sharded.shards[0].source_weighted_degrees(own)
        m = MultiSSPPR(own, PPRParams(epsilon=1e-4), wdegs, g.n_nodes)
        mass = float(len(own))
        while True:
            node_ids = check_pop(m, mass)
            if len(node_ids) == 0:
                break
            shard_ids = sharded.owner_of(node_ids)
            for j in np.unique(shard_ids).tolist():
                mask = shard_ids == j
                infos = sharded.shards[j].get_neighbor_batch(node_ids[mask])
                check_push(m, infos, node_ids[mask], mass)
        n_touched = len(m.map)
        assert np.all(m.residual[:n_touched]
                      <= m.params.epsilon * m.wdeg[:n_touched])
