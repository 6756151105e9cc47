"""Validation and property tests for the wire formats (NeighborBatch,
NeighborLists, VertexProp) and DDP replica synchronization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardError
from repro.graph import erdos_renyi, powerlaw_cluster
from repro.partition import HashPartitioner
from repro.rpc.serialization import payload_sizes
from repro.storage import build_shards
from repro.storage.neighbor_batch import NeighborBatch, NeighborLists


class TestNeighborBatchValidation:
    def good_args(self):
        return dict(
            indptr=np.array([0, 2, 3]),
            ids=np.array([5, 6, 7]),
            weights=np.ones(3),
            wdeg=np.ones(3),
            src_wdeg=np.ones(2),
        )

    def test_valid(self):
        b = NeighborBatch(**self.good_args())
        assert b.n_sources == 2
        assert b.n_entries == 3

    def test_indptr_span_mismatch(self):
        args = self.good_args()
        args["indptr"] = np.array([0, 2, 5])
        with pytest.raises(ShardError, match="indptr"):
            NeighborBatch(**args)

    def test_field_length_mismatch(self):
        args = self.good_args()
        args["weights"] = np.ones(2)
        with pytest.raises(ShardError, match="weights"):
            NeighborBatch(**args)

    def test_source_wdeg_mismatch(self):
        args = self.good_args()
        args["src_wdeg"] = np.ones(5)
        with pytest.raises(ShardError, match="src_wdeg"):
            NeighborBatch(**args)


class TestNeighborListsValidation:
    def test_length_mismatch(self):
        with pytest.raises(ShardError, match="src_wdeg"):
            NeighborLists([], np.ones(2))

    def test_empty(self):
        lists = NeighborLists([], np.empty(0))
        indptr, *arrays = lists.to_arrays()
        assert len(indptr) == 1
        assert all(len(a) == 0 for a in arrays)
        nbytes, n_tensors = payload_sizes(lists)
        assert n_tensors == 1  # just the src_wdeg array

    def test_n_entries(self):
        entries = [
            (np.array([1, 2]), np.ones(2), np.ones(2)),
            (np.array([3]), np.ones(1), np.ones(1)),
        ]
        lists = NeighborLists(entries, np.ones(2))
        assert lists.n_entries == 3


class TestFormatEquivalenceProperties:
    @given(n=st.integers(10, 80), k=st.integers(1, 4), seed=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_three_formats_agree(self, n, k, seed):
        """VertexProp, NeighborBatch, NeighborLists carry identical data."""
        g = erdos_renyi(n, 4, seed=seed)
        sharded = build_shards(g, HashPartitioner().partition(g, k))
        shard = sharded.shards[seed % k]
        if shard.n_core == 0:
            return
        rng = np.random.default_rng(seed)
        ids = sharded.base[seed % k] + rng.choice(
            shard.n_core, size=min(5, shard.n_core), replace=False)
        a = shard.get_vertex_props(ids).to_arrays()
        b = shard.get_neighbor_batch(ids).to_arrays()
        c = shard.get_neighbor_lists(ids).to_arrays()
        for x, y, z in zip(a, b, c):
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(x, z)

    @given(n=st.integers(10, 60), seed=st.integers(0, 10))
    @settings(max_examples=15, deadline=None)
    def test_payload_ordering(self, n, seed):
        """Compressed responses always cost fewer tensors than uncompressed
        (for batches of more than one node)."""
        g = erdos_renyi(n, 4, seed=seed)
        sharded = build_shards(g, HashPartitioner().partition(g, 1))
        shard = sharded.shards[0]
        ids = np.arange(min(4, shard.n_core))
        if len(ids) < 2:
            return
        _, compressed = payload_sizes(shard.get_neighbor_batch(ids))
        _, uncompressed = payload_sizes(shard.get_neighbor_lists(ids))
        assert compressed < uncompressed


class TestDdpReplicaSync:
    def test_replicas_bit_identical_after_training(self):
        """The DDP guarantee: identical init + averaged gradients =>
        identical replicas at every step, hence at the end."""
        from repro.engine.config import EngineConfig
        from repro.gnn import community_task, run_distributed_training
        g = powerlaw_cluster(900, 8, mixing=0.1, n_communities=4, seed=11)
        feats, labels = community_task(g.n_nodes, 4, 8, seed=12)
        history = run_distributed_training(
            g, feats, labels, EngineConfig(n_machines=3),
            n_steps=4, batch_size=4, topk=12, seed=13,
        )
        assert len(history.replica_states) == 3
        reference = history.replica_states[0]
        for replica in history.replica_states[1:]:
            for p_ref, p_other in zip(reference, replica):
                np.testing.assert_allclose(p_ref, p_other, atol=1e-12)
