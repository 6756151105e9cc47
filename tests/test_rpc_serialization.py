"""Unit tests for the RPC payload cost model."""

import numpy as np
import pytest

from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner
from repro.rpc.serialization import BufferPool, payload_sizes
from repro.simt.network import NetworkModel
from repro.storage import build_shards
from repro.storage.shard_update import ShardUpdate


class TestPayloadSizes:
    def test_none(self):
        assert payload_sizes(None) == (0, 0)

    def test_array_is_one_tensor(self):
        arr = np.zeros(10, dtype=np.int64)
        assert payload_sizes(arr) == (80, 1)

    def test_scalar(self):
        assert payload_sizes(5) == (8, 0)
        assert payload_sizes(2.5) == (8, 0)
        assert payload_sizes(True) == (8, 0)
        assert payload_sizes(np.int32(7)) == (8, 0)

    def test_string_bytes(self):
        assert payload_sizes("abc") == (3, 0)
        assert payload_sizes(b"abcd") == (4, 0)

    def test_list_of_arrays_counts_each_tensor(self):
        arrs = [np.zeros(4, dtype=np.float32) for _ in range(7)]
        nbytes, n_tensors = payload_sizes(arrs)
        assert n_tensors == 7
        assert nbytes == 7 * 16

    def test_nested_structure(self):
        obj = {"ids": np.zeros(3, dtype=np.int32), "k": 5,
               "inner": [np.ones(2), "x"]}
        nbytes, n_tensors = payload_sizes(obj)
        assert n_tensors == 2
        # arrays 12+16, int 8, "x" 1, keys "ids"+"k"+"inner" = 9 string bytes
        assert nbytes == 12 + 16 + 8 + 1 + 9

    def test_custom_rpc_tensors(self):
        class Compressed:
            def rpc_tensors(self):
                return [(np.dtype(np.int64), 200)] * 5

        assert payload_sizes(Compressed()) == (1000, 5)

    def test_custom_rpc_tensors_negative_rejected(self):
        class Bad:
            def rpc_tensors(self):
                return [(np.dtype(np.int64), -1)]

        with pytest.raises(ValueError, match="negative"):
            payload_sizes(Bad())
        with pytest.raises(ValueError, match="negative"):
            BufferPool().stage(Bad())

    def test_unsizeable_object_rejected(self):
        with pytest.raises(TypeError, match="cannot size"):
            payload_sizes(object())


def _wire_payloads():
    """One payload of each wire type, over six rows of a 2-shard deployment."""
    g = powerlaw_cluster(300, 4, seed=0)
    sharded = build_shards(g, HashPartitioner().partition(g, 2))
    shard = sharded.shards[1]
    lo = int(sharded.base[1])
    rows = np.array([0, 3, 4, 5, 9, 2], dtype=np.int64)
    ids = lo + rows
    return {
        "RowSelection": shard.get_neighbor_batch(ids),
        "VertexProp": shard.get_vertex_props(ids),
        "NeighborLists": shard.get_neighbor_lists(ids),
        "NeighborBatch": shard.rows.take_rows(rows),
        "ShardUpdate": ShardUpdate(ids[:3], shard.rows.take_rows(rows[:3]),
                                   np.sort(ids),
                                   shard.rows.take_rows(np.sort(rows))),
    }


class TestSizingAndStagingAgree:
    """``payload_sizes`` and ``BufferPool.stage`` read one description."""

    #: (nbytes, n_tensors) of each payload, as sized before the wire
    #: description was one ``rpc_tensors()`` per type
    SIZES = {
        "RowSelection": (1064, 5),
        "VertexProp": (112, 1),        # 7 pointers of 16 B
        "NeighborLists": (1008, 19),   # 3 per row + src_wdeg
        "NeighborBatch": (1064, 5),
        "ShardUpdate": (2032, 12),     # 2 id arrays + 2 blocks of 5
    }

    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_one_description_sizes_and_stages(self, name):
        payload = _wire_payloads()[name]
        assert type(payload).__name__ == name
        assert payload_sizes(payload) == self.SIZES[name]
        assert BufferPool().stage(payload)[0] == payload_sizes(payload)[1]


class TestNetworkModel:
    def test_transfer_time_terms(self):
        net = NetworkModel(rpc_overhead=1.0, tensor_wrap_cost=0.1,
                           bandwidth=100.0, latency=0.5)
        # 1.0 + 3*0.1 + 200/100 + 0.5
        assert net.transfer_time(200, 3) == pytest.approx(3.8)

    def test_zero_payload_still_pays_overhead(self):
        net = NetworkModel()
        assert net.transfer_time(0, 0) == pytest.approx(
            net.rpc_overhead + net.latency
        )

    def test_many_small_worse_than_one_big(self):
        """The core TensorPipe pathology: batching amortizes overheads."""
        net = NetworkModel()
        many = 100 * net.transfer_time(80, 1)
        one = net.transfer_time(8000, 5)
        assert many > 10 * one

    def test_negative_inputs_rejected(self):
        net = NetworkModel()
        with pytest.raises(ValueError):
            net.transfer_time(-1, 0)
        with pytest.raises(ValueError):
            net.transfer_time(0, -1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0.0)
        with pytest.raises(ValueError):
            NetworkModel(rpc_overhead=-1.0)

    def test_instant_model(self):
        net = NetworkModel.instant()
        assert net.transfer_time(10**9, 1000) < 1e-6
