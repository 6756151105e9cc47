"""Coverage for smaller surfaces: DistGraphStorage validation, VertexProp
payload semantics, CLI halo-hops path, dataset spec integrity."""

import numpy as np
import pytest

from repro.graph import DATASETS, powerlaw_cluster, save_npz
from repro.partition import HashPartitioner
from repro.rpc.serialization import payload_sizes
from repro.storage import DistGraphStorage, build_shards
from repro.storage.dist_storage import DistGraphStorage as DGS


class TestDistGraphStorageValidation:
    def make_rrefs(self, k=2):
        from repro.engine import EngineConfig
        from repro.engine.cluster import SimCluster
        g = powerlaw_cluster(100, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, k))
        cluster = SimCluster(sharded, EngineConfig(n_machines=k))
        return cluster.rrefs

    def test_bad_shard_id(self):
        rrefs = self.make_rrefs(2)
        with pytest.raises(ValueError, match="shard_id"):
            DistGraphStorage(rrefs, 5, "w")

    def test_shard_masks_cover_everything(self):
        rrefs = self.make_rrefs(3)
        g = DGS(rrefs, 0, "w")
        shard_ids = np.array([0, 1, 2, 1, 0])
        # the first id of each shard, then its second for the repeats
        masks = g.shard_masks(g.base[shard_ids] + [0, 0, 0, 1, 1])
        assert set(masks) == {0, 1, 2}
        total = sum(len(m) for m in masks.values())
        assert total == 5
        # index arrays match flatnonzero of the boolean masks exactly
        for j, idx in masks.items():
            np.testing.assert_array_equal(idx, np.flatnonzero(shard_ids == j))

    def test_shard_masks_only_present_shards(self):
        rrefs = self.make_rrefs(3)
        g = DGS(rrefs, 0, "w")
        masks = g.shard_masks(g.base[1] + np.arange(3))
        assert set(masks) == {1}
        assert masks.get(0) is None
        np.testing.assert_array_equal(masks[1], np.arange(3))
        assert g.shard_masks(np.array([], dtype=np.int64)) == {}

    def test_is_local(self):
        rrefs = self.make_rrefs(2)
        # caller registered on machine 0 by SimCluster server bring-up is
        # the server itself; use the worker-info of the rrefs' context
        ctx = rrefs[0].ctx
        from repro.simt.events import Sleep

        def body():
            yield Sleep(0)

        proc = ctx.scheduler.spawn("w0", body())
        ctx.register_worker("w0", 0, proc)
        g = DGS(rrefs, 0, "w0")
        assert g.is_local(0)
        assert not g.is_local(1)
        ctx.scheduler.run()


class TestVertexPropPayload:
    def test_local_handoff_is_cheap(self):
        g = powerlaw_cluster(200, 6, seed=1)
        sharded = build_shards(g, HashPartitioner().partition(g, 1))
        prop = sharded.shards[0].get_vertex_props(np.arange(50))
        nbytes, n_tensors = payload_sizes(prop)
        # pointer-passing, not data: far below the real row data size
        batch = sharded.shards[0].get_neighbor_batch(np.arange(50))
        real_bytes, _ = payload_sizes(batch)
        assert nbytes < real_bytes / 5
        assert n_tensors == 1

    def test_vertex_prop_degree_accessors(self):
        g = powerlaw_cluster(100, 5, seed=2)
        sharded = build_shards(g, HashPartitioner().partition(g, 1))
        shard = sharded.shards[0]
        ids = np.array([0, 1, 2])
        prop = shard.get_vertex_props(ids)
        for i, lid in enumerate(ids):
            gid = shard.core_global[lid]
            assert prop.degree(i) == g.out_degree(int(gid))
        np.testing.assert_allclose(prop.source_weighted_degrees(),
                                   shard.rows.src_wdeg[ids])


class TestCliHaloHops:
    def test_partition_with_two_hop_cache(self, tmp_path, capsys):
        from repro.cli import main
        g = powerlaw_cluster(200, 5, mixing=0.2, seed=3)
        graph_path = tmp_path / "g.npz"
        save_npz(graph_path, g)
        out_path = str(tmp_path / "s2.npz")
        assert main(["partition", str(graph_path), "--machines", "2",
                     "--halo-hops", "2", "--output", out_path]) == 0
        from repro.storage.persist import load_sharded
        loaded = load_sharded(out_path)
        assert loaded.shards[0].has_halo_cache


class TestDatasetSpecs:
    def test_all_specs_have_distinct_seeds(self):
        seeds = [spec.seed for spec in DATASETS.values()]
        assert len(set(seeds)) == len(seeds)

    def test_spec_fields_sane(self):
        for spec in DATASETS.values():
            assert spec.n_nodes > 0
            assert spec.avg_degree > 0
            assert 1.0 < spec.exponent < 10.0
            assert 0.0 <= spec.mixing <= 1.0
            if spec.max_degree is not None:
                assert spec.max_degree > spec.avg_degree

    def test_paper_names_present(self):
        names = {spec.paper_name for spec in DATASETS.values()}
        assert names == {"Ogbn-products", "Twitter", "Friendster",
                         "Ogbn-papers100M"}
