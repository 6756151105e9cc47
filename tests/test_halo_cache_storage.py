"""Tests for the 2-hop halo cache (build, dispatch, correctness)."""

import numpy as np
import pytest

from repro import EngineConfig, GraphEngine, PPRParams, RunRequest
from repro.errors import ShardError
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner, MetisLitePartitioner
from repro.ppr import forward_push_parallel
from repro.storage import build_shards

PARAMS = PPRParams()


class TestBuild:
    def test_halo_hops_validation(self):
        g = powerlaw_cluster(100, 4, seed=0)
        res = HashPartitioner().partition(g, 2)
        with pytest.raises(ShardError, match="halo_hops"):
            build_shards(g, res, halo_hops=3)

    def test_default_has_no_cache(self):
        g = powerlaw_cluster(100, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        assert not sharded.shards[0].has_halo_cache

    def test_cache_installed_at_two_hops(self):
        g = powerlaw_cluster(100, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 2),
                               halo_hops=2)
        for shard in sharded.shards:
            assert shard.has_halo_cache

    def test_cache_increases_memory(self):
        g = powerlaw_cluster(300, 6, seed=1)
        res = HashPartitioner().partition(g, 2)
        m1 = build_shards(g, res).total_memory_nbytes()
        m2 = build_shards(g, res, halo_hops=2).total_memory_nbytes()
        assert m2 > m1

    def test_cached_rows_match_owner_rows(self):
        """A cached halo row must equal the row the owner shard serves."""
        g = powerlaw_cluster(300, 6, seed=2)
        sharded = build_shards(
            g, MetisLitePartitioner(seed=0).partition(g, 3), halo_hops=2
        )
        shard0 = sharded.shards[0]
        halos = shard0.halo_nodes()[:10]
        for node_id, own in zip(halos, sharded.owner_of(halos)):
            cached = shard0.get_cached_batch(np.array([node_id]))
            authoritative = sharded.shards[own].get_neighbor_batch(
                np.array([node_id])
            )
            for a, b in zip(cached.to_arrays(), authoritative.to_arrays()):
                np.testing.assert_array_equal(a, b)

    def test_cache_covers(self):
        g = powerlaw_cluster(200, 5, seed=3)
        sharded = build_shards(g, HashPartitioner().partition(g, 2),
                               halo_hops=2)
        shard0 = sharded.shards[0]
        halos = shard0.halo_nodes()
        assert shard0.cache_mask(halos[:5]).all()
        # a core node of shard 1 that is NOT shard 0's halo
        non_halo = np.setdiff1d(
            np.arange(sharded.base[1], sharded.base[2]), halos)
        if len(non_halo):
            assert not shard0.cache_mask(non_halo[:1]).any()

    def test_cache_miss_raises(self):
        g = powerlaw_cluster(200, 5, seed=4)
        sharded = build_shards(g, HashPartitioner().partition(g, 2),
                               halo_hops=2)
        shard0 = sharded.shards[0]
        non_halo = np.setdiff1d(
            np.arange(sharded.base[1], sharded.base[2]), shard0.halo_nodes())
        if len(non_halo) == 0:
            pytest.skip("all of shard 1 is halo for shard 0")
        with pytest.raises(ShardError, match="halo cache miss"):
            shard0.get_cached_batch(non_halo[:1])

    def test_no_cache_raises(self):
        g = powerlaw_cluster(100, 4, seed=5)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        with pytest.raises(ShardError, match="no halo cache"):
            sharded.shards[0].get_cached_batch(np.array([0]))


def _merge_by_loop(old_ids, old, new_ids, new):
    """The per-key reference: walk the merged id list, take each row from
    the incoming block if it has the id, else from the cache."""
    merged = np.union1d(old_ids, new_ids)
    rows = []
    for node_id in merged:
        ids, block = ((new_ids, new) if node_id in new_ids
                      else (old_ids, old))
        pos = int(np.searchsorted(ids, node_id))
        s, e = block.indptr[pos], block.indptr[pos + 1]
        rows.append((block.ids[s:e], block.weights[s:e], block.wdeg[s:e],
                     block.src_wdeg[pos]))
    return merged, rows


class TestInstallHaloRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_merge_equals_per_key_loop(self, seed):
        """Incoming rows replace cached ones on collision and extend
        coverage otherwise — overlapping and new ids in one call."""
        g = powerlaw_cluster(200, 5, mixing=0.4, seed=seed)
        sharded = build_shards(g, HashPartitioner().partition(g, 3),
                               halo_hops=2)
        shard0, shard1 = sharded.shards[0], sharded.shards[1]
        rng = np.random.default_rng(seed)
        cached = rng.choice(shard0.halo_ids, size=5, replace=False)
        uncached = np.setdiff1d(
            np.arange(sharded.base[1], sharded.base[2]), shard0.halo_ids)[:4]
        new_ids = np.sort(np.concatenate([
            cached[sharded.owner_of(cached) == 1], uncached]))
        # incoming content differs from the cached content: doubled weights
        new = shard1.get_neighbor_batch(new_ids).materialize()
        new.weights *= 2.0
        old_ids, old = shard0.halo_ids, shard0.halo
        want_ids, want_rows = _merge_by_loop(old_ids, old, new_ids, new)

        assert shard0.install_halo_rows(new_ids, new) == len(new_ids)
        np.testing.assert_array_equal(shard0.halo_ids, want_ids)
        assert shard0.cache_mask(want_ids).all()
        halo = shard0.halo
        for i, (ids, w, wdeg, src) in enumerate(want_rows):
            s, e = halo.indptr[i], halo.indptr[i + 1]
            np.testing.assert_array_equal(halo.ids[s:e], ids)
            np.testing.assert_array_equal(halo.weights[s:e], w)
            np.testing.assert_array_equal(halo.wdeg[s:e], wdeg)
            assert halo.src_wdeg[i] == src

    def test_creates_the_cache_when_there_is_none(self):
        g = powerlaw_cluster(100, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        shard0 = sharded.shards[0]
        ids = np.arange(sharded.base[1], sharded.base[1] + 3)
        rows = sharded.shards[1].get_neighbor_batch(ids)
        assert shard0.install_halo_rows(ids, rows) == 3
        for a, b in zip(shard0.get_cached_batch(ids).to_arrays(),
                        rows.to_arrays()):
            np.testing.assert_array_equal(a, b)


class TestEngineWithCache:
    def test_results_identical_to_uncached(self):
        g = powerlaw_cluster(500, 8, mixing=0.2, seed=6)
        e1 = GraphEngine(g, EngineConfig(n_machines=3, halo_hops=1, seed=0))
        e2 = GraphEngine(g, EngineConfig(n_machines=3, halo_hops=2, seed=0))
        r1 = e1.run(RunRequest(n_queries=6, keep_states=True, seed=7))
        r2 = e2.run(RunRequest(sources=np.array(sorted(r1.states)),
                            keep_states=True, seed=7))
        bound = 2 * PARAMS.epsilon * g.weighted_degrees.sum()
        for gid in r1.states:
            ref, _, _ = forward_push_parallel(g, gid, PARAMS)
            d2 = r2.states[gid].dense_result(e2.sharded, g.n_nodes)
            assert np.abs(d2 - ref).sum() <= bound

    def test_reduces_remote_requests(self):
        g = powerlaw_cluster(500, 8, mixing=0.3, seed=8)
        e1 = GraphEngine(g, EngineConfig(n_machines=3, halo_hops=1, seed=0))
        e2 = GraphEngine(g, EngineConfig(n_machines=3, halo_hops=2, seed=0))
        r1 = e1.run(RunRequest(n_queries=8, seed=9))
        r2 = e2.run(RunRequest(n_queries=8, seed=9))
        assert r2.remote_requests < r1.remote_requests

    def test_config_validation(self):
        with pytest.raises(ValueError, match="halo_hops"):
            EngineConfig(halo_hops=3)
