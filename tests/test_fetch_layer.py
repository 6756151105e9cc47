"""Unit and property tests for the adaptive neighbor-fetch layer.

Covers the three mechanisms in isolation (partial-hit splitting via
``GraphShard.cache_mask``, the byte-budgeted hot-vertex cache, and the
single-flight pending table) plus the wire-format helpers they rest on
(``NeighborBatch.take_rows`` / ``NeighborBatch.merge``).  Hypothesis
checks the invariants the bitwise-identity guarantee depends on:

* split/merge round-trip — any partition of a batch into parts, in any
  order, merges back to the original batch bit-for-bit;
* eviction determinism — the same admission sequence always produces
  the same cache contents and the same eviction count;
* eviction order — under any interleaving of admissions, hits and tick
  advances the heap-backed cache evicts exactly the rows a brute-force
  ``min`` over ``(freq, tick, key)`` would, and files exactly one heap
  entry per resident row (:func:`assert_cache_quiescent`).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardError
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner
from repro.rpc.thread_runtime import ThreadFuture, ThreadRuntime
from repro.storage import FetchCache, NeighborFetchService, build_shards
from repro.storage.neighbor_batch import NeighborBatch


def make_batch(ids):
    """A deterministic batch for node ``ids``: row i has (i % 3) + 1
    neighbors, all fields pure functions of the node id — so any subset
    request is consistent with any other."""
    ids = np.asarray(ids, dtype=np.int64)
    counts = (ids % 3) + 1
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    offset = np.arange(total) - np.repeat(indptr[:-1], counts)
    nbrs = np.repeat(ids * 10, counts) + offset
    weights = nbrs.astype(np.float64) + 0.5
    wdeg = weights * 2.0
    src_wdeg = ids.astype(np.float64) + 1.0
    return NeighborBatch(indptr, nbrs, weights, wdeg, src_wdeg)


def assert_batches_equal(a, b):
    for x, y in zip(a.to_arrays(), b.to_arrays()):
        np.testing.assert_array_equal(x, y)


class _StubShard:
    has_halo_cache = False


class _StubRref:
    """Just enough RRef surface for the service's thread-path dispatch."""

    def __init__(self, shard):
        self._shard = shard
        self.ctx = ThreadRuntime()  # the runtime builds the futures

    def local_value(self):
        return self._shard


class _StubStorage:
    """Fake DistGraphStorage: every remote fetch resolves immediately to
    :func:`make_batch` and is recorded for call-pattern assertions."""

    compress = True

    def __init__(self, n_shards=2, shard_id=0):
        self.n_shards = n_shards
        self.shard_id = shard_id
        self.caller = "w0-0"
        self.rrefs = [_StubRref(_StubShard()) for _ in range(n_shards)]
        self.calls = []

    def is_local(self, dest_shard):
        return dest_shard == self.shard_id

    def get_neighbor_infos(self, dest_shard, ids):
        ids = np.asarray(ids, dtype=np.int64)
        self.calls.append((int(dest_shard), ids.copy()))
        return ThreadFuture.resolved(make_batch(ids))


class _Metrics:
    def __init__(self):
        self.c = {}

    def inc(self, name, value=1):
        self.c[name] = self.c.get(name, 0) + value


def make_service(**kwargs):
    storage = _StubStorage()
    metrics = _Metrics()
    cache = FetchCache(kwargs.pop("capacity", 1 << 20))
    svc = NeighborFetchService(storage, cache, metrics=metrics, **kwargs)
    return svc, storage, cache, metrics


# ---------------------------------------------------------------------------
# GraphShard.cache_mask
# ---------------------------------------------------------------------------

class TestCacheMask:
    @pytest.fixture(scope="class")
    def sharded(self):
        g = powerlaw_cluster(200, 5, seed=3)
        return build_shards(g, HashPartitioner().partition(g, 2),
                            halo_hops=2)

    def test_mask_splits_halo_from_core(self, sharded):
        shard0 = sharded.shards[0]
        halos = shard0.halo_nodes()
        covered = halos[:5]
        uncovered = np.setdiff1d(
            np.arange(sharded.base[1], sharded.base[2]), halos)[:5]
        mixed = np.concatenate([covered, uncovered])
        mask = shard0.cache_mask(mixed)
        assert mask.dtype == bool
        assert mask[:len(covered)].all()
        assert not mask[len(covered):].any()

    def test_mask_all_agrees_with_cache_covers(self, sharded):
        """The facade's all-or-nothing shortcut is ``cache_mask(...).all()``:
        a fully covered request is served by ``get_cached_batch``, and one
        uncovered node makes that raise."""
        shard0 = sharded.shards[0]
        covered = shard0.halo_nodes()[:8]
        assert shard0.cache_mask(covered).all()
        assert shard0.get_cached_batch(covered).n_sources == len(covered)
        own = np.append(covered, sharded.base[0])  # a core node: not halo
        assert not shard0.cache_mask(own).all()
        with pytest.raises(ShardError, match="halo cache miss"):
            shard0.get_cached_batch(own)

    def test_mask_without_cache_is_all_false(self):
        g = powerlaw_cluster(100, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        shard0 = sharded.shards[0]
        assert not shard0.has_halo_cache
        mask = shard0.cache_mask(np.array([0, 1, 2], dtype=np.int64))
        assert mask.shape == (3,) and not mask.any()


# ---------------------------------------------------------------------------
# take_rows / merge
# ---------------------------------------------------------------------------

class TestTakeRowsMerge:
    def test_take_rows_identity(self):
        full = make_batch(np.arange(6))
        assert_batches_equal(full.take_rows(np.arange(6)), full)

    def test_take_rows_reorders(self):
        full = make_batch(np.array([3, 1, 4, 1 + 4, 9]))
        sub = full.take_rows(np.array([4, 0, 2]))
        direct = make_batch(np.array([9, 3, 4]))
        assert_batches_equal(sub, direct)

    def test_merge_overlap_raises(self):
        full = make_batch(np.arange(4))
        a = full.take_rows(np.array([0, 1]))
        b = full.take_rows(np.array([1, 2, 3]))
        with pytest.raises(ShardError, match="overlap"):
            NeighborBatch.merge(4, [(np.array([0, 1]), a),
                                    (np.array([1, 2, 3]), b)])

    def test_merge_incomplete_raises(self):
        full = make_batch(np.arange(4))
        a = full.take_rows(np.array([0, 1]))
        with pytest.raises(ShardError, match="cover"):
            NeighborBatch.merge(4, [(np.array([0, 1]), a)])

    def test_merge_row_count_mismatch_raises(self):
        full = make_batch(np.arange(4))
        a = full.take_rows(np.array([0, 1]))
        with pytest.raises(ShardError, match="positions"):
            NeighborBatch.merge(4, [(np.array([0, 1, 2]), a),
                                    (np.array([3]),
                                     full.take_rows(np.array([3])))])


@st.composite
def batch_partitions(draw):
    """A deterministic batch plus a random exact partition of its rows."""
    n = draw(st.integers(min_value=1, max_value=20))
    ids = draw(st.lists(st.integers(min_value=0, max_value=50),
                        min_size=n, max_size=n))
    perm = draw(st.permutations(list(range(n))))
    n_parts = draw(st.integers(min_value=1, max_value=n))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=n - 1) if n > 1
        else st.nothing(),
        min_size=n_parts - 1, max_size=n_parts - 1, unique=True,
    ))) if n > 1 else []
    bounds = [0, *cuts, n]
    parts = [perm[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    return np.asarray(ids, dtype=np.int64), parts


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(batch_partitions())
    def test_split_merge_round_trip_bitwise(self, case):
        """Any partition of a batch, in any row order, merges back to the
        original bit-for-bit — the fetch layer's identity guarantee."""
        ids, parts = case
        full = make_batch(ids)
        pieces = [(np.asarray(p, dtype=np.int64),
                   full.take_rows(np.asarray(p, dtype=np.int64)))
                  for p in parts]
        merged = NeighborBatch.merge(len(ids), pieces)
        assert_batches_equal(merged, full)


# ---------------------------------------------------------------------------
# FetchCache
# ---------------------------------------------------------------------------

def admit_ids(cache, ids):
    ids = np.asarray(ids, dtype=np.int64)
    keys = ids.tolist()  # cache keys are node ids
    batch = make_batch(ids)
    with cache.lock:
        return cache.admit(keys, batch)


def assert_cache_quiescent(cache):
    """Between calls the byte account is exact and within budget, and the
    eviction heap holds exactly one entry per resident row — none for an
    evicted one, so it cannot grow with hits or with run length — each a
    lower bound on its row's current ``(freq, tick)``."""
    assert cache.nbytes == sum(r.nbytes for r in cache.rows.values())
    assert cache.nbytes <= cache.capacity
    assert sorted(key for _, _, key in cache._heap) == sorted(cache.rows)
    for freq, tick, key in cache._heap:
        row = cache.rows[key]
        assert (freq, tick) <= (row.freq, row.tick)


class _ScanCache:
    """The eviction oracle: rows as ``key -> [freq, tick, nbytes]``, every
    victim picked by a full ``min`` scan over ``(freq, tick, key)``."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = {}
        self.nbytes = 0
        self.evictions = 0
        self.tick = 0

    def admit(self, ids):
        if self.capacity <= 0:
            return 0
        for node in ids:
            key = node
            # make_batch's row sizes: 3 columns per neighbor + one-row
            # indptr + src_wdeg
            nbytes = (node % 3 + 1) * 24 + 24
            if key in self.rows or nbytes > self.capacity:
                continue
            self.rows[key] = [1, self.tick, nbytes]
            self.nbytes += nbytes
        evicted = 0
        while self.nbytes > self.capacity:
            key = min(self.rows, key=lambda k: (*self.rows[k][:2], k))
            self.nbytes -= self.rows.pop(key)[2]
            evicted += 1
        self.evictions += evicted
        return evicted


#: one step of a cache's life: admit a response, hit the n-th resident
#: row (in key order) the way ``_classify`` does, or advance the tick
cache_steps = st.lists(
    st.one_of(
        st.tuples(st.just("admit"),
                  st.lists(st.integers(min_value=0, max_value=40),
                           min_size=1, max_size=6)),
        st.tuples(st.just("hit"), st.integers(min_value=0, max_value=63)),
        st.tuples(st.just("tick"), st.just(None)),
    ),
    min_size=1, max_size=40,
)


class TestFetchCache:
    def test_admit_accounts_bytes(self):
        cache = FetchCache(1 << 20)
        admit_ids(cache, [0, 1, 2])  # 1, 2, 3 neighbors
        assert len(cache.rows) == 3
        assert cache.nbytes == sum(
            make_batch([i]).nbytes for i in (0, 1, 2)) \
            == (1 + 2 + 3) * 24 + 3 * 24

    def test_zero_capacity_disables(self):
        cache = FetchCache(0)
        assert admit_ids(cache, [0, 1]) == 0
        assert cache.rows == {} and cache.nbytes == 0
        assert cache._heap == []

    def test_oversize_row_skipped(self):
        cache = FetchCache(60)  # row of node 1 costs 2*24+24 = 72 > 60
        admit_ids(cache, [1])
        assert cache.rows == {} and cache._heap == []
        admit_ids(cache, [0, 1])  # node 0 costs 48, fits
        assert list(cache.rows) == [0]
        assert cache.evictions == 0
        assert_cache_quiescent(cache)

    def test_eviction_prefers_cold_then_old(self):
        cache = FetchCache(3 * 48)  # three single-neighbor rows max
        admit_ids(cache, [0, 3, 6])  # one neighbor each
        cache.rows[0].freq += 1  # node 0 is hot
        cache.tick += 1
        cache.rows[6].tick = cache.tick  # node 6 recently used
        admit_ids(cache, [9])  # forces one eviction
        assert cache.evictions == 1
        assert 3 not in cache.rows  # coldest and oldest goes first
        assert set(cache.rows) == {0, 6, 9}
        assert_cache_quiescent(cache)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity_bytes"):
            FetchCache(-1)

    def test_unregister_is_identity_guarded(self):
        cache = FetchCache(0)
        fut_a, fut_b = object(), object()
        cache.pending[5] = (fut_a, 0)
        cache.unregister([5], fut_b)  # someone else's flight: untouched
        assert 5 in cache.pending
        cache.unregister([5], fut_a)
        assert 5 not in cache.pending
        cache.unregister([5], fut_a)  # idempotent

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=40),
                             min_size=1, max_size=6),
                    min_size=1, max_size=12),
           st.integers(min_value=0, max_value=800))
    def test_admission_sequence_is_deterministic(self, seq, capacity):
        """Same admissions, same capacity -> same rows, bytes, evictions."""
        a, b = FetchCache(capacity), FetchCache(capacity)
        for ids in seq:
            admit_ids(a, ids)
            a.tick += 1
        for ids in seq:
            admit_ids(b, ids)
            b.tick += 1
        assert set(a.rows) == set(b.rows)
        assert a.nbytes == b.nbytes == sum(r.nbytes for r in a.rows.values())
        assert a.evictions == b.evictions
        assert a.nbytes <= capacity

    @settings(max_examples=150, deadline=None)
    @given(cache_steps, st.integers(min_value=0, max_value=800))
    def test_evicts_what_a_min_scan_would(self, steps, capacity):
        """Hits make heap entries stale; the victims must not change."""
        cache, oracle = FetchCache(capacity), _ScanCache(capacity)
        for op, arg in steps:
            if op == "admit":
                assert admit_ids(cache, arg) == oracle.admit(arg)
            elif op == "tick":
                cache.tick += 1
                oracle.tick += 1
            elif cache.rows:
                key = sorted(cache.rows)[arg % len(cache.rows)]
                row = cache.rows[key]
                row.freq += 1
                row.tick = cache.tick
                oracle.rows[key][0] += 1
                oracle.rows[key][1] = oracle.tick
            assert set(cache.rows) == set(oracle.rows)
            assert cache.nbytes == oracle.nbytes
            assert cache.evictions == oracle.evictions
            assert_cache_quiescent(cache)

    @pytest.mark.slow
    def test_eviction_cost_does_not_scale_with_residents(self):
        """The same number of evictions out of 16x the resident rows costs
        < 4x per victim (a scan costs ~16x); a ratio, so host speed
        cancels."""
        n_victims, per_call = 2048, 64

        def per_victim_seconds(resident):
            cache = FetchCache(resident * 48)  # single-neighbor rows only
            admit_ids(cache, np.arange(resident) * 3)
            assert len(cache.rows) == resident
            calls = []
            for start in range(resident, resident + n_victims, per_call):
                ids = np.arange(start, start + per_call) * 3
                calls.append((ids.tolist(), make_batch(ids)))
            cache.tick += 1
            t0 = time.perf_counter()
            for keys, batch in calls:
                cache.admit(keys, batch)
            elapsed = time.perf_counter() - t0
            assert cache.evictions == n_victims
            return elapsed / n_victims

        small = min(per_victim_seconds(512) for _ in range(5))
        large = min(per_victim_seconds(8192) for _ in range(5))
        assert large < 4 * small, (small, large)


# ---------------------------------------------------------------------------
# NeighborFetchService over a stub storage (thread-future path)
# ---------------------------------------------------------------------------

class TestFetchService:
    def test_local_and_delegated_surface(self):
        svc, storage, _, _ = make_service()
        assert svc.n_shards == 2 and svc.shard_id == 0
        assert svc.compress and svc.is_local(0) and not svc.is_local(1)
        svc.get_neighbor_infos(0, np.array([1, 2]))  # local: delegated raw
        assert storage.calls[0][0] == 0
        assert np.array_equal(storage.calls[0][1], np.array([1, 2]))

    def test_miss_then_hot_is_bitwise_identical(self):
        svc, storage, cache, metrics = make_service()
        ids = np.array([5, 6, 7], dtype=np.int64)
        first = svc.get_neighbor_infos(1, ids).value()
        assert len(storage.calls) == 1
        second = svc.get_neighbor_infos(1, ids).value()
        assert len(storage.calls) == 1  # served entirely from the cache
        assert_batches_equal(first, second)
        assert_batches_equal(second, make_batch(ids))
        assert metrics.c["fetch.requests"] == 2
        assert metrics.c["fetch.misses"] == 3
        assert metrics.c["fetch.cache_hits"] == 3
        assert metrics.c["fetch.bytes_saved"] > 0
        assert len(cache.rows) == 3 and not cache.pending

    def test_pure_miss_passthrough_returns_raw_future(self):
        svc, storage, _, _ = make_service(capacity=0, split=False,
                                          coalesce=False)
        ids = np.array([1, 2], dtype=np.int64)
        fut = svc.get_neighbor_infos(1, ids)
        assert fut.done
        assert_batches_equal(fut.value(), make_batch(ids))
        # with every mechanism off the storage future passes through as-is
        assert isinstance(fut, ThreadFuture)

    def test_coalescing_dedups_overlapping_flights(self):
        svc, storage, cache, metrics = make_service()
        f1 = svc.get_neighbor_infos(1, np.array([5, 6, 7]))
        f2 = svc.get_neighbor_infos(1, np.array([6, 7, 8]))
        # second request only fetched the one genuinely new node
        assert [list(ids) for _, ids in storage.calls] == [[5, 6, 7], [8]]
        assert metrics.c["fetch.coalesced"] == 2
        assert metrics.c["fetch.misses"] == 3 + 1
        assert_batches_equal(f1.value(), make_batch(np.array([5, 6, 7])))
        assert_batches_equal(f2.value(), make_batch(np.array([6, 7, 8])))
        assert not cache.pending
        assert set(cache.rows) == {5, 6, 7, 8}

    def test_coalesced_flight_consumable_in_any_order(self):
        svc, _, _, _ = make_service()
        f1 = svc.get_neighbor_infos(1, np.array([5, 6, 7]))
        f2 = svc.get_neighbor_infos(1, np.array([7, 5]))
        # consume the late arrival first: it extracts from f1's response
        assert_batches_equal(f2.value(), make_batch(np.array([7, 5])))
        assert_batches_equal(f1.value(), make_batch(np.array([5, 6, 7])))

    def test_coalesce_off_refetches(self):
        svc, storage, _, metrics = make_service(coalesce=False)
        svc.get_neighbor_infos(1, np.array([5, 6]))
        svc.get_neighbor_infos(1, np.array([5, 6]))
        assert len(storage.calls) == 2
        assert metrics.c.get("fetch.coalesced", 0) == 0

    def test_mixed_hot_and_miss_merges_in_request_order(self):
        svc, storage, _, _ = make_service()
        svc.get_neighbor_infos(1, np.array([10, 11])).value()
        ids = np.array([12, 10, 13, 11], dtype=np.int64)
        out = svc.get_neighbor_infos(1, ids).value()
        assert list(storage.calls[-1][1]) == [12, 13]  # only the misses
        assert_batches_equal(out, make_batch(ids))
