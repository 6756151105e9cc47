"""Unit and property tests for the adaptive neighbor-fetch layer.

Covers the three mechanisms in isolation (partial-hit splitting via
``GraphShard.cache_mask``, the byte-budgeted hot-vertex cache, and the
single-flight pending table) plus the wire-format helpers they rest on
(``NeighborBatch.take_rows`` / ``NeighborBatch.merge``).  Hypothesis
checks the invariants the bitwise-identity guarantee depends on:

* split/merge round-trip — any partition of a batch into parts, in any
  order, merges back to the original batch bit-for-bit;
* admission — the same admission sequence always produces the same cache
  contents; under any sequence the byte account stays within budget
  (:func:`assert_cache_quiescent`), a resident row is never replaced, and
  a hit returns the admitting response's row bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardError
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner
from repro.rpc.rref import RRef
from repro.rpc.thread_runtime import ThreadFuture, ThreadRuntime
from repro.storage import FetchCache, NeighborFetchService, build_shards
from repro.storage.fetch import _rows_to_batch
from repro.storage.neighbor_batch import NeighborBatch


def make_batch(ids, salt=0.0):
    """A deterministic batch for node ``ids``: row i has (i % 3) + 1
    neighbors, all fields pure functions of the node id (and ``salt``,
    which shifts the weights) — so any subset request is consistent with
    any other of the same salt."""
    ids = np.asarray(ids, dtype=np.int64)
    counts = (ids % 3) + 1
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    offset = np.arange(total) - np.repeat(indptr[:-1], counts)
    nbrs = np.repeat(ids * 10, counts) + offset
    weights = nbrs.astype(np.float64) + 0.5 + salt
    wdeg = weights * 2.0
    src_wdeg = ids.astype(np.float64) + 1.0
    return NeighborBatch(indptr, nbrs, weights, wdeg, src_wdeg)


def assert_batches_equal(a, b):
    for x, y in zip(a.to_arrays(), b.to_arrays()):
        np.testing.assert_array_equal(x, y)


class _StubShard:
    has_halo_cache = False
    #: the address book the storage facade reads at construction
    base = np.array([0, 1000, 2000], dtype=np.int64)


class _StubRref(RRef):
    """Shard ``shard``'s storage RRef, owned by the caller's machine iff
    ``shard == 0``: every call resolves immediately to :func:`make_batch`
    and is recorded in ``calls`` as ``(shard, ids)``."""

    def __init__(self, ctx, shard, calls):
        super().__init__(ctx, f"server:{shard}", "storage")
        self.shard = shard
        self.calls = calls

    def is_owner(self, caller_worker):
        return self.shard == 0

    def local_value(self):
        return _StubShard()

    def rpc_async(self, caller, method, ids):
        ids = np.asarray(ids, dtype=np.int64)
        self.calls.append((self.shard, ids.copy()))
        return ThreadFuture.resolved(make_batch(ids))


class _Metrics:
    def __init__(self):
        self.c = {}

    def inc(self, name, value=1):
        self.c[name] = self.c.get(name, 0) + value


def make_service(**kwargs):
    """A service for shard 0 of two over stub RRefs; returns it with the
    recorded ``(shard, ids)`` calls, its cache and its metrics."""
    ctx = ThreadRuntime()  # the runtime builds the futures
    calls = []
    rrefs = [_StubRref(ctx, shard, calls) for shard in range(2)]
    metrics = _Metrics()
    cache = FetchCache(kwargs.pop("capacity", 1 << 20))
    svc = NeighborFetchService(rrefs, 0, "w0-0", cache, metrics=metrics,
                               **kwargs)
    return svc, calls, cache, metrics


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

def admit_ids(cache, ids, salt=0.0):
    ids = np.asarray(ids, dtype=np.int64)
    keys = ids.tolist()  # cache keys are node ids
    with cache.lock:
        cache.admit(keys, make_batch(ids, salt))


def row_nbytes(node):
    """:func:`make_batch`'s row size: 3 columns per neighbor + a one-row
    indptr + src_wdeg."""
    return (node % 3 + 1) * 24 + 24


def assert_cache_quiescent(cache):
    """Between calls the byte account is exact and within budget."""
    assert cache.nbytes == sum(r.nbytes for r in cache.rows.values())
    assert cache.nbytes <= cache.capacity


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
        admit_ids(cache, [0, 1])
        assert cache.rows == {} and cache.nbytes == 0

    def test_oversize_row_skipped(self):
        cache = FetchCache(60)  # row of node 1 costs 2*24+24 = 72 > 60
        admit_ids(cache, [1])
        assert cache.rows == {}
        admit_ids(cache, [0, 1])  # node 0 costs 48, fits
        assert list(cache.rows) == [0]
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
        """Same admissions, same capacity -> same rows, same bytes."""
        a, b = FetchCache(capacity), FetchCache(capacity)
        for ids in seq:
            admit_ids(a, ids)
        for ids in seq:
            admit_ids(b, ids)
        assert list(a.rows) == list(b.rows)
        assert a.nbytes == b.nbytes == sum(r.nbytes for r in a.rows.values())
        assert a.nbytes <= capacity

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=40),
                             min_size=1, max_size=6),
                    min_size=1, max_size=40),
           st.integers(min_value=0, max_value=800))
    def test_admits_until_full_and_never_replaces(self, seq, capacity):
        """Every response is distinct (salted); after each admission the
        budget holds, a resident row is the very row it was admitted as,
        a hit on it returns its admitting response's row bitwise, and no
        skipped row would still fit."""
        cache = FetchCache(capacity)
        admitted = {}  # key -> (row object, salt of its admitting response)
        for salt, ids in enumerate(seq):
            admit_ids(cache, ids, float(salt))
            assert_cache_quiescent(cache)
            for key, (row, _) in admitted.items():
                assert cache.rows[key] is row
            for key, row in cache.rows.items():
                admitted.setdefault(key, (row, salt))
            for key in ids:
                if key not in cache.rows:
                    assert row_nbytes(key) > capacity - cache.nbytes
        for key, (row, salt) in admitted.items():
            assert_batches_equal(_rows_to_batch([row]),
                                 make_batch([key], float(salt)))


# ---------------------------------------------------------------------------
# NeighborFetchService over stub RRefs (thread-future path)
# ---------------------------------------------------------------------------

class TestFetchService:
    def test_local_and_delegated_surface(self):
        svc, calls, _, _ = make_service()
        assert svc.n_shards == 2 and svc.shard_id == 0
        assert svc.compress and svc.is_local(0) and not svc.is_local(1)
        svc.get_neighbor_infos(0, np.array([1, 2]))  # local: the raw path
        assert calls[0][0] == 0
        assert np.array_equal(calls[0][1], np.array([1, 2]))

    def test_miss_then_hot_is_bitwise_identical(self):
        svc, calls, cache, metrics = make_service()
        ids = np.array([5, 6, 7], dtype=np.int64)
        first = svc.get_neighbor_infos(1, ids).value()
        assert len(calls) == 1
        second = svc.get_neighbor_infos(1, ids).value()
        assert len(calls) == 1  # served entirely from the cache
        assert_batches_equal(first, second)
        assert_batches_equal(second, make_batch(ids))
        assert metrics.c["fetch.requests"] == 2
        assert metrics.c["fetch.misses"] == 3
        assert metrics.c["fetch.cache_hits"] == 3
        assert metrics.c["fetch.bytes_saved"] > 0
        assert len(cache.rows) == 3 and not cache.pending

    def test_pure_miss_passthrough_returns_raw_future(self):
        svc, calls, _, _ = make_service(capacity=0, split=False,
                                          coalesce=False)
        ids = np.array([1, 2], dtype=np.int64)
        fut = svc.get_neighbor_infos(1, ids)
        assert fut.done
        assert_batches_equal(fut.value(), make_batch(ids))
        # with every mechanism off the storage future passes through as-is
        assert isinstance(fut, ThreadFuture)

    def test_coalescing_dedups_overlapping_flights(self):
        svc, calls, cache, metrics = make_service()
        f1 = svc.get_neighbor_infos(1, np.array([5, 6, 7]))
        f2 = svc.get_neighbor_infos(1, np.array([6, 7, 8]))
        # second request only fetched the one genuinely new node
        assert [list(ids) for _, ids in calls] == [[5, 6, 7], [8]]
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
        svc, calls, _, metrics = make_service(coalesce=False)
        svc.get_neighbor_infos(1, np.array([5, 6]))
        svc.get_neighbor_infos(1, np.array([5, 6]))
        assert len(calls) == 2
        assert metrics.c.get("fetch.coalesced", 0) == 0

    def test_mixed_hot_and_miss_merges_in_request_order(self):
        svc, calls, _, _ = make_service()
        svc.get_neighbor_infos(1, np.array([10, 11])).value()
        ids = np.array([12, 10, 13, 11], dtype=np.int64)
        out = svc.get_neighbor_infos(1, ids).value()
        assert list(calls[-1][1]) == [12, 13]  # only the misses
        assert_batches_equal(out, make_batch(ids))
