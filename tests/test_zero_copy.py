"""The zero-copy read path: views are bitwise-equal to copies, guarded.

Three pillars:

* **Round-trip equivalence** (hypothesis): a view-backed
  :class:`NeighborBatch` — a fetch response's rows gathered through
  ``to_arrays()``, aliasing the shard's read-only CSC arena where they
  can — and its :meth:`materialize` copy stay bitwise identical
  through ``take_rows``, split + ``merge``, and the serialization cost
  model, for arbitrary id sets (contiguous runs take the slice fast
  path, scattered ids the gather fallback; both must agree).
* **Mutation guard**: the CSC arena and every view into it are
  read-only — an in-place write raises instead of silently corrupting
  outstanding responses; ``materialize()`` detaches.
* **Buffer pool**: the inventory-only pool matches the free-list pool it
  replaced (kept below as ``_FreeListPool``, the oracle) on random
  response traces; its counts are order-independent, its hit rate is
  monotone in request count, and pool bytes are folded into
  ``GraphShard.memory_nbytes``.  End-to-end, both runtimes must report
  bitwise-identical ``rpc.pool.*`` counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner
from repro.rpc.serialization import BufferPool, payload_sizes, size_class
from repro.storage import build_shards
from repro.storage.neighbor_batch import NeighborBatch


def make_shard(n=150, k=1, seed=9):
    g = powerlaw_cluster(n, 5, mixing=0.3, seed=seed)
    sharded = build_shards(g, HashPartitioner().partition(g, k))
    return sharded.shards[0]


SHARD = make_shard()

#: arbitrary non-empty sorted unique id sets within the shard
id_sets = st.sets(st.integers(min_value=0, max_value=SHARD.n_core - 1),
                  min_size=1, max_size=40).map(
                      lambda s: np.array(sorted(s), dtype=np.int64))

#: contiguous ascending runs (the slice fast path)
runs = st.tuples(
    st.integers(min_value=0, max_value=SHARD.n_core - 1),
    st.integers(min_value=1, max_value=30),
).map(lambda t: np.arange(t[0], min(t[0] + t[1], SHARD.n_core),
                          dtype=np.int64))


def gathered(response) -> NeighborBatch:
    """A fetch response's rows as a batch (views where ``take_rows``
    slices)."""
    return NeighborBatch(*response.to_arrays())


def assert_batches_bitwise_equal(a: NeighborBatch, b: NeighborBatch):
    for left, right in zip(a.to_arrays(), b.to_arrays()):
        assert left.dtype == right.dtype
        np.testing.assert_array_equal(left, right)


class TestViewCopyRoundTrip:
    @given(ids=st.one_of(runs, id_sets))
    @settings(max_examples=60, deadline=None)
    def test_materialize_is_bitwise_identical(self, ids):
        response = SHARD.get_neighbor_batch(ids)
        batch = gathered(response)
        mat = batch.materialize()
        assert_batches_bitwise_equal(batch, mat)
        # same modeled wire cost: the RPC byte counters cannot move
        assert payload_sizes(response) == payload_sizes(batch) \
            == payload_sizes(mat)
        # the copy owns its buffers; the view may alias the frozen arena
        for arr in mat.to_arrays():
            assert arr.flags.writeable

    @given(ids=runs)
    @settings(max_examples=30, deadline=None)
    def test_contiguous_fetch_aliases_the_arena(self, ids):
        batch = gathered(SHARD.get_neighbor_batch(ids))
        # the flat arrays are views into the arena, not copies
        assert batch.ids.base is not None
        assert np.shares_memory(batch.ids, SHARD.rows.ids) \
            or batch.n_entries == 0

    @given(rows=st.one_of(runs, id_sets, id_sets.map(lambda a: a[::-1])))
    @settings(max_examples=80, deadline=None)
    def test_take_rows_slice_and_gather_paths_agree(self, rows):
        """``NeighborBatch.take_rows`` is the storage layer's one
        slice-or-gather (local fetches, remote responses, halo-cache reads
        and coalescing extraction all call it): an ascending run comes
        back as views, anything else as a gather, and both are bitwise
        what a row-by-row copy produces."""
        arena = SHARD.rows
        got = arena.take_rows(rows)
        bounds = [(arena.indptr[r], arena.indptr[r + 1]) for r in rows]
        # every column as the arena's own read path reports it
        _, *columns, src_wdeg = arena.to_arrays()
        want = NeighborBatch(
            np.concatenate([[0], np.cumsum([e - s for s, e in bounds])]),
            *(np.concatenate([col[s:e] for s, e in bounds])
              for col in columns),
            src_wdeg[rows])
        assert_batches_bitwise_equal(got, want)
        is_run = bool(np.all(np.diff(rows) == 1))
        assert np.shares_memory(got.src_ids, arena.src_ids) == is_run
        # the same rows through the other path: a run read backwards is a
        # gather, and reversing the result restores the order
        back = arena.take_rows(rows[::-1]).take_rows(
            np.arange(len(rows))[::-1])
        assert_batches_bitwise_equal(back, want)

    @given(ids=st.one_of(runs, id_sets), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_take_rows_agrees_across_backings(self, ids, data):
        batch = gathered(SHARD.get_neighbor_batch(ids))
        mat = batch.materialize()
        n = batch.n_sources
        rows = data.draw(st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=1, max_size=n).map(
                lambda r: np.array(r, dtype=np.int64)))
        assert_batches_bitwise_equal(batch.take_rows(rows),
                                     mat.take_rows(rows))

    @given(ids=st.one_of(runs, id_sets), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_split_merge_round_trips(self, ids, data):
        batch = gathered(SHARD.get_neighbor_batch(ids))
        n = batch.n_sources
        # arbitrary permutation, arbitrary cut into parts
        perm = np.array(data.draw(st.permutations(range(n))),
                        dtype=np.int64)
        n_parts = data.draw(st.integers(min_value=1, max_value=min(n, 4)))
        cuts = np.array_split(perm, n_parts)
        parts = [(pos, batch.take_rows(pos)) for pos in cuts if len(pos)]
        merged = NeighborBatch.merge(n, parts)
        assert_batches_bitwise_equal(merged, batch)
        # and the merged batch round-trips through materialize too
        assert_batches_bitwise_equal(merged, merged.materialize())


class TestMutationGuard:
    def test_arena_is_read_only(self):
        shard = SHARD
        rows = shard.rows
        for arr in (rows.indptr, rows.ids, rows.weights, rows.src_ids,
                    rows.degrees, shard.core_global):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_view_backed_batch_rejects_writes(self):
        batch = gathered(SHARD.get_neighbor_batch(
            np.arange(10, dtype=np.int64)))
        with pytest.raises(ValueError):
            batch.ids[0] = 99
        with pytest.raises(ValueError):
            batch.weights[0] = 0.5

    def test_materialized_batch_is_writable_and_detached(self):
        batch = gathered(SHARD.get_neighbor_batch(
            np.arange(10, dtype=np.int64)))
        mat = batch.materialize()
        if mat.n_entries:
            before = int(batch.ids[0])
            mat.ids[0] = before + 1  # must not raise
            assert int(batch.ids[0]) == before  # view untouched

    def test_halo_cache_views_are_read_only(self):
        g = powerlaw_cluster(200, 5, mixing=0.4, seed=11)
        sharded = build_shards(g, HashPartitioner().partition(g, 2),
                               halo_hops=2)
        shard = sharded.shards[0]
        assert shard.has_halo_cache
        batch = gathered(shard.get_cached_batch(shard.halo_ids[:1]))
        with pytest.raises(ValueError):
            batch.ids[:] = -1


class _FreeListPool:
    """The pool as it was before it kept only its inventory: free lists
    beside the inventory, every tensor borrowed and returned one by one,
    its own counters.  The oracle of :class:`TestBufferPool`."""

    def __init__(self):
        self._free = {}
        self._inventory = {}
        self.requests = self.hits = self.misses = self.bytes_reused = 0

    def stage(self, result):
        from repro.rpc.serialization import _walk

        tensors = []
        _walk(result, tensors)
        borrowed = []
        hits = reused = 0
        for dtype, nbytes in tensors:
            key = (dtype, size_class(nbytes))
            free = self._free.get(key, 0)
            if free:
                self._free[key] = free - 1
                hits += 1
                reused += key[1]
            else:
                self._inventory[key] = self._inventory.get(key, 0) + 1
            borrowed.append(key)
        for key in borrowed:
            self._free[key] = self._free.get(key, 0) + 1
        n = len(borrowed)
        self.requests += n
        self.hits += hits
        self.misses += n - hits
        self.bytes_reused += reused
        return n, hits, reused

    def nbytes(self):
        return sum(cls * count for (_, cls), count in self._inventory.items())


def _staged(pool, responses):
    """Stage ``responses`` in order; the summed ``(requests, hits,
    misses, bytes_reused)``."""
    requests = hits = reused = 0
    for r in responses:
        n, h, b = pool.stage(r)
        requests, hits, reused = requests + n, hits + h, reused + b
    return requests, hits, requests - hits, reused


_DTYPES = (np.int64, np.int32, np.float64, np.float32)
_responses = st.lists(
    st.lists(st.tuples(st.sampled_from(_DTYPES),
                       st.integers(min_value=0, max_value=300)),
             max_size=6),
    max_size=12)


class TestBufferPool:
    def batch(self, lo, hi):
        return SHARD.get_neighbor_batch(np.arange(lo, hi, dtype=np.int64))

    @settings(max_examples=100, deadline=None)
    @given(_responses)
    def test_matches_the_free_list_pool(self, trace):
        pool, oracle = BufferPool(), _FreeListPool()
        for shapes in trace:
            response = [np.zeros(n, dtype=dt) for dt, n in shapes]
            assert pool.stage(response) == oracle.stage(response)
            assert pool.nbytes() == oracle.nbytes()
        assert pool.stage(self.batch(0, 20)) == \
            oracle.stage(self.batch(0, 20))

    def test_first_response_all_misses_then_all_hits(self):
        pool = BufferPool()
        b = self.batch(0, 20)
        assert pool.stage(b) == (5, 0, 0)
        inventory = pool.nbytes()
        requests, hits, _ = pool.stage(b)
        assert requests == hits == 5
        assert pool.nbytes() == inventory  # steady state: no growth

    def test_response_without_tensors_stages_nothing(self):
        pool = BufferPool()
        assert pool.stage({"n": 3, "tag": "x"}) == (0, 0, 0)
        assert pool.nbytes() == 0

    def test_hit_rate_monotone_in_request_count(self):
        rates = []
        for n_responses in (1, 2, 4, 8):
            requests, hits, _, _ = _staged(
                BufferPool(), [self.batch(0, 20)] * n_responses)
            rates.append(hits / requests)
        assert rates == sorted(rates)
        assert rates[-1] > 0.8

    def test_counters_are_order_independent(self):
        responses = [self.batch(0, 5), self.batch(0, 40),
                     self.batch(10, 20), self.batch(0, 40)]
        fwd, rev = BufferPool(), BufferPool()
        assert _staged(fwd, responses) == _staged(rev, responses[::-1])
        assert fwd.nbytes() == rev.nbytes()

    def test_size_class_shape(self):
        assert size_class(1) == 64
        assert size_class(64) == 64
        assert size_class(65) == 128
        assert size_class(8000) == 8192
        for n in (1, 63, 64, 65, 1000, 4096, 4097):
            cls = size_class(n)
            assert cls >= n and cls >= 64
            assert cls & (cls - 1) == 0  # power of two

    def test_memory_nbytes_includes_attached_pool(self):
        shard = make_shard(n=80, seed=3)
        base = shard.memory_nbytes()
        pool = BufferPool()
        shard.attach_pool(pool)
        assert shard.memory_nbytes() == base
        pool.stage(shard.get_neighbor_batch(np.arange(30, dtype=np.int64)))
        assert pool.nbytes() > 0
        assert shard.memory_nbytes() == base + pool.nbytes()


class TestRpcBoundaryBothRuntimes:
    @pytest.fixture(scope="class")
    def engine(self):
        graph = powerlaw_cluster(400, 5, mixing=0.3, seed=21)
        return GraphEngine(graph, EngineConfig(n_machines=2))

    def test_pool_counters_bitwise_identical_across_runtimes(self, engine):
        from repro.serving.session import Session, SessionConfig

        request = RunRequest(n_queries=6, seed=4, keep_states=True)
        sim = engine.run(request)
        thr = Session(engine, SessionConfig(runtime="threads")).run(request)
        pool_keys = [k for k in sim.metrics if k.startswith("rpc.pool.")]
        assert "rpc.pool.requests" in pool_keys
        assert "rpc.pool.hits" in pool_keys
        for key in pool_keys:
            assert sim.metrics[key] == thr.metrics.get(key), key
        # deterministic RPC byte counters did not move either
        assert sim.metrics["rpc.response_bytes"] == \
            thr.metrics["rpc.response_bytes"]

    def test_results_identical_across_runtimes(self, engine):
        from repro.serving.session import Session, SessionConfig

        request = RunRequest(n_queries=6, seed=4, keep_states=True)
        sim = engine.run(request)
        thr = Session(engine, SessionConfig(runtime="threads")).run(request)
        n = engine.graph.n_nodes
        for gid in sim.states:
            np.testing.assert_array_equal(
                sim.states[gid].dense_result(engine.sharded, n),
                thr.states[gid].dense_result(engine.sharded, n))
