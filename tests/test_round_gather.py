"""One gather per fetched row: row-selection responses, the round gather
behind ``MultiSSPPR.push``, and slice routing.

* **Selections price as the batch they name** (hypothesis): a remote
  response (``get_neighbor_batch`` / ``get_cached_batch``) names arena
  rows; its ``payload_sizes``, buffer-pool staging and ``to_arrays()``
  equal those of the batch ``take_rows`` gathers from the same rows —
  empty, one row, an ascending run, strided and unsorted row sets.
* **The server gathers nothing**: no entry-sized array is reachable from a
  response except the arena's own.
* **One round gather** (``gather_rows``): a push over a round's responses
  equals a push over their rows concatenated first, bitwise, for B = 1
  and B = 3 with local, remote and halo-cache responses.
* **Slice routing**: ``shard_masks`` over ascending ids is one run per
  shard, the same ids in the same order as the argsort path's index
  arrays; unsorted ids still route by index arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import erdos_renyi, powerlaw_cluster
from repro.partition import HashPartitioner
from repro.ppr import PPRParams
from repro.ppr.multi_query import MultiSSPPR
from repro.rpc.serialization import BufferPool, payload_sizes
from repro.storage import build_shards
from repro.storage.dist_storage import shard_masks
from repro.storage.neighbor_batch import NeighborBatch
from repro.storage.vertex_prop import gather_rows

GRAPH = powerlaw_cluster(240, 5, mixing=0.4, seed=7)
SHARDED = build_shards(GRAPH, HashPartitioner().partition(GRAPH, 3),
                       halo_hops=2)
SHARD = SHARDED.shards[1]
LO = int(SHARDED.base[1])


def _row_sets(n):
    """Row sets over ``range(n)``: empty, one row, an ascending run,
    strided, and unsorted (with repeats)."""
    rows = st.integers(0, n - 1)
    return st.one_of(
        st.just([]),
        rows.map(lambda r: [r]),
        st.tuples(rows, st.integers(1, 20)).map(
            lambda t: list(range(t[0], min(t[0] + t[1], n)))),
        st.tuples(rows, st.integers(2, 5)).map(
            lambda t: list(range(t[0], n, t[1]))[:15]),
        st.lists(rows, min_size=2, max_size=15),
    ).map(lambda r: np.array(r, dtype=np.int64))


def _assert_arrays_bitwise(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


def _staged(response):
    pool = BufferPool()
    return pool.stage(response), pool.stage(response), pool.nbytes()


class TestSelectionPricesAsTheGatheredBatch:
    @given(rows=_row_sets(SHARD.n_core))
    @settings(max_examples=60, deadline=None)
    def test_neighbor_batch(self, rows):
        response = SHARD.get_neighbor_batch(LO + rows)
        gathered = SHARD.rows.take_rows(rows)
        assert payload_sizes(response) == payload_sizes(gathered)
        assert list(response.rpc_tensors()) == list(gathered.rpc_tensors())
        assert _staged(response) == _staged(gathered)
        assert response.n_sources == gathered.n_sources
        assert response.n_entries == gathered.n_entries
        _assert_arrays_bitwise(response.to_arrays(), gathered.to_arrays())

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cached_batch(self, data):
        halo_ids = SHARD.halo_ids
        pos = data.draw(_row_sets(len(halo_ids)))
        response = SHARD.get_cached_batch(halo_ids[pos])
        gathered = SHARD.halo.take_rows(pos)
        assert payload_sizes(response) == payload_sizes(gathered)
        assert _staged(response) == _staged(gathered)
        _assert_arrays_bitwise(response.to_arrays(), gathered.to_arrays())


def _arrays_reachable(obj, seen=None):
    """Every ndarray reachable from ``obj``'s attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays_reachable(item, seen)]
    names = list(getattr(obj, "__dict__", {}))
    for klass in type(obj).__mro__:
        names += list(getattr(klass, "__slots__", ()))
    return [a for name in names if hasattr(obj, name)
            for a in _arrays_reachable(getattr(obj, name), seen)]


class TestServerGathersNothing:
    @pytest.mark.parametrize("step", [2, 3])
    def test_strided_rows_share_the_arena(self, step):
        rows = np.arange(0, SHARD.n_core, step)
        response = SHARD.get_neighbor_batch(LO + rows)
        arena = _arrays_reachable(SHARD.rows)  # its columns and degree table
        n_entries = response.n_entries
        assert n_entries > len(rows)
        for arr in _arrays_reachable(response):
            if len(arr) >= n_entries:
                assert any(np.shares_memory(arr, a) for a in arena)

    def test_cached_rows_share_the_cache(self):
        pos = np.arange(0, len(SHARD.halo_ids), 2)
        response = SHARD.get_cached_batch(SHARD.halo_ids[pos])
        halo = _arrays_reachable(SHARD.halo)
        for arr in _arrays_reachable(response):
            if len(arr) >= response.n_entries:
                assert any(np.shares_memory(arr, a) for a in halo)


def _concatenated(responses) -> NeighborBatch:
    """The rows of every response, in list order, copied part by part —
    the reference a round gather must equal."""
    arrays = [r.to_arrays() for r in responses]
    counts = np.concatenate([np.diff(a[0]) for a in arrays])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return NeighborBatch(indptr, *(np.concatenate([a[i] for a in arrays])
                                   for i in (1, 2, 3, 4)))


def _round_responses(ids):
    """A round as machine 0 would fetch it: its own rows (local), then per
    remote shard the halo-cached rows and the rest, remote shards in
    ascending order.  Returns ``(responses, ids in row order)``."""
    own = SHARDED.shards[0]
    responses, parts = [], []
    for j, mask in shard_masks(SHARDED.base, ids).items():
        part = ids[mask]
        if j == 0:
            responses.insert(0, own.get_vertex_props(part))
            parts.insert(0, part)
            continue
        cached = own.cache_mask(part)
        for pick, fetch in ((cached, own.get_cached_batch),
                            (~cached, SHARDED.shards[j].get_neighbor_batch)):
            if pick.any():
                responses.append(fetch(part[pick]))
                parts.append(part[pick])
    return responses, np.concatenate(parts)


class TestOneRoundGather:
    @pytest.mark.parametrize("n_queries", [1, 3])
    def test_push_over_responses_equals_push_over_their_concat(
            self, n_queries):
        params = PPRParams(epsilon=1e-4)
        sources = SHARDED.base[0] + np.arange(n_queries) * 5
        wdegs = SHARDED.shards[0].source_weighted_degrees(sources)
        fused, oracle = (MultiSSPPR(sources, params, wdegs,
                                    int(SHARDED.base[-1]))
                         for _ in range(2))
        halo = SHARDED.shards[0].halo
        kinds, cached, rounds = set(), 0, 0
        while True:
            ids = fused.pop()
            np.testing.assert_array_equal(ids, oracle.pop())
            if len(ids) == 0:
                break
            responses, row_ids = _round_responses(ids)
            kinds.update(type(r).__name__ for r in responses)
            cached += sum(r.arena is halo for r in responses)
            fused.push(responses, row_ids)
            oracle.push(_concatenated(responses), row_ids)
            n = len(oracle.map)
            np.testing.assert_array_equal(fused.map.keys(), oracle.map.keys())
            for name in ("residual", "ppr", "wdeg", "queued"):
                np.testing.assert_array_equal(
                    getattr(fused, name)[:n], getattr(oracle, name)[:n])
            assert fused.stats() == oracle.stats()
            rounds += 1
        assert rounds > 2
        # every response kind took part: local, remote, halo-cache
        assert kinds == {"VertexProp", "RowSelection"}
        assert cached > 0

    @given(n=st.integers(10, 80), seed=st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_gather_rows_is_the_rows_in_order(self, n, seed):
        """``gather_rows`` over one shard's responses in the three formats
        is the one batch over all their rows, in list order; a single
        response is its own ``to_arrays()``."""
        g = erdos_renyi(n, 4, seed=seed)
        sharded = build_shards(g, HashPartitioner().partition(g, 1))
        shard = sharded.shards[0]
        rng = np.random.default_rng(seed)
        parts = [rng.choice(shard.n_core, size=size, replace=False)
                 for size in (3, 0, 2, 4)]
        responses = [shard.get_vertex_props(parts[0]),
                     shard.get_neighbor_batch(parts[1]),
                     shard.get_neighbor_lists(parts[2]),
                     shard.get_neighbor_batch(parts[3])]
        want = shard.get_neighbor_batch(np.concatenate(parts)).to_arrays()
        _assert_arrays_bitwise(gather_rows(responses), want)
        _assert_arrays_bitwise(gather_rows(responses[:1]),
                               responses[0].to_arrays())


#: shard 1 and shard 3 own no id
BASE = np.array([0, 10, 10, 25, 25, 30], dtype=np.int64)


def _argsort_masks(base, ids):
    owner = np.searchsorted(base, ids, side="right") - 1
    return {j: np.flatnonzero(owner == j)
            for j in range(-1, len(base)) if (owner == j).any()}


class TestSliceRouting:
    @given(st.lists(st.integers(-3, 33), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_ascending_ids_route_as_runs(self, ids):
        ids = np.sort(np.asarray(ids, dtype=np.int64))
        got = shard_masks(BASE, ids)
        want = _argsort_masks(BASE, ids)
        assert list(got) == list(want)
        positions = np.arange(len(ids))
        for j, mask in got.items():
            assert isinstance(mask, slice)
            np.testing.assert_array_equal(positions[mask], want[j])
            assert np.shares_memory(ids[mask], ids)

    def test_single_shard_frontier_is_one_run(self):
        ids = np.arange(11, 20, dtype=np.int64)
        assert shard_masks(BASE, ids) == {2: slice(0, 9)}
        assert shard_masks(BASE, ids[:1]) == {2: slice(0, 1)}

    @given(st.lists(st.integers(-3, 33), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_unsorted_ids_route_by_index_arrays(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        got = shard_masks(BASE, ids)
        want = _argsort_masks(BASE, ids)
        assert list(got) == list(want)
        for j, mask in got.items():
            np.testing.assert_array_equal(np.arange(len(ids))[mask], want[j])
            owner = np.searchsorted(BASE, ids[mask], side="right") - 1
            assert (owner == j).all()
