"""Tests for GraphShard / VertexProp / NeighborBatch / ShardedGraph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError, ShardError
from repro.graph import CSRGraph, erdos_renyi, powerlaw_cluster
from repro.partition import HashPartitioner, MetisLitePartitioner, PartitionResult
from repro.rpc.serialization import payload_sizes
from repro.storage import build_shards
from repro.storage.neighbor_batch import NeighborBatch
from repro.storage.shard_update import ShardUpdate


def figure2_graph():
    """The paper's Figure 2 example: 5 nodes, 2 shards.

    Shard 0 cores: globals {0, 1, 2}; shard 1 cores: globals {3, 4}.
    Edges (undirected, weighted): 0-1 (1), 0-2 (2), 1-2 (1), 2-3 (3),
    1-3 (1), 3-4 (2).
    """
    g = CSRGraph.from_edges(
        5,
        [0, 0, 1, 2, 1, 3],
        [1, 2, 2, 3, 3, 4],
        [1.0, 2.0, 1.0, 3.0, 1.0, 2.0],
    )
    assignment = np.array([0, 0, 0, 1, 1])
    return g, PartitionResult(assignment, 2)


class TestBuildShards:
    def test_core_nodes_partitioned(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        np.testing.assert_array_equal(sg.shards[0].core_global, [0, 1, 2])
        np.testing.assert_array_equal(sg.shards[1].core_global, [3, 4])

    def test_local_ids_are_ranks(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        ids = sg.nodes_of([0, 1, 2, 3, 4])
        shard = sg.owner_of(ids)
        np.testing.assert_array_equal(ids - sg.base[shard], [0, 1, 2, 0, 1])
        np.testing.assert_array_equal(shard, [0, 0, 0, 1, 1])

    def test_halo_nodes(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        # Shard 0's halo: global 3 (reached from nodes 1 and 2).
        np.testing.assert_array_equal(
            sg.globals_of(sg.shards[0].halo_nodes()), [3])
        # Shard 1's halo: globals 1 and 2.
        np.testing.assert_array_equal(
            sg.globals_of(sg.shards[1].halo_nodes()), [1, 2])

    def test_neighbor_arrays_reference_owner_addresses(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        rows = sg.shards[0].rows
        # Core node global 2 (row 2): neighbors are 0, 1 (local) and 3
        # (halo, owned by shard 1 where it is the first id).
        s, e = rows.indptr[2], rows.indptr[3]
        np.testing.assert_array_equal(sg.globals_of(rows.ids[s:e]), [0, 1, 3])
        np.testing.assert_array_equal(sg.owner_of(rows.ids[s:e]), [0, 0, 1])
        np.testing.assert_array_equal(rows.ids[s:e], [0, 1, sg.base[1]])

    def test_weighted_degrees_cached_for_halos(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        # core node global 2: its third neighbor is global 3, whose
        # weighted degree is 3 + 1 + 2 = 6, read through a fetch
        wdeg = sg.shards[0].get_neighbor_batch(sg.nodes_of([2])).to_arrays()[3]
        assert wdeg[2] == pytest.approx(6.0)

    def test_core_wdeg_matches_graph(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        for shard in sg.shards:
            np.testing.assert_allclose(
                shard.source_weighted_degrees(sg.nodes_of(shard.core_global)),
                g.weighted_degrees[shard.core_global]
            )

    def test_shards_cover_all_arcs(self):
        g = powerlaw_cluster(400, 8, seed=0)
        res = HashPartitioner().partition(g, 3)
        sg = build_shards(g, res)
        assert sum(s.n_entries for s in sg.shards) == g.n_arcs

    def test_size_mismatch_rejected(self):
        g, _ = figure2_graph()
        with pytest.raises(ShardError, match="covers"):
            build_shards(g, PartitionResult(np.zeros(3, dtype=int), 1))

    def test_memory_multiplier_about_1_5x(self):
        """Paper: preprocessed shards cost ~1.5x the raw weighted CSR."""
        g = powerlaw_cluster(2000, 10, seed=1)
        raw = g.indices.nbytes + g.weights.nbytes + g.indptr.nbytes
        sg = build_shards(g, HashPartitioner().partition(g, 4))
        ratio = sg.total_memory_nbytes() / raw
        assert 1.2 < ratio < 3.0

    def test_describe(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        d = sg.describe()
        assert d[0]["n_core"] == 3
        assert d[0]["n_halo"] == 1


class TestAddressTranslation:
    def test_roundtrip(self):
        g = powerlaw_cluster(300, 6, seed=2)
        sg = build_shards(g, MetisLitePartitioner(seed=0).partition(g, 3))
        gids = np.arange(300)
        ids = sg.nodes_of(gids)
        np.testing.assert_array_equal(np.sort(ids), gids)  # a permutation
        np.testing.assert_array_equal(sg.globals_of(ids), gids)

    def test_keys_roundtrip(self):
        g = powerlaw_cluster(200, 6, seed=3)
        sg = build_shards(g, HashPartitioner().partition(g, 4))
        gids = np.array([0, 5, 17, 199])
        np.testing.assert_array_equal(
            sg.globals_of(sg.nodes_of(gids)), gids
        )

    def test_out_of_range(self):
        g, res = figure2_graph()
        sg = build_shards(g, res)
        with pytest.raises(ShardError):
            sg.nodes_of([99])
        with pytest.raises(ShardError):
            sg.nodes_of([-1])
        with pytest.raises(ShardError):
            sg.globals_of([99])
        with pytest.raises(ShardError):
            sg.globals_of([-1])


#: a partition of 12-40 nodes into 1-4 parts: arbitrary, or everything on
#: one part (every other shard empty)
assignments = st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k),
    st.one_of(
        st.lists(st.integers(0, k - 1), min_size=12, max_size=40),
        st.tuples(st.integers(0, k - 1), st.integers(12, 40)).map(
            lambda t: [t[0]] * t[1]),
    )))


def check_address_book(sg):
    """The contiguous-range book: what every layer below the facade
    assumes about node ids."""
    n, assignment = sg.graph.n_nodes, sg.result.assignment
    # ranges are contiguous, ordered and sized like the parts
    assert sg.base[0] == 0 and sg.base[-1] == n
    np.testing.assert_array_equal(
        np.diff(sg.base), np.bincount(assignment, minlength=sg.n_shards))
    # the two permutations invert each other
    gids = np.arange(n)
    ids = sg.nodes_of(gids)
    np.testing.assert_array_equal(np.sort(ids), gids)
    np.testing.assert_array_equal(sg.globals_of(ids), gids)
    # the id alone names the owner
    np.testing.assert_array_equal(
        np.searchsorted(sg.base, ids, side="right") - 1, assignment)
    np.testing.assert_array_equal(sg.owner_of(ids), assignment)
    for p, shard in enumerate(sg.shards):
        lo, hi = int(sg.base[p]), int(sg.base[p + 1])
        # rank inside a shard is ascending caller id
        core = sg.globals_of(np.arange(lo, hi))
        np.testing.assert_array_equal(core, np.flatnonzero(assignment == p))
        np.testing.assert_array_equal(shard.core_global, core)
        # one past the range (and one before it) is never another row
        for bad in (hi, lo - 1):
            ids = np.array([bad], dtype=np.int64)
            for fetch in (shard.get_neighbor_batch, shard.get_vertex_props,
                          shard.source_weighted_degrees):
                with pytest.raises(ShardError, match="out of range"):
                    fetch(ids)
            one_row = NeighborBatch(np.array([0, 0]), np.empty(0, np.int64),
                                    np.empty(0), np.empty(0), np.zeros(1))
            with pytest.raises(ShardError, match="out of range"):
                shard.stage_updates(
                    1, ShardUpdate(ids, one_row, ids, one_row))


class TestAddressBookProperties:
    @given(case=assignments, seed=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_any_assignment(self, case, seed):
        k, assignment = case
        g = erdos_renyi(len(assignment), 3, seed=seed)
        check_address_book(
            build_shards(g, PartitionResult(np.array(assignment), k)))

    @given(case=assignments, seed=st.integers(0, 5), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_after_moves(self, case, seed, data):
        """A rebalance re-issues every range: the moved book is as valid
        as the first one (a relabel epoch)."""
        k, assignment = case
        g = erdos_renyi(len(assignment), 3, seed=seed)
        result = PartitionResult(np.array(assignment), k)
        moves = data.draw(st.dictionaries(
            st.integers(0, len(assignment) - 1), st.integers(0, k - 1),
            max_size=4))
        try:
            moved = result.with_moves(moves)
        except PartitionError:  # would leave a part empty: not a plan
            return
        check_address_book(build_shards(g, moved))


class TestShardFetch:
    @pytest.fixture()
    def sharded(self):
        g, res = figure2_graph()
        return build_shards(g, res, seed=42)

    def test_vertex_props_zero_copy(self, sharded):
        s0 = sharded.shards[0]
        prop = s0.get_vertex_props(np.array([1, 2]))
        assert prop.n_sources == 2
        indptr, ids, w, wdeg, _ = prop.to_arrays()
        # node global 1: neighbors 0, 2, 3
        np.testing.assert_array_equal(
            sharded.globals_of(ids[indptr[0]:indptr[1]]), [0, 2, 3])
        # one ascending run of rows: views that share memory with the shard
        assert ids.base is s0.rows.ids or ids is s0.rows.ids

    def test_vertex_prop_to_arrays_matches_batch(self, sharded):
        s0 = sharded.shards[0]
        ids = np.array([0, 2])
        prop_arrays = s0.get_vertex_props(ids).to_arrays()
        batch_arrays = s0.get_neighbor_batch(ids).to_arrays()
        for a, b in zip(prop_arrays, batch_arrays):
            np.testing.assert_array_equal(a, b)

    def test_neighbor_lists_matches_batch(self, sharded):
        s0 = sharded.shards[0]
        ids = np.array([0, 1, 2])
        lists_arrays = s0.get_neighbor_lists(ids).to_arrays()
        batch_arrays = s0.get_neighbor_batch(ids).to_arrays()
        for a, b in zip(lists_arrays, batch_arrays):
            np.testing.assert_array_equal(a, b)

    def test_single(self, sharded):
        s1 = sharded.shards[1]
        # global 3 (first id of shard 1): neighbors 1, 2, 4
        resp = s1.get_single(int(sharded.base[1]))
        indptr, ids, w, wdeg, src_wdeg = resp.to_arrays()
        np.testing.assert_array_equal(sharded.globals_of(ids), [1, 2, 4])
        assert src_wdeg[0] == pytest.approx(6.0)

    def test_out_of_range_ids_rejected(self, sharded):
        with pytest.raises(ShardError, match="out of range"):
            sharded.shards[0].get_vertex_props(np.array([7]))
        with pytest.raises(ShardError, match="out of range"):
            sharded.shards[0].get_neighbor_batch(np.array([-1]))
        # an id another shard owns is an error, never another node's row
        with pytest.raises(ShardError, match="out of range"):
            sharded.shards[1].get_neighbor_batch(np.array([0]))

    def test_out_of_range_message_names_the_range(self, sharded):
        s1 = sharded.shards[1]  # owns ids [3, 5)
        for ids, shown in (([3, -2, 4], "[-2, 4]"),   # a negative id
                           ([4, 5], "[4, 5]"),        # hi itself
                           ([9, 3], "[3, 9]"),        # past hi
                           ([-1, 9], "[-1, 9]")):     # both ends
            with pytest.raises(ShardError) as exc:
                s1.get_neighbor_batch(np.array(ids))
            assert str(exc.value) == \
                f"ids out of range for shard 1 [3, 5): {shown}"
        # the bounds themselves are in range
        assert s1.get_neighbor_batch(np.array([3, 4])).n_sources == 2

    def test_compressed_payload_constant_tensors(self, sharded):
        s0 = sharded.shards[0]
        small = s0.get_neighbor_batch(np.array([0]))
        big = s0.get_neighbor_batch(np.array([0, 1, 2]))
        assert payload_sizes(small)[1] == payload_sizes(big)[1] == 5

    def test_uncompressed_payload_grows_with_batch(self, sharded):
        s0 = sharded.shards[0]
        small = s0.get_neighbor_lists(np.array([0]))
        big = s0.get_neighbor_lists(np.array([0, 1, 2]))
        assert payload_sizes(small)[1] == 4   # 3 tensors + src_wdeg
        assert payload_sizes(big)[1] == 10    # 9 tensors + src_wdeg

    def test_empty_request(self, sharded):
        s0 = sharded.shards[0]
        batch = s0.get_neighbor_batch(np.array([], dtype=np.int64))
        assert batch.n_sources == 0
        assert batch.n_entries == 0

    def test_sample_one_neighbor_valid(self, sharded):
        s0 = sharded.shards[0]
        for step in range(10):
            nxt = s0.sample_one_neighbor(np.array([1]), salt=step)
            # node global 1's neighbors: 0, 2 (shard 0), 3 (shard 1)
            ng = sharded.globals_of(nxt)
            assert ng[0] in (0, 2, 3)
            expected_shard = 1 if ng[0] == 3 else 0
            assert sharded.owner_of(nxt)[0] == expected_shard

    def test_sample_isolated_node_stays(self):
        g = CSRGraph.from_edges(3, [0], [1])  # node 2 isolated
        sg = build_shards(g, PartitionResult(np.zeros(3, dtype=int), 1), seed=0)
        nxt = sg.shards[0].sample_one_neighbor(np.array([2]), salt=0)
        assert nxt[0] == 2


class TestShardProperties:
    @given(n=st.integers(20, 120), k=st.integers(1, 4), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_shard_reconstruction_equals_graph(self, n, k, seed):
        """Concatenating all shards' rows reproduces the original graph."""
        g = erdos_renyi(n, 5, seed=seed)
        sg = build_shards(g, HashPartitioner().partition(g, k))
        seen_arcs = 0
        for shard in sg.shards:
            rows = shard.rows
            for i, gid in enumerate(shard.core_global):
                s, e = rows.indptr[i], rows.indptr[i + 1]
                np.testing.assert_array_equal(
                    sg.globals_of(rows.ids[s:e]), g.neighbors(gid)
                )
                np.testing.assert_allclose(
                    rows.weights[s:e], g.neighbor_weights(gid)
                )
                seen_arcs += e - s
        assert seen_arcs == g.n_arcs

    @given(n=st.integers(20, 120), k=st.integers(2, 4), seed=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_halo_addressing_consistent(self, n, k, seed):
        """Every neighbor entry's id resolves to a row of its owner whose
        core node is the neighbor (and whose degree is the cached one)."""
        g = erdos_renyi(n, 5, seed=seed)
        sg = build_shards(g, HashPartitioner().partition(g, k))
        for shard in sg.shards:
            if shard.n_entries == 0:
                continue
            ids = shard.rows.ids
            # the degree each entry reports through a fetch of every row
            wdeg = shard.get_vertex_props(
                np.arange(sg.base[shard.shard_id],
                          sg.base[shard.shard_id + 1])).to_arrays()[3]
            owner = sg.owner_of(ids)
            for p in np.unique(owner).tolist():
                mine = owner == p
                rows = ids[mine] - sg.base[p]
                np.testing.assert_array_equal(
                    sg.shards[p].core_global[rows], sg.globals_of(ids[mine]))
                np.testing.assert_array_equal(
                    sg.shards[p].source_weighted_degrees(ids[mine]),
                    wdeg[mine])
