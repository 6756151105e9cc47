"""Tests for the partitioning package (base, quality, all partitioners)."""

import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph import (CSRGraph, complete_graph, erdos_renyi, load_dataset,
                         path_graph, powerlaw_cluster)
from repro.partition import (
    BfsPartitioner,
    HashPartitioner,
    MetisLitePartitioner,
    PartitionResult,
    RandomPartitioner,
    balance,
    edge_cut_fraction,
    partition_quality,
)
from repro.partition import coarsen
from repro.partition.coarsen import (CoarseLevel, coarsen_to, contract,
                                     heaviest_neighbor, match_mutual)
from repro.partition.refine import connectivity_matrix, refine


class TestPartitionResult:
    def test_basic(self):
        r = PartitionResult(np.array([0, 1, 0, 1]), 2)
        np.testing.assert_array_equal(r.part_sizes(), [2, 2])
        np.testing.assert_array_equal(r.nodes_of(1), [1, 3])
        assert r.nonempty()

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionError):
            PartitionResult(np.array([0, 2]), 2)
        with pytest.raises(PartitionError):
            PartitionResult(np.array([-1]), 2)

    def test_empty_part_detected(self):
        r = PartitionResult(np.array([0, 0]), 2)
        assert not r.nonempty()

    def test_bad_part_lookup(self):
        r = PartitionResult(np.array([0]), 1)
        with pytest.raises(PartitionError):
            r.nodes_of(5)

    def test_invalid_nparts(self):
        with pytest.raises(PartitionError):
            PartitionResult(np.array([0]), 0)


class TestQualityMetrics:
    def test_edge_cut_all_local(self):
        g = path_graph(4)
        r = PartitionResult(np.zeros(4, dtype=int), 1)
        assert edge_cut_fraction(g, r) == 0.0

    def test_edge_cut_one_edge(self):
        g = path_graph(4)  # arcs: 0-1,1-2,2-3 (x2)
        r = PartitionResult(np.array([0, 0, 1, 1]), 2)
        assert edge_cut_fraction(g, r) == pytest.approx(2 / 6)

    def test_edge_cut_size_mismatch(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="covers"):
            edge_cut_fraction(g, PartitionResult(np.zeros(3, dtype=int), 1))

    def test_balance_perfect(self):
        r = PartitionResult(np.array([0, 1, 0, 1]), 2)
        assert balance(r) == pytest.approx(1.0)

    def test_balance_skewed(self):
        r = PartitionResult(np.array([0, 0, 0, 1]), 2)
        assert balance(r) == pytest.approx(1.5)

    def test_partition_quality_summary(self):
        g = path_graph(4)
        q = partition_quality(g, PartitionResult(np.array([0, 0, 1, 1]), 2))
        assert q.n_parts == 2
        assert q.min_part == 2 and q.max_part == 2


class TestBaselinePartitioners:
    def test_hash_deterministic(self):
        g = path_graph(10)
        r1 = HashPartitioner().partition(g, 3)
        r2 = HashPartitioner().partition(g, 3)
        np.testing.assert_array_equal(r1.assignment, r2.assignment)

    def test_random_balanced(self):
        g = erdos_renyi(300, 4, seed=0)
        r = RandomPartitioner(seed=1).partition(g, 3)
        assert balance(r) == pytest.approx(1.0)
        assert r.nonempty()

    def test_random_reproducible_with_seed(self):
        g = path_graph(20)
        a = RandomPartitioner(seed=9).partition(g, 4).assignment
        b = RandomPartitioner(seed=9).partition(g, 4).assignment
        np.testing.assert_array_equal(a, b)

    def test_too_many_parts_rejected(self):
        g = path_graph(3)
        for p in (RandomPartitioner(), HashPartitioner(), BfsPartitioner(),
                  MetisLitePartitioner()):
            with pytest.raises(PartitionError):
                p.partition(g, 10)

    def test_zero_parts_rejected(self):
        g = path_graph(3)
        with pytest.raises(PartitionError):
            RandomPartitioner().partition(g, 0)


class TestBfsPartitioner:
    def test_two_cliques_separated(self):
        # Two 10-cliques joined by a single edge: the obvious min cut.
        import scipy.sparse as sp
        from repro.graph import CSRGraph
        a = complete_graph(10).to_scipy()
        block = sp.block_diag([a, a]).tolil()
        block[0, 10] = 1.0
        block[10, 0] = 1.0
        g = CSRGraph.from_scipy(block.tocsr())
        r = BfsPartitioner(seed=0).partition(g, 2)
        cut = edge_cut_fraction(g, r)
        assert cut <= 0.05
        assert r.nonempty()

    def test_disconnected_components_assigned(self):
        from repro.graph import CSRGraph
        g = CSRGraph.from_edges(6, [0, 1, 3, 4], [1, 2, 4, 5])
        r = BfsPartitioner(seed=0).partition(g, 2)
        assert r.nonempty()
        assert len(r.assignment) == 6


class TestCoarsening:
    def test_match_mutual_valid_matching(self):
        g = powerlaw_cluster(200, 6, seed=0)
        mate = match_mutual(g)
        matched = np.flatnonzero(mate >= 0)
        # involution: mate[mate[v]] == v
        np.testing.assert_array_equal(mate[mate[matched]], matched)
        # nobody matched to self
        assert np.all(mate[matched] != matched)

    def test_match_shrinks_graph(self):
        g = powerlaw_cluster(500, 8, seed=1)
        mate = match_mutual(g)
        assert np.count_nonzero(mate >= 0) > 0.3 * g.n_nodes

    def test_contract_preserves_total_node_weight(self):
        g = powerlaw_cluster(300, 6, seed=2)
        mate = match_mutual(g)
        level = contract(g, np.ones(g.n_nodes), mate)
        assert level.node_weights.sum() == pytest.approx(g.n_nodes)
        assert level.graph.n_nodes == len(level.node_weights)

    def test_contract_preserves_cut_weight_lower_bound(self):
        """Total edge weight can only shrink (internal edges vanish)."""
        g = powerlaw_cluster(300, 6, seed=3)
        mate = match_mutual(g)
        level = contract(g, np.ones(g.n_nodes), mate)
        assert level.graph.weights.sum() <= g.weights.sum() + 1e-9

    def test_fine_to_coarse_maps_everything(self):
        g = powerlaw_cluster(300, 6, seed=4)
        mate = match_mutual(g)
        level = contract(g, np.ones(g.n_nodes), mate)
        assert len(level.fine_to_coarse) == g.n_nodes
        assert level.fine_to_coarse.max() == level.graph.n_nodes - 1

    def test_coarsen_to_hierarchy(self):
        g = powerlaw_cluster(2000, 8, seed=5)
        levels = coarsen_to(g, 200)
        assert levels[0].graph.n_nodes == 2000
        sizes = [lv.graph.n_nodes for lv in levels]
        assert all(sizes[i] > sizes[i + 1] for i in range(len(sizes) - 1))
        assert sizes[-1] <= 2000  # made progress or stopped cleanly


def _lexsort_heaviest_neighbor(graph, eligible):
    """The 3-key arc sort ``heaviest_neighbor`` used to be: the oracle."""
    n = graph.n_nodes
    proposal = np.full(n, -1, dtype=np.int64)
    if graph.n_arcs == 0:
        return proposal
    row = np.repeat(np.arange(n), np.diff(graph.indptr))
    col = graph.indices
    w = graph.weights
    mask = eligible[row] & eligible[col]
    if not mask.any():
        return proposal
    row, col, w = row[mask], col[mask], w[mask]
    # Sort by (row, weight, col); the last entry per row is the proposal.
    order = np.lexsort((col, w, row))
    row, col = row[order], col[order]
    last = np.empty(len(row), dtype=bool)
    last[-1] = True
    last[:-1] = row[1:] != row[:-1]
    proposal[row[last]] = col[last]
    return proposal


def _gather_contract(graph, node_weights, mate):
    """``contract`` as it was: int64 gathers, ``np.add.at``, ``from_scipy``."""
    n = graph.n_nodes
    rep = np.arange(n)
    matched = mate >= 0
    rep[matched] = np.minimum(rep[matched], mate[matched])
    reps, fine_to_coarse = np.unique(rep, return_inverse=True)
    n_coarse = len(reps)
    coarse_weights = np.zeros(n_coarse)
    np.add.at(coarse_weights, fine_to_coarse, node_weights)
    if graph.n_arcs:
        row = fine_to_coarse[np.repeat(np.arange(n), np.diff(graph.indptr))]
        col = fine_to_coarse[graph.indices]
        keep = row != col
        adj = sp.coo_matrix(
            (graph.weights[keep], (row[keep], col[keep])),
            shape=(n_coarse, n_coarse),
        ).tocsr()
        adj.sum_duplicates()
        coarse = CSRGraph.from_scipy(adj)
    else:
        coarse = CSRGraph.from_edges(n_coarse, [], [])
    return CoarseLevel(coarse, coarse_weights, fine_to_coarse)


def _oracle_kernels():
    """Run the coarsening phase on the two kernels this file keeps."""
    return mock.patch.multiple(coarsen,
                               heaviest_neighbor=_lexsort_heaviest_neighbor,
                               contract=_gather_contract)


#: few distinct values, so rows tie; both zeros, which compare equal
_COLLIDING_WEIGHTS = (0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 2.0)
#: what one cell of the adjacency matrix may hold (None = no arc)
_DENSE_CELLS = (None,) + _COLLIDING_WEIGHTS
_SPARSE_CELLS = (None,) * 3 * len(_COLLIDING_WEIGHTS) + _COLLIDING_WEIGHTS


@st.composite
def colliding_graphs(draw):
    """Small weighted CSR graphs built to tie, with empty rows forced at the
    start / middle / end (isolated nodes, when the graph is symmetric)."""
    n = draw(st.integers(1, 10))
    cell = st.sampled_from(draw(st.sampled_from((_DENSE_CELLS,
                                                 _SPARSE_CELLS))))
    cells = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    symmetric = draw(st.booleans())
    empty = draw(st.sets(st.sampled_from((0, n // 2, n - 1))))
    indptr, indices, weights = [0], [], []
    for u in range(n):
        for v in range(n):
            w = cells[min(u, v) * n + max(u, v)] if symmetric \
                else cells[u * n + v]
            if w is None or u == v or u in empty or (symmetric and v in empty):
                continue
            indices.append(v)
            weights.append(w)
        indptr.append(len(indices))
    return CSRGraph(n, indptr, indices, weights)


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes (stricter than ``==``: signed zeros)."""
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


class TestSegmentArgMaxAgainstLexsort:
    """The parent's kernels (arc sort, int64 contraction) are the oracle."""

    @given(graph=colliding_graphs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_proposals_matching_and_hierarchy(self, graph, data):
        n = graph.n_nodes
        everyone = np.ones(n, dtype=bool)
        heaviest = _lexsort_heaviest_neighbor(graph, everyone)
        only_heaviest_out = everyone.copy()
        only_heaviest_out[heaviest[data.draw(st.integers(0, n - 1))]] = False
        masks = (
            everyone,
            np.zeros(n, dtype=bool),
            np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n))),
            # the drawn row's winner (node n-1 if it has none) sits out
            only_heaviest_out,
        )
        for eligible in masks:
            assert _identical(heaviest_neighbor(graph, eligible),
                              _lexsort_heaviest_neighbor(graph, eligible))

        mate = match_mutual(graph)
        levels = coarsen_to(graph, 1)
        with _oracle_kernels():
            assert _identical(mate, match_mutual(graph))
            expected = coarsen_to(graph, 1)
        assert len(levels) == len(expected)
        for got, want in zip(levels, expected):
            assert _identical(got.fine_to_coarse, want.fine_to_coarse)
            assert _identical(got.node_weights, want.node_weights)
            assert _identical(got.graph.indptr, want.graph.indptr)
            assert _identical(got.graph.indices, want.graph.indices)
            assert _identical(got.graph.weights, want.graph.weights)

    def test_tie_goes_to_larger_id_and_zeros_compare_equal(self):
        # row 0: weights 2, 2, -0.0 -> the larger id of the two 2s;
        # row 1: 0.0 vs -0.0 tie -> larger id; row 2 empty; node 4 isolated
        g = CSRGraph(5, [0, 3, 5, 5, 6, 6], [1, 2, 3, 0, 3, 0],
                     [2.0, 2.0, -0.0, 0.0, -0.0, 1.0])
        everyone = np.ones(5, dtype=bool)
        np.testing.assert_array_equal(heaviest_neighbor(g, everyone),
                                      [2, 3, -1, 0, -1])
        without_2 = everyone.copy()
        without_2[2] = False
        np.testing.assert_array_equal(heaviest_neighbor(g, without_2),
                                      [1, 3, -1, 0, -1])


@pytest.mark.slow
class TestSetupPathGuards:
    """Full stand-in scale: what a deployment pays before its first query."""

    def test_coarsening_transient_memory(self):
        """E-sized temporaries above the retained hierarchy stay bounded.

        Reached: 20.2 MB on ``products`` (the arc sort and int64
        contraction this replaced: 34.3 MB); the bound is that plus 25%.
        """
        graph = load_dataset("products", scale=1.0, use_cache=False)
        tracemalloc.start()
        try:
            levels = coarsen_to(graph, 240)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(levels) == 3
        assert (peak - retained) / 2**20 <= 20.2 * 1.25

    def test_hub_graph_partitions_in_proportion_to_its_arcs(self):
        """``twitter`` has 1.85x the arcs of ``products``; an E log E pass
        over its hub rows would show as a super-linear cost ratio."""
        seconds = {}
        for name in ("products", "twitter"):
            graph = load_dataset(name, scale=1.0, use_cache=False)
            runs = []
            for _ in range(3):
                start = time.perf_counter()
                MetisLitePartitioner(seed=0).partition(graph, 4)
                runs.append(time.perf_counter() - start)
            seconds[name] = min(runs)
        assert seconds["twitter"] < 3.0 * seconds["products"], seconds


class TestRefine:
    def test_connectivity_matrix(self):
        g = path_graph(4)
        conn = connectivity_matrix(g, np.array([0, 0, 1, 1]), 2)
        # node 1: one arc to part 0 (node 0), one to part 1 (node 2)
        np.testing.assert_allclose(conn[1], [1.0, 1.0])

    def test_refine_improves_bad_assignment(self):
        import scipy.sparse as sp
        from repro.graph import CSRGraph
        a = complete_graph(8).to_scipy()
        block = sp.block_diag([a, a]).tolil()
        block[0, 8] = 1.0
        block[8, 0] = 1.0
        g = CSRGraph.from_scipy(block.tocsr())
        # interleaved (bad) assignment
        bad = np.arange(16) % 2
        refined = refine(g, bad, np.ones(16), 2)
        before = edge_cut_fraction(g, PartitionResult(bad, 2))
        after = edge_cut_fraction(g, PartitionResult(refined, 2))
        assert after < before

    def test_refine_respects_balance(self):
        g = powerlaw_cluster(400, 6, seed=6)
        assignment = np.arange(400) % 4
        refined = refine(g, assignment, np.ones(400), 4, imbalance=0.1)
        r = PartitionResult(refined, 4)
        assert balance(r) <= 1.1 + 1e-9

    def test_refine_keeps_parts_nonempty(self):
        g = powerlaw_cluster(100, 4, seed=7)
        assignment = np.arange(100) % 4
        refined = refine(g, assignment, np.ones(100), 4)
        assert PartitionResult(refined, 4).nonempty()


class TestMetisLite:
    def test_beats_random_on_clustered_graph(self):
        g = powerlaw_cluster(4000, 12, mixing=0.05, n_communities=16, seed=8)
        ml = MetisLitePartitioner(seed=0).partition(g, 4)
        rnd = RandomPartitioner(seed=0).partition(g, 4)
        assert edge_cut_fraction(g, ml) < 0.5 * edge_cut_fraction(g, rnd)

    def test_balance_constraint(self):
        g = powerlaw_cluster(2000, 8, mixing=0.1, seed=9)
        r = MetisLitePartitioner(imbalance=0.05, seed=0).partition(g, 4)
        assert balance(r) <= 1.35  # modest slack over per-level 1.05 target

    def test_single_part(self):
        g = path_graph(10)
        r = MetisLitePartitioner().partition(g, 1)
        np.testing.assert_array_equal(r.assignment, np.zeros(10))

    def test_all_parts_nonempty(self):
        g = powerlaw_cluster(500, 6, seed=10)
        for k in (2, 3, 5, 8):
            r = MetisLitePartitioner(seed=0).partition(g, k)
            assert r.nonempty(), f"empty part at k={k}"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MetisLitePartitioner(imbalance=-0.1)
        with pytest.raises(ValueError):
            MetisLitePartitioner(coarsest_factor=0)

    def test_deterministic_given_seed(self):
        g = powerlaw_cluster(800, 6, mixing=0.1, seed=11)
        a = MetisLitePartitioner(seed=3).partition(g, 4).assignment
        b = MetisLitePartitioner(seed=3).partition(g, 4).assignment
        np.testing.assert_array_equal(a, b)


class TestPartitionerProperties:
    @given(
        n=st.integers(20, 200),
        k=st.integers(1, 5),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_partitioner_covers_all_nodes(self, n, k, seed):
        g = erdos_renyi(n, 4, seed=seed)
        for part in (RandomPartitioner(seed=seed), HashPartitioner(),
                     BfsPartitioner(seed=seed),
                     MetisLitePartitioner(seed=seed)):
            r = part.partition(g, k)
            assert len(r.assignment) == n
            assert r.assignment.min() >= 0
            assert r.assignment.max() < k
