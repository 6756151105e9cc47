"""Unit + property tests for repro.graph.csr."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graph import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
        assert g.n_nodes == 3
        assert g.n_arcs == 4  # symmetrized
        np.testing.assert_array_equal(g.neighbors(1), [0, 2])

    def test_symmetrize_false_keeps_direction(self):
        g = CSRGraph.from_edges(3, [0], [1], symmetrize=False)
        assert g.n_arcs == 1
        assert g.has_arc(0, 1)
        assert not g.has_arc(1, 0)

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, [0, 1], [0, 2])
        assert not g.has_arc(0, 0)
        assert g.has_arc(1, 2)

    def test_duplicate_arcs_merged(self):
        g = CSRGraph.from_edges(2, [0, 0, 0], [1, 1, 1], [5.0, 7.0, 9.0])
        assert g.n_arcs == 2
        assert g.neighbor_weights(0)[0] == 9.0  # max weight kept

    def test_default_unit_weights(self):
        g = CSRGraph.from_edges(2, [0], [1])
        np.testing.assert_array_equal(g.weights, [1.0, 1.0])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            CSRGraph.from_edges(2, [0], [5])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(2, np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))

    def test_indptr_tail_mismatch_rejected(self):
        with pytest.raises(GraphFormatError, match="indptr"):
            CSRGraph(2, np.array([0, 1, 3]), np.array([0]), np.ones(1))

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="negative"):
            CSRGraph.from_edges(2, [0], [1], [-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        """NaN compares False with ``< 0``; only a finiteness check stops it."""
        import scipy.sparse as sp
        with pytest.raises(GraphFormatError, match="finite"):
            CSRGraph(2, [0, 1, 2], [1, 0], [bad, 1.0])
        with pytest.raises(GraphFormatError, match="finite"):
            CSRGraph.from_edges(3, [0, 1], [1, 2], [1.0, bad])
        with pytest.raises(GraphFormatError, match="finite"):
            CSRGraph.from_scipy(sp.csr_matrix(
                ([bad, 1.0], ([0, 1], [1, 0])), shape=(2, 2)))

    def test_empty_graph(self):
        g = CSRGraph.from_edges(5, [], [])
        assert g.n_arcs == 0
        assert g.out_degree(3) == 0
        np.testing.assert_array_equal(g.weighted_degrees, np.zeros(5))

    def test_from_scipy_roundtrip(self):
        g = CSRGraph.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0])
        g2 = CSRGraph.from_scipy(g.to_scipy())
        np.testing.assert_array_equal(g.indptr, g2.indptr)
        np.testing.assert_array_equal(g.indices, g2.indices)
        np.testing.assert_allclose(g.weights, g2.weights)

    def test_from_scipy_nonsquare_rejected(self):
        import scipy.sparse as sp
        with pytest.raises(GraphFormatError, match="square"):
            CSRGraph.from_scipy(sp.csr_matrix((2, 3)))


class TestAccessors:
    @pytest.fixture()
    def weighted_triangle(self):
        # 0-1 (w 2), 1-2 (w 3), 0-2 (w 5)
        return CSRGraph.from_edges(3, [0, 1, 0], [1, 2, 2], [2.0, 3.0, 5.0])

    def test_weighted_degrees(self, weighted_triangle):
        np.testing.assert_allclose(
            weighted_triangle.weighted_degrees, [7.0, 5.0, 8.0]
        )

    def test_out_degree_scalar_and_array(self, weighted_triangle):
        assert weighted_triangle.out_degree(0) == 2
        np.testing.assert_array_equal(
            weighted_triangle.out_degree(), [2, 2, 2]
        )

    def test_neighbors_sorted(self, weighted_triangle):
        np.testing.assert_array_equal(weighted_triangle.neighbors(2), [0, 1])

    def test_is_symmetric(self, weighted_triangle):
        assert weighted_triangle.is_symmetric()
        directed = CSRGraph.from_edges(2, [0], [1], symmetrize=False)
        assert not directed.is_symmetric()

    def test_transition_matrix_rows_sum_to_one(self, weighted_triangle):
        p = weighted_triangle.transition_matrix()
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)

    def test_transition_matrix_zero_row_for_isolated(self):
        g = CSRGraph.from_edges(3, [0], [1])  # node 2 isolated
        p = g.transition_matrix()
        assert p[2].nnz == 0


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, src, dst


class TestProperties:
    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_symmetrized_graph_is_symmetric(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(n, src, dst)
        assert g.is_symmetric()

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_weighted_degree_matches_row_sums(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(n, src, dst)
        expected = np.asarray(g.to_scipy().sum(axis=1)).ravel()
        np.testing.assert_allclose(g.weighted_degrees, expected)

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_no_self_loops_or_duplicates(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(n, src, dst)
        for v in range(n):
            nbrs = g.neighbors(v)
            assert v not in nbrs
            assert len(np.unique(nbrs)) == len(nbrs)

    @given(random_edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_arc_count_even_after_symmetrize(self, data):
        n, src, dst = data
        g = CSRGraph.from_edges(n, src, dst)
        assert g.n_arcs % 2 == 0
