"""Tests for ``connected_components``, the WCC oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, erdos_renyi, path_graph
from repro.graph.components import connected_components


def two_fragments():
    # fragment A: 0-1-2 path; fragment B: 3-4 edge; node 5 isolated
    return CSRGraph.from_edges(6, [0, 1, 3], [1, 2, 4])


class TestComponents:
    def test_counts(self):
        n, labels = connected_components(two_fragments())
        assert n == 3
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[5] not in (labels[0], labels[3])

    def test_connected_graph(self):
        n, _ = connected_components(path_graph(5))
        assert n == 1

    @given(n=st.integers(10, 60), seed=st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_component_labels_partition_nodes(self, n, seed):
        g = erdos_renyi(n, 2, seed=seed)
        n_comp, labels = connected_components(g)
        assert len(labels) == n
        assert len(np.unique(labels)) == n_comp
        # within a component, edges never leave it
        src = np.repeat(np.arange(n), np.diff(g.indptr))
        if len(src):
            np.testing.assert_array_equal(labels[src], labels[g.indices])
