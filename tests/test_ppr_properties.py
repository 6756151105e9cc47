"""Property-based invariants of Forward Push SSPPR on random graphs.

Hypothesis generates arbitrary small undirected graphs (random edge
lists, including dangling and isolated nodes, duplicate arcs, and
non-uniform weights) and checks the algebraic invariants the paper's
correctness argument rests on:

* mass conservation — ``sum(ppr) + sum(residual) == 1`` at every exit;
* the termination condition — every residual sits below
  ``epsilon * weighted_degree`` when push stops;
* implementation agreement — sequential push, frontier-parallel push,
  and the dense tensor baseline all land within the additive
  ``epsilon * sum(d_w)`` error envelope of each other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.partition import PartitionResult
from repro.ppr import (
    PPRParams,
    forward_push_parallel,
    forward_push_sequential,
    l1_error,
)
from repro.ppr.tensor_ops import DenseSSPPR
from repro.storage import build_shards

PARAMS = PPRParams(alpha=0.462, epsilon=1e-5)


@st.composite
def random_graphs(draw):
    """An arbitrary small undirected graph plus a source node.

    Edge lists may contain self-loops, duplicates, and nodes with no
    edges at all — ``from_edges`` must normalise them and push must
    handle the resulting dangling/isolated nodes.
    """
    n = draw(st.integers(min_value=2, max_value=30))
    n_edges = draw(st.integers(min_value=0, max_value=60))
    node = st.integers(min_value=0, max_value=n - 1)
    src = draw(st.lists(node, min_size=n_edges, max_size=n_edges))
    dst = draw(st.lists(node, min_size=n_edges, max_size=n_edges))
    weighted = draw(st.booleans())
    if weighted:
        weights = draw(st.lists(
            st.floats(min_value=0.1, max_value=4.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n_edges, max_size=n_edges,
        ))
    else:
        weights = None
    source = draw(node)
    return CSRGraph.from_edges(n, src, dst, weights), source


def tensor_reference(graph: CSRGraph, source: int,
                     params: PPRParams) -> np.ndarray:
    """Drive the dense tensor baseline synchronously on one shard."""
    res = PartitionResult(np.zeros(graph.n_nodes, dtype=np.int64), 1)
    sharded = build_shards(graph, res)
    shard = sharded.shards[0]
    # one shard: node ids are the caller's ids
    m = DenseSSPPR(source, params, sharded.to_node)
    m.seed_source_degree(float(graph.weighted_degrees[source]))
    for _ in range(100_000):
        ids = m.pop()
        if len(ids) == 0:
            break
        m.push(shard.get_vertex_props(ids), ids)
    else:  # pragma: no cover - safety valve
        raise AssertionError("tensor baseline failed to converge")
    assert m.total_mass() == pytest.approx(1.0)
    return m.dense_result()


class TestMassConservation:
    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_sequential(self, case):
        graph, source = case
        ppr, residual, _ = forward_push_sequential(graph, source, PARAMS)
        assert ppr.sum() + residual.sum() == pytest.approx(1.0)
        assert (ppr >= 0).all() and (residual >= -1e-15).all()

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_parallel(self, case):
        graph, source = case
        ppr, residual, _ = forward_push_parallel(graph, source, PARAMS)
        assert ppr.sum() + residual.sum() == pytest.approx(1.0)
        assert (ppr >= 0).all() and (residual >= -1e-15).all()


class TestTerminationResidualBound:
    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_sequential_residuals_below_rmax_times_degree(self, case):
        graph, source = case
        _, residual, _ = forward_push_sequential(graph, source, PARAMS)
        bound = PARAMS.epsilon * graph.weighted_degrees
        assert np.all(residual <= bound + 1e-15)

    @given(random_graphs())
    @settings(max_examples=30, deadline=None)
    def test_parallel_residuals_below_rmax_times_degree(self, case):
        graph, source = case
        _, residual, _ = forward_push_parallel(graph, source, PARAMS)
        bound = PARAMS.epsilon * graph.weighted_degrees
        assert np.all(residual <= bound + 1e-15)

    @given(random_graphs())
    @settings(max_examples=20, deadline=None)
    def test_dangling_nodes_hold_no_residual(self, case):
        graph, source = case
        _, residual, _ = forward_push_sequential(graph, source, PARAMS)
        dangling = graph.weighted_degrees <= 0.0
        assert residual[dangling].sum() == pytest.approx(0.0)


class TestImplementationAgreement:
    @given(random_graphs())
    @settings(max_examples=25, deadline=None)
    def test_sequential_vs_parallel(self, case):
        graph, source = case
        seq, _, _ = forward_push_sequential(graph, source, PARAMS)
        par, _, _ = forward_push_parallel(graph, source, PARAMS)
        envelope = 2 * PARAMS.epsilon * graph.weighted_degrees.sum()
        assert l1_error(seq, par) <= envelope + 1e-12

    @given(random_graphs())
    @settings(max_examples=15, deadline=None)
    def test_sequential_vs_tensor(self, case):
        graph, source = case
        seq, _, _ = forward_push_sequential(graph, source, PARAMS)
        tensor = tensor_reference(graph, source, PARAMS)
        envelope = 2 * PARAMS.epsilon * graph.weighted_degrees.sum()
        assert l1_error(seq, tensor) <= envelope + 1e-12

    @given(random_graphs())
    @settings(max_examples=15, deadline=None)
    def test_parallel_vs_tensor(self, case):
        graph, source = case
        par, _, _ = forward_push_parallel(graph, source, PARAMS)
        tensor = tensor_reference(graph, source, PARAMS)
        envelope = 2 * PARAMS.epsilon * graph.weighted_degrees.sum()
        assert l1_error(par, tensor) <= envelope + 1e-12
