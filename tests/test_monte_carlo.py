"""Tests for the Monte-Carlo SSPPR estimator (the third method family)
and the restart-walk kernel it shares with FORA."""

import numpy as np
import pytest

from repro.graph import CSRGraph, path_graph, powerlaw_cluster, star_graph
from repro.ppr import (
    fora_ssppr,
    monte_carlo_ssppr,
    power_iteration_ssppr,
    topk_precision,
)
from repro.ppr.monte_carlo import restart_walks


class TestMonteCarloWeighted:
    def test_sums_to_one(self):
        g = powerlaw_cluster(100, 5, seed=0)
        est = monte_carlo_ssppr(g, 0, n_walks=500, seed=1)
        assert est.sum() == pytest.approx(1.0)

    def test_approaches_ground_truth(self):
        g = powerlaw_cluster(150, 5, seed=2)
        exact = power_iteration_ssppr(g, 3, alpha=0.462)
        est = monte_carlo_ssppr(g, 3, alpha=0.462, n_walks=4000, seed=3)
        # L1 error of a 4000-walk estimate: loose but meaningful bound
        assert np.abs(est - exact).sum() < 0.5
        assert topk_precision(est, exact, 10) >= 0.5

    def test_variance_shrinks_with_walks(self):
        g = powerlaw_cluster(120, 5, seed=4)
        exact = power_iteration_ssppr(g, 0, alpha=0.462)
        err_small = np.abs(
            monte_carlo_ssppr(g, 0, n_walks=200, seed=5) - exact
        ).sum()
        err_big = np.abs(
            monte_carlo_ssppr(g, 0, n_walks=8000, seed=5) - exact
        ).sum()
        assert err_big < err_small

    def test_dangling_source(self):
        g = CSRGraph.from_edges(3, [0], [1])  # node 2 isolated
        est = monte_carlo_ssppr(g, 2, n_walks=100, seed=6)
        assert est[2] == pytest.approx(1.0)

    def test_invalid_args(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            monte_carlo_ssppr(g, 9)
        with pytest.raises(ValueError):
            monte_carlo_ssppr(g, 0, alpha=0.0)
        with pytest.raises(ValueError):
            monte_carlo_ssppr(g, 0, n_walks=0)

    def test_reproducible(self):
        g = powerlaw_cluster(80, 4, seed=7)
        a = monte_carlo_ssppr(g, 0, n_walks=300, seed=8)
        b = monte_carlo_ssppr(g, 0, n_walks=300, seed=8)
        np.testing.assert_array_equal(a, b)

    def test_unit_weight_ground_truth(self):
        g = powerlaw_cluster(120, 5, weighted=False, seed=11)
        exact = power_iteration_ssppr(g, 2, alpha=0.462)
        est = monte_carlo_ssppr(g, 2, n_walks=6000, seed=12)
        assert np.abs(est - exact).sum() < 0.45


class TestMonteCarloUnweighted:
    def test_sums_to_one(self):
        g = powerlaw_cluster(100, 5, weighted=False, seed=9)
        est = monte_carlo_ssppr(g, 0, n_walks=500, seed=10)
        assert est.sum() == pytest.approx(1.0)

    def test_star_concentrates_on_center(self):
        g = star_graph(8)
        est = monte_carlo_ssppr(g, 0, alpha=0.5, n_walks=2000, seed=13)
        assert est[0] > est[1:].max()


class TestMonteCarloPinned:
    """Walk counts out of 400 walks, recorded from the per-walker
    inverse-CDF sampler the kernel replaced: same draws, same arcs."""

    @pytest.mark.parametrize("graph, source, seed, counts", [
        (powerlaw_cluster(24, 3, weighted=False, seed=21), 0, 21,
         [204, 0, 10, 7, 1, 1, 1, 0, 67, 5, 8, 1, 1, 0, 22, 0, 1, 0, 0, 3,
          61, 0, 5, 2]),
        (powerlaw_cluster(24, 3, seed=22), 5, 22,
         [0, 1, 0, 3, 18, 198, 3, 0, 5, 5, 0, 0, 2, 6, 2, 2, 0, 68, 4, 74,
          0, 1, 3, 5]),
        (CSRGraph.from_edges(4, [0, 1], [1, 2], [1.0, 2.5],
                             symmetrize=False), 3, 23, [0, 0, 0, 400]),
        (CSRGraph.from_edges(4, [0, 0, 1], [1, 2, 3], [1.0, 3.0, 2.0],
                             symmetrize=False), 0, 24, [192, 24, 157, 27]),
    ], ids=["unit", "weighted", "dangling-source", "dangling-sink"])
    def test_bitwise(self, graph, source, seed, counts):
        est = monte_carlo_ssppr(graph, source, n_walks=400, seed=seed)
        expected = np.array(counts, dtype=np.int64) / 400
        assert est.tobytes() == expected.tobytes()


class TestRestartWalks:
    def test_step_follows_arc_weights(self):
        # node 0: arcs to 1 (w=1), 2 (w=0), 3 (w=3)
        g = CSRGraph.from_edges(4, [0, 0, 0], [1, 2, 3], [1.0, 0.0, 3.0],
                                symmetrize=False)
        n = 40_000
        landed = restart_walks(g, np.zeros(n, dtype=np.int64), np.ones(n),
                               alpha=0.5, max_steps=1,
                               rng=np.random.default_rng(31))
        assert landed.sum() == n
        assert landed[2] == 0
        moved = landed[1] + landed[3]
        assert moved == pytest.approx(n / 2, rel=0.03)
        assert landed[3] / moved == pytest.approx(0.75, abs=0.01)

    def test_fora_follows_weights_beside_a_heavy_arc(self):
        """A heavy arc elsewhere in the graph must not bias the step law
        of a light row (a rejection sampler keyed on the global maximum
        weight gives up on such rows)."""
        g = CSRGraph.from_edges(5, [0, 0, 3], [1, 2, 4], [1.0, 3.0, 1e5])
        exact = power_iteration_ssppr(g, 0, alpha=0.462)
        est = fora_ssppr(g, 0, push_epsilon=0.5, walks_per_unit=200_000,
                         seed=33)
        assert np.abs(est - exact).sum() < 0.01
