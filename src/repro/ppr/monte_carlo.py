"""Monte-Carlo SSPPR — the third method family of Section 2.2.1.

The paper's related work contrasts three approaches to PPR: matrix-based
(power iteration — :mod:`~repro.ppr.power_iteration`), local-update based
(Forward Push — the engine), and Monte-Carlo based (random walk with
restart [Tong et al. 2006]) which "suffer[s] from high variance and
require[s] many iterations to achieve accurate results".  This module
implements the Monte-Carlo estimator so the trade-off is measurable:
simulate ``n_walks`` alpha-terminated random walks from the source and
estimate ``pi(s, v)`` as the fraction of walks terminating at ``v``.

:func:`restart_walks` is the one walk kernel, shared with the FORA hybrid
(:mod:`~repro.ppr.fora`).  All live walkers advance together, one NumPy
round per step, and each weighted step is one ``searchsorted`` over the
arcs' running weight total, so cost is O(total steps + |E|).
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_in_range, check_positive


def restart_walks(graph: CSRGraph, origins: np.ndarray, mass: np.ndarray, *,
                  alpha: float, max_steps: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Walk from every origin until the restart fires; return landed mass.

    Walk ``i`` starts at ``origins[i]`` carrying ``mass[i]``.  Each step
    it terminates at its current node with probability ``alpha`` (a
    dangling node terminates it at once), else moves along an out-arc
    picked with probability proportional to the arc's weight.  Walks
    still alive after ``max_steps`` terminate where they stand.  Entry
    ``v`` of the result is the total mass of the walks ending at ``v``.
    """
    landed = np.zeros(graph.n_nodes)
    current = np.array(origins, dtype=np.int64)
    alive = np.ones(len(current), dtype=bool)
    degrees = np.diff(graph.indptr)
    # running[j] = total weight of arcs [0, j); row u spans
    # running[indptr[u]] .. running[indptr[u + 1]]
    running = np.zeros(graph.n_arcs + 1)
    np.cumsum(graph.weights, out=running[1:])

    for _ in range(max_steps):
        live = np.flatnonzero(alive)
        if len(live) == 0:
            break
        nodes = current[live]
        stop = (rng.random(len(live)) < alpha) | (degrees[nodes] == 0)
        ended = live[stop]
        np.add.at(landed, current[ended], mass[ended])
        alive[ended] = False
        # Survivors take one weighted step: an inverse-CDF draw inside
        # the walker's row, clipped so rounding cannot leave the row.
        move = live[~stop]
        nodes = current[move]
        starts = graph.indptr[nodes]
        target = (running[starts]
                  + rng.random(len(move)) * graph.weighted_degrees[nodes])
        pick = np.searchsorted(running, target, side="right") - 1
        pick = np.clip(pick, starts, starts + degrees[nodes] - 1)
        current[move] = graph.indices[pick]

    live = np.flatnonzero(alive)
    np.add.at(landed, current[live], mass[live])
    return landed


def monte_carlo_ssppr(graph: CSRGraph, source: int, *, alpha: float = 0.462,
                      n_walks: int = 10_000, max_steps: int = 1_000,
                      seed=None) -> np.ndarray:
    """Estimate the SSPPR vector by random walks with restart.

    Each walk terminates at its current node with probability ``alpha``
    per step (matching the Forward Push / power-iteration semantics where
    "terminates at v" means the restart fires while at ``v``); dangling
    nodes terminate walks immediately.  Returns a dense estimate summing
    to 1.

    The estimator is unbiased with per-entry standard error
    ``sqrt(pi_v (1 - pi_v) / n_walks)`` — the high-variance behaviour the
    paper cites.
    """
    check_in_range("alpha", alpha, 0.0, 1.0)
    check_positive("n_walks", n_walks)
    check_positive("max_steps", max_steps)
    n = graph.n_nodes
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range [0, {n})")
    landed = restart_walks(graph, np.full(n_walks, source), np.ones(n_walks),
                           alpha=alpha, max_steps=max_steps,
                           rng=rng_from_seed(seed))
    return landed / n_walks
