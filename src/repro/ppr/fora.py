"""FORA-style hybrid SSPPR — Forward Push + Monte-Carlo refinement.

FORA [Wang et al., KDD'17 — the paper's reference 25, whose whole-graph
SSPPR definition the paper adopts] combines the two approximate families:
run Forward Push with a *coarse* threshold (cheap, touches few nodes), then
spend random walks proportional to the remaining residual to refine the
estimate.  The result is an unbiased estimator whose accuracy/cost can be
tuned continuously between pure push and pure Monte-Carlo:

    pi(s, v)  =  pi_push(v)  +  sum_u r(u) * pi(u, v)
              ~= pi_push(v)  +  (walks from u, weighted by r(u))

Implemented single-machine (the refinement stage is embarrassingly
parallel across residual nodes; the distributed engine's Forward Push
stage could feed it through :meth:`QueryView.dense_result` and
:meth:`QueryView.dense_residual`).  The walks are
:func:`~repro.ppr.monte_carlo.restart_walks`, each carrying its share of
its origin's residual.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.ppr.forward_push_parallel import forward_push_parallel
from repro.ppr.monte_carlo import restart_walks
from repro.ppr.params import PPRParams
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive


def fora_ssppr(graph: CSRGraph, source: int, *, alpha: float = 0.462,
               push_epsilon: float = 1e-3, walks_per_unit: float = 20_000.0,
               max_steps: int = 500, seed=None) -> np.ndarray:
    """FORA hybrid estimate of the SSPPR vector.

    Parameters
    ----------
    push_epsilon:
        The coarse Forward Push threshold (much larger than a pure-push
        run would use — that's the point).
    walks_per_unit:
        Random walks spent per unit of leftover residual mass; each
        residual node ``u`` gets ``ceil(r(u) * walks_per_unit)`` walks.
    """
    check_positive("push_epsilon", push_epsilon)
    check_positive("walks_per_unit", walks_per_unit)
    rng = rng_from_seed(seed)
    params = PPRParams(alpha=alpha, epsilon=push_epsilon)
    ppr, residual, _stats = forward_push_parallel(graph, source, params)

    hot = np.flatnonzero(residual > 0)
    if len(hot) == 0:
        return ppr

    # Launch walks from every residual node, each walk carrying its
    # origin's per-walk residual weight.
    n_walks = np.ceil(residual[hot] * walks_per_unit).astype(np.int64)
    origins = np.repeat(hot, n_walks)
    mass = np.repeat(residual[hot] / n_walks, n_walks)
    return ppr + restart_walks(graph, origins, mass, alpha=alpha,
                               max_steps=max_steps, rng=rng)
