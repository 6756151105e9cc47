"""Dense tensor-based SSPPR state — the "PyTorch Tensor" baseline.

Re-creates the paper's pure-tensor distributed Forward Push: the PPR and
residual vectors are dense |V|-length arrays indexed by node id,
and — crucially — retrieving the activated set each iteration requires a
threshold test plus nonzero scan over the **entire** vector ("the overhead
of SSPPR calculation increases in proportion to the total number of
nodes").  Pushes use scatter-add over the dense arrays, exactly the
``index_select`` / ``scatter_add_`` op mix a PyTorch implementation uses.

The caller-id -> node-id permutation is part of the baseline's state (a
tensor implementation carries it as a tensor): ``dense_result`` reports in
caller ids.
"""

from __future__ import annotations

import numpy as np

from repro.ppr.params import PPRParams
from repro.ppr.ppr_ops import split_residual


class DenseSSPPR:
    """Dense-array state for one tensor-based SSPPR query."""

    def __init__(self, source: int, params: PPRParams,
                 to_node: np.ndarray) -> None:
        n_nodes = len(to_node)
        if not 0 <= source < n_nodes:
            raise ValueError(
                f"source {source} out of range [0, {n_nodes})"
            )
        self.params = params
        self.n_nodes = n_nodes
        self.to_node = to_node
        self.residual = np.zeros(n_nodes)
        self.ppr = np.zeros(n_nodes)
        # Weighted degrees learned from responses; NaN = unknown.  Unknown
        # entries can only carry residual if mass reached them, and mass
        # only arrives together with their weighted degree, so the first
        # pop never misses an activation.
        self.wdeg = np.full(n_nodes, np.nan)
        self.residual[source] = 1.0
        self._first_pop_done = False
        self._source = int(source)
        self.n_pushes = 0
        self.n_iterations = 0

    def seed_source_degree(self, source_wdeg: float) -> None:
        """Record the source's weighted degree (fetched at query start)."""
        self.wdeg[self._source] = float(source_wdeg)

    def pop(self) -> np.ndarray:
        """Activated nodes -> node ids, ascending.

        Performs the full-vector threshold scan the paper identifies as the
        dominant tensor-side cost.
        """
        known = ~np.isnan(self.wdeg)
        active = known & (
            (self.residual > self.params.epsilon * self.wdeg)
            | ((self.residual > 0.0) & (self.wdeg <= 0.0))
        )
        self.n_iterations += 1
        return np.flatnonzero(active)

    def push(self, infos, ids: np.ndarray) -> None:
        """Dense scatter-add push for one fetched batch."""
        indptr, nbr_ids, weights, nbr_wdeg, src_wdeg = infos.to_arrays()
        if len(indptr) - 1 != len(ids):
            raise ValueError(
                f"infos cover {len(indptr) - 1} sources, got "
                f"{len(ids)} ids"
            )
        if len(ids) == 0:
            return
        ids = np.asarray(ids, dtype=np.int64)
        self.wdeg[ids] = src_wdeg
        r_v = self.residual[ids]
        self.residual[ids] = 0.0
        gained, scale = split_residual(r_v, src_wdeg, self.params.alpha)
        self.ppr[ids] += gained
        self.n_pushes += len(ids)

        counts = np.diff(indptr)
        contrib = weights * np.repeat(scale, counts)
        if len(contrib) == 0:
            return
        # Dense scatter-add: the best a pure-tensor implementation can do is
        # index_add over the full |V|-length vector — same primitive as the
        # hashmap engine's aggregation, but over the global domain.
        self.residual += np.bincount(nbr_ids, weights=contrib,
                                     minlength=self.n_nodes)
        self.wdeg[nbr_ids] = nbr_wdeg

    def total_mass(self) -> float:
        """``sum(ppr) + sum(residual)`` — invariantly 1.0."""
        return float(self.ppr.sum() + self.residual.sum())

    def dense_result(self) -> np.ndarray:
        """The PPR vector, indexed by caller id."""
        return self.ppr[self.to_node]
