"""Zero-copy local fetch results.

A :class:`VertexProp` is what a local (shared-memory) ``get_neighbor_infos``
returns: no data is copied — it records the shard's arena and the requested
rows, and exposes views into the arena's flat arrays.  This mirrors
the paper's optimization of passing "a vector of shared pointers of
VertexProp across the C++ and Python layers for local fetching, without
taking ownership of the original data".

``to_arrays()`` materializes the same tuple a :class:`NeighborBatch` carries
(gather cost paid by the consumer, i.e. inside the push operator's measured
block).
"""

from __future__ import annotations

import numpy as np

from repro.storage.neighbor_batch import NeighborBatch


class VertexProp:
    """Views over a shard's arena rows for a batch of core nodes."""

    __slots__ = ("arena", "rows")

    def __init__(self, arena: NeighborBatch, rows: np.ndarray) -> None:
        self.arena = arena
        self.rows = rows

    @property
    def n_sources(self) -> int:
        return len(self.rows)

    def degree(self, i: int) -> int:
        """Neighbor count of the i-th requested node."""
        row = self.rows[i]
        return int(self.arena.indptr[row + 1] - self.arena.indptr[row])

    def neighbors(self, i: int):
        """Views: ``(ids, weights, wdeg)`` of node i's neighbors."""
        row = self.rows[i]
        s, e = self.arena.indptr[row], self.arena.indptr[row + 1]
        return (self.arena.ids[s:e], self.arena.weights[s:e],
                self.arena.wdeg[s:e])

    def source_weighted_degrees(self) -> np.ndarray:
        """Own weighted degree of each requested node."""
        return self.arena.src_wdeg[self.rows]

    def to_arrays(self):
        """Materialize ``(indptr, ids, w, wdeg, src_wdeg)``.

        Zero-copy slices of the arena when the rows are one ascending run,
        else one gather — see :meth:`NeighborBatch.take_rows`.
        """
        return self.arena.take_rows(self.rows).to_arrays()

    def rpc_payload(self) -> tuple[int, int]:
        """Local handoff is pointer-passing: negligible payload.

        VertexProp never crosses machines in the engine; if it ever did, the
        cost model would still see a tiny control payload rather than the
        (unsent) underlying arrays.
        """
        return 16 * (len(self.rows) + 1), 1
