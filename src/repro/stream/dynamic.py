"""Driver-side mutable mirror of the deployed graph.

:class:`DynamicGraph` is the authoritative adjacency during streaming:
update batches apply here first, then the resulting *row replacements*
are shipped to the shards (:mod:`repro.stream.ingest`).  Storage is the
frozen :class:`~repro.graph.csr.CSRGraph` the mirror was built from (the
*base*) plus an *overlay* ``vertex -> (sorted gids, weights)`` of the
rows replaced since — so mirroring a graph copies nothing (one
vectorised pass checks row order and sums every row's degree), a batch
costs its changed rows, and nothing else |E|-sized happens until
somebody asks for a whole graph (:meth:`DynamicGraph.snapshot` splices
base and overlay once and adopts the result as the new base).  Three
rules make the metamorphic exactness guarantees of the incremental PPR
layer possible:

* ``row(u)`` is always sorted by neighbor id;
* row arrays are **copy-on-write** — a changed row is a new pair of
  arrays, never an in-place edit, because :attr:`AppliedDelta.undo`
  keeps references to the old ones;
* ``wdeg(u)`` is only ever ``float(np.sum(weights))`` of the current
  sorted row — kept in one table, summed again from the row whenever
  the row is replaced, never adjusted by ``+-w`` — so restoring a row's
  content (e.g. insert-then-delete of the same edge) restores its
  weighted degree *bitwise*.

The mirror stores undirected edges as two arcs, rejects self-loops, and
``snapshot()`` produces a :class:`~repro.graph.csr.CSRGraph` equal to
what ``CSRGraph.from_edges`` would build from the current edge set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, row_blocks, splice_rows
from repro.stream.updates import OP_UPSERT, UpdateBatch


_NO_IDS = np.empty(0, dtype=np.int64)
_NO_WEIGHTS = np.empty(0, dtype=np.float64)


@dataclass
class AppliedDelta:
    """Effect of one applied batch: changed vertices + arc-level counts.

    ``undo`` maps every vertex the batch touched to its pre-batch
    ``(gids, weights)`` row arrays, so :meth:`DynamicGraph.revert` can
    restore the mirror bitwise when the distributed application of the
    batch fails.  ``rows`` are the post-batch rows of ``changed``, laid
    out once by :meth:`DynamicGraph.apply` as CSR ``(indptr, gids,
    weights)`` in ``changed`` order — what the shard payloads ship
    (stale once the delta is reverted).
    """

    changed: np.ndarray  # sorted int64 vertex ids with changed rows
    arcs_inserted: int
    arcs_deleted: int
    arcs_reweighted: int
    undo: dict
    rows: tuple

    @property
    def n_changed(self) -> int:
        return int(self.changed.shape[0])

    def __bool__(self) -> bool:
        return self.n_changed > 0


def _find(gids: np.ndarray, gid: int) -> tuple[int, bool]:
    """Sorted position of ``gid`` in ``gids`` and whether it is there."""
    pos = int(np.searchsorted(gids, gid))
    return pos, pos < len(gids) and int(gids[pos]) == gid


def _with_entry(row, pos: int, present: bool, gid: int, weight: float):
    """Copy of ``row`` with ``gid`` at ``weight`` (sorted position ``pos``)."""
    return tuple(
        np.concatenate((col[:pos], np.array((x,)), col[pos + present:]))
        for col, x in zip(row, (gid, weight)))


def _without_entry(row, pos: int):
    """Copy of ``row`` with the entry at ``pos`` removed."""
    return tuple(np.concatenate((col[:pos], col[pos + 1:])) for col in row)


def _row_sums(indptr: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``np.sum`` of every CSR row, bitwise, in one pass per row length.

    The rows are gathered once in ascending length, so the rows of one
    length form one C-contiguous ``(n, L)`` block; summing it over axis 1
    adds each row exactly as ``np.sum`` adds it alone (pairwise, in the
    same order; ``np.add.reduceat`` would not).
    """
    lens = np.diff(indptr)
    order = np.argsort(lens, kind="stable")
    lens = lens[order]
    blocks = weights[row_blocks(indptr, order)[1]]
    bounds = np.flatnonzero(np.diff(lens)) + 1
    sums = np.empty(len(lens))
    a = pos = 0
    for b in bounds.tolist() + [len(lens)]:
        if b > a:
            n_rows, width = b - a, int(lens[a])
            end = pos + n_rows * width
            sums[a:b] = blocks[pos:end].reshape(n_rows, width).sum(axis=1)
            a, pos = b, end
    out = np.empty(len(lens))
    out[order] = sums
    return out


class DynamicGraph:
    """Mutable undirected adjacency over a fixed node set."""

    __slots__ = ("n_nodes", "_base", "_overlay", "_wdeg")

    def __init__(self, base: CSRGraph) -> None:
        idx, ptr = base.indices, base.indptr
        if len(idx) > 1:
            ascending = idx[1:] > idx[:-1]
            bounds = ptr[1:-1]
            bounds = bounds[(bounds > 0) & (bounds < len(idx))]
            ascending[bounds - 1] = True  # last entry of a row vs next row
            if not ascending.all():
                raise GraphFormatError(
                    "mirrored CSR rows must be strictly increasing in "
                    "neighbor id")
        self.n_nodes = base.n_nodes
        #: frozen rows; never written, replaced wholesale by snapshot()
        self._base = base
        #: rows replaced since the base was frozen (copy-on-write arrays)
        self._overlay: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: weighted degree of every vertex, summed from its current row
        self._wdeg = _row_sums(ptr, base.weights)

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "DynamicGraph":
        """Mirror a (symmetrized) CSR graph; shares its arrays."""
        return cls(graph)

    # -- queries ----------------------------------------------------------
    @property
    def n_arcs(self) -> int:
        ptr = self._base.indptr
        return self._base.n_arcs + sum(
            len(gids) - int(ptr[v + 1] - ptr[v])
            for v, (gids, _) in self._overlay.items())

    def has_edge(self, u: int, v: int) -> bool:
        return _find(self.row(u)[0], v)[1]

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids (sorted ascending) and aligned weights of ``u``.

        The arrays are shared (overlay entries or views of the base):
        callers must not write to them.
        """
        row = self._overlay.get(u)
        if row is None:
            base = self._base
            s, e = base.indptr[u], base.indptr[u + 1]
            row = base.indices[s:e], base.weights[s:e]
        return row

    def rows_of(self, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The given vertices' rows laid out as CSR ``(indptr, gids, wts)``."""
        rows = [self.row(v) for v in vertices]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(g) for g, _ in rows], out=indptr[1:], dtype=np.int64)
        return (indptr, np.concatenate([_NO_IDS] + [g for g, _ in rows]),
                np.concatenate([_NO_WEIGHTS] + [w for _, w in rows]))

    def wdeg(self, u: int) -> float:
        """Weighted degree: the sum over the current sorted row.

        Deliberately *not* maintained incrementally: the value is summed
        again from the row whenever the row is replaced, a pure function
        of the row content, so restoring a row restores its weighted
        degree bitwise — load-bearing for the metamorphic exactness
        checks.
        """
        return float(self._wdeg[u])

    def wdeg_of(self, gids) -> np.ndarray:
        """:meth:`wdeg` of every vertex in ``gids`` (a fresh array)."""
        return self._wdeg[gids]

    def _sum_rows(self, vertices: list) -> tuple:
        """Sum the weighted degrees of ``vertices`` from their rows; return
        the rows read (:meth:`rows_of`)."""
        rows = self.rows_of(vertices)
        self._wdeg[vertices] = _row_sums(rows[0], rows[2])
        return rows

    # -- mutation ---------------------------------------------------------
    def check(self, batch: UpdateBatch) -> None:
        """Reject a batch naming a vertex outside the fixed node set."""
        ends = np.concatenate((batch.src, batch.dst))
        if len(ends) and (ends.min() < 0 or ends.max() >= self.n_nodes):
            raise GraphFormatError(
                f"batch names a vertex outside the fixed node set of "
                f"{self.n_nodes} (streams never add nodes)")

    def apply(self, batch: UpdateBatch) -> AppliedDelta:
        """Apply a batch sequentially; report the effective delta.

        No-ops (delete of an absent edge, upsert at the existing weight)
        change nothing and mark nothing changed.  Endpoints are checked
        (:meth:`check`) before the first mutation, so a rejected batch
        leaves the mirror as it was.
        """
        self.check(batch)
        undo: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        inserted = deleted = reweighted = 0

        def replace(u: int, row) -> None:
            if u not in undo:
                undo[u] = self.row(u)
            self._overlay[u] = row

        for u, v, w, op in zip(batch.src.tolist(), batch.dst.tolist(),
                               batch.weight.tolist(), batch.op.tolist()):
            row_u, row_v = self.row(u), self.row(v)
            pos_u, present = _find(row_u[0], v)
            pos_v, mirrored = _find(row_v[0], u)
            if op == OP_UPSERT:
                if present and row_u[1][pos_u] == w:
                    continue
                replace(u, _with_entry(row_u, pos_u, present, v, w))
                replace(v, _with_entry(row_v, pos_v, mirrored, u, w))
                if present:
                    reweighted += 1
                else:
                    inserted += 1
            elif present:
                replace(u, _without_entry(row_u, pos_u))
                if mirrored:
                    replace(v, _without_entry(row_v, pos_v))
                deleted += 1
        changed = np.fromiter(sorted(undo), dtype=np.int64, count=len(undo))
        return AppliedDelta(changed, inserted, deleted, reweighted, undo,
                            self._sum_rows(changed.tolist()))

    def revert(self, delta: AppliedDelta) -> None:
        """Undo an applied batch, restoring every touched row bitwise.

        Puts the delta's saved pre-batch row arrays back, so rows — and
        therefore the weighted degrees, recomputed from them — match
        their pre-batch values bit for bit, also across an intervening
        :meth:`snapshot`.  Used when the distributed two-phase
        application of the batch aborts or rolls back.
        """
        self._overlay.update(delta.undo)
        self._sum_rows(list(delta.undo))

    # -- export -----------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """The current adjacency as an immutable CSR graph.

        Compacts: base and overlay are spliced once and the result
        becomes the new base, so an unchanged mirror answers with the
        same object in O(1).
        """
        if self._overlay:
            base, rows = self._base, list(self._overlay)
            ptr, gids, wts = self.rows_of(rows)
            indptr, (indices, weights) = splice_rows(
                base.indptr, (base.indices, base.weights),
                np.array(rows, dtype=np.int64), ptr[:-1], ptr[1:],
                (gids, wts))
            self._base = CSRGraph(self.n_nodes, indptr, indices, weights)
            self._overlay = {}
        return self._base
