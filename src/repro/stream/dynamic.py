"""Driver-side mutable mirror of the deployed graph.

:class:`DynamicGraph` is the authoritative adjacency during streaming:
update batches apply here first, then the resulting *row replacements*
are shipped to the shards (:mod:`repro.stream.ingest`).  Every row is an
*extent* — where it begins, and its length (``starts`` / ``counts`` over
the node set) — into one of two places: the frozen
:class:`~repro.graph.csr.CSRGraph` the mirror was built from (the
*base*, shared with the graph and never copied), or an append-only
:class:`~repro.storage.neighbor_batch.RowBuffer` of the rows replaced
since.  An address at or past the base's length lies in the buffer.  So
mirroring a graph copies no column (one vectorised pass checks row order
and sums every row's degree), ``row(u)`` is one slice and ``rows_of`` one
gather, and a batch costs its changed rows: :meth:`DynamicGraph.apply`
reads the touched rows once, resolves every op in a few vectorised steps
(a Python loop runs only over the ops of edges the batch names more than
once, in batch order) and appends the changed rows as one sorted CSR
block.  Nothing |E|-sized happens until somebody asks for a whole graph
(:meth:`DynamicGraph.snapshot` packs base and buffer once and adopts the
result as the new base).

Space follows one fixed rule.  When an append does not fit, the live
appended rows — the vertices whose current row lies in the buffer — are
packed back to back in node order into a fresh buffer of ``2 * live``
entries, ``live`` counting the appended rows too; the rest of the old
buffer is dead (rows replaced since, or replaced again by a revert).  So
a buffer holds at most twice the live appended entries at its
compaction, and those are at most the current arcs; a compaction copies
``live`` entries once and leaves ``live`` free, which appends must fill
before the next one: amortized, one entry copy per appended entry.  (A
shard arena's 9/8 rule would compact every few batches here: the buffer
starts empty and grows by whole batches, not by a sliver of a full
arena.)

Three rules make the metamorphic exactness guarantees of the incremental
PPR layer possible:

* ``row(u)`` is always sorted by neighbor id;
* rows are **copy-on-write** — a changed row is appended, never written
  in place, and buffer entries below the fill are never written again (a
  compaction writes a new buffer), so an array ``row`` or ``rows_of``
  returned earlier keeps its content;
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
from repro.graph.csr import (CSRGraph, entry_rows, extent_blocks, row_blocks,
                             sorted_unique, splice_rows)
from repro.storage.neighbor_batch import RowBuffer
from repro.stream.updates import OP_UPSERT, UpdateBatch


@dataclass
class AppliedDelta:
    """Effect of one applied batch: changed vertices + arc-level counts.

    ``undo`` holds the pre-batch rows of ``changed`` as CSR ``(indptr,
    gids, weights)`` plus their weighted degrees, so
    :meth:`DynamicGraph.revert` can restore the mirror bitwise when the
    distributed application of the batch fails.  ``rows`` are the
    post-batch rows of ``changed``, laid out once by
    :meth:`DynamicGraph.apply` as CSR ``(indptr, gids, weights)`` in
    ``changed`` order — what the shard payloads ship (stale once the
    delta is reverted).
    """

    changed: np.ndarray  # sorted int64 vertex ids with changed rows
    arcs_inserted: int
    arcs_deleted: int
    arcs_reweighted: int
    undo: tuple
    rows: tuple

    @property
    def n_changed(self) -> int:
        return int(self.changed.shape[0])

    def __bool__(self) -> bool:
        return self.n_changed > 0


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


def _resolve(edge_of, side, upsert, weight, present, pre_w):
    """Each arc's state after the ops, applied in batch order.

    Op ``k`` names edge ``edge_of[k]`` and reads its arc ``side[k]`` (0:
    ``a -> b``, 1: ``b -> a``); ``present`` / ``pre_w`` are both arcs of
    every edge before the batch.  Returns ``(changed, final, final_w,
    (inserted, deleted, reweighted))``: per arc, whether an op replaced
    its owner's row through it, and if so whether the arc is there
    after the batch and at what weight.  Edges named once resolve in one
    vectorised step; a loop runs over the ops of the others only.
    """
    changed = np.zeros(present.shape, dtype=bool)
    final = np.zeros(present.shape, dtype=bool)
    final_w = np.zeros(present.shape)
    once = np.bincount(edge_of, minlength=present.shape[1])[edge_of] == 1
    k = np.flatnonzero(once)
    e, s, up, w = edge_of[k], side[k], upsert[k], weight[k]
    own, mirrored = present[s, e], present[1 - s, e]
    effective = np.where(up, ~(own & (pre_w[s, e] == w)), own)
    changed[s, e] = effective
    changed[1 - s, e] = effective & (up | mirrored)
    final[:, e] = up
    final_w[:, e] = w
    inserted = int(np.count_nonzero(effective & up & ~own))
    deleted = int(np.count_nonzero(effective & ~up))
    reweighted = int(np.count_nonzero(effective & up & own))

    k = np.flatnonzero(~once)
    arcs: dict[int, tuple[list, list, list]] = {}
    for e, s, up, w in zip(edge_of[k].tolist(), side[k].tolist(),
                           upsert[k].tolist(), weight[k].tolist()):
        if e not in arcs:
            arcs[e] = (present[:, e].tolist(), pre_w[:, e].tolist(),
                       [False, False])
        p, pw, c = arcs[e]
        if up:
            if p[s] and pw[s] == w:
                continue
            if p[s]:
                reweighted += 1
            else:
                inserted += 1
            p[:], pw[:], c[:] = (True, True), (w, w), (True, True)
        elif p[s]:
            deleted += 1
            p[s], c[s] = False, True
            if p[1 - s]:
                p[1 - s], c[1 - s] = False, True
    if arcs:
        e = list(arcs)
        p, pw, c = (np.array(col).T for col in zip(*arcs.values()))
        final[:, e], final_w[:, e], changed[:, e] = p, pw, c
    return changed, final, final_w, (inserted, deleted, reweighted)


class DynamicGraph:
    """Mutable undirected adjacency over a fixed node set."""

    __slots__ = ("n_nodes", "_base", "_starts", "_counts", "_buffer",
                 "_appended", "_wdeg")

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
        self._adopt(base)
        #: weighted degree of every vertex, summed from its current row
        self._wdeg = _row_sums(ptr, base.weights)

    def _adopt(self, base: CSRGraph) -> None:
        """Make ``base`` the frozen rows, every extent pointing into it."""
        #: frozen rows; never written, replaced wholesale by snapshot()
        self._base = base
        # repro: allow=REP011 the |V| extents, once per base, not per batch
        self._starts = base.indptr[:-1].copy()
        self._counts = np.diff(base.indptr)
        #: replaced rows, addressed past the base's length
        self._buffer = RowBuffer(0, base.indices.dtype, base.weights.dtype)
        #: vertices appended since the last compaction (or the live ones
        #: it packed), whose rows lie in the buffer
        self._appended: list[np.ndarray] = []

    @classmethod
    def from_csr(cls, graph: CSRGraph) -> "DynamicGraph":
        """Mirror a (symmetrized) CSR graph; shares its arrays."""
        return cls(graph)

    # -- queries ----------------------------------------------------------
    @property
    def n_arcs(self) -> int:
        return int(self._counts.sum())

    def has_edge(self, u: int, v: int) -> bool:
        gids = self.row(u)[0]
        pos = int(np.searchsorted(gids, v))
        return pos < len(gids) and int(gids[pos]) == v

    def row(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor ids (sorted ascending) and aligned weights of ``u``.

        The arrays are views of the base or the buffer: callers must not
        write to them.
        """
        s, c = int(self._starts[u]), int(self._counts[u])
        base = self._base
        if s < len(base.indices):
            return base.indices[s:s + c], base.weights[s:s + c]
        s -= len(base.indices)
        return self._buffer.ids[s:s + c], self._buffer.weights[s:s + c]

    def rows_of(self, vertices) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The given vertices' rows laid out as CSR ``(indptr, gids, wts)``,
        gathered by their extents."""
        indptr, idx = extent_blocks(self._starts[vertices],
                                    self._counts[vertices])
        return (indptr, *self._read(idx))

    def _read(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(gids, weights)`` at addresses ``idx`` (base, then buffer)."""
        base, buf = self._base, self._buffer
        end = len(base.indices)
        appended = idx >= end
        if not appended.any():
            return base.indices[idx], base.weights[idx]
        out = []
        for base_col, buf_col in ((base.indices, buf.ids),
                                  (base.weights, buf.weights)):
            col = np.empty(len(idx), dtype=base_col.dtype)
            col[~appended] = base_col[idx[~appended]]
            col[appended] = buf_col[idx[appended] - end]
            out.append(col)
        return out[0], out[1]

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

    # -- mutation ---------------------------------------------------------
    def check(self, batch: UpdateBatch) -> None:
        """Reject a batch naming a vertex outside the fixed node set."""
        if len(batch) and (
                min(batch.src.min(), batch.dst.min()) < 0
                or max(batch.src.max(), batch.dst.max()) >= self.n_nodes):
            raise GraphFormatError(
                f"batch names a vertex outside the fixed node set of "
                f"{self.n_nodes} (streams never add nodes)")

    def apply(self, batch: UpdateBatch) -> AppliedDelta:
        """Apply a batch as if op by op, in order; report the effective
        delta.

        An op reads its own ``src -> dst`` arc.  No-ops (delete of an
        absent arc, upsert at the existing weight) change nothing and
        mark nothing changed; a row an op replaced is changed even if a
        later op restores it.  Endpoints are checked (:meth:`check`)
        before the first mutation, so a rejected batch leaves the mirror
        as it was.

        The ops are grouped by undirected edge ``{a < b}``.  One
        ``searchsorted`` over the touched rows reads both arcs of every
        edge before the batch; edges named once resolve in one vectorised
        step, edges named more than once by a loop over their ops only.
        The changed rows are the pre-batch rows with each changed arc's
        entry dropped and its final entry inserted, one sorted block.
        """
        self.check(batch)
        n = self.n_nodes
        lo = np.minimum(batch.src, batch.dst)
        key = lo * n + np.maximum(batch.src, batch.dst)
        edges = sorted_unique(key)
        a, b = np.divmod(edges, n)
        touched = sorted_unique(a, b)
        ptr, gids, wts = self.rows_of(touched)
        # arc a -> b in row 0, b -> a in row 1: its owner's touched row,
        # its neighbor, and where it is (or would go) in the touched rows
        owner = np.searchsorted(touched, np.array((a, b)))
        other = np.array((b, a))
        want = owner * n + other
        keys = entry_rows(ptr) * n + gids
        pos = np.searchsorted(keys, want)
        present = np.zeros(want.shape, dtype=bool)
        inside = pos < len(keys)
        present[inside] = keys[pos[inside]] == want[inside]
        pre_w = np.zeros(want.shape)
        pre_w[present] = wts[pos[present]]
        edge_of = np.searchsorted(edges, key)
        changed_arc, final, final_w, counts = _resolve(
            edge_of, (batch.src != lo).astype(np.intp),
            batch.op == OP_UPSERT, batch.weight, present, pre_w)

        is_changed = np.zeros(len(touched), dtype=bool)
        is_changed[owner[changed_arc]] = True
        rows = np.flatnonzero(is_changed)
        changed = touched[rows]
        old_ptr, idx = row_blocks(ptr, rows)
        undo = (old_ptr, gids[idx], wts[idx], self._wdeg[changed])
        # a touched row's positions, moved to its place in the block
        shift = np.zeros(len(touched), dtype=np.int64)
        shift[rows] = old_ptr[:-1] - ptr[rows]
        at = pos + shift[owner]
        drop = changed_arc & present
        add = changed_arc & final
        dropped = np.sort(at[drop])
        order = np.argsort(want[add])  # by row, then by neighbor
        ins = at[add][order]
        ins -= np.searchsorted(dropped, ins)
        new_gids = np.insert(np.delete(undo[1], dropped), ins,
                             other[add][order])
        new_wts = np.insert(np.delete(undo[2], dropped), ins,
                            final_w[add][order])
        grown = (np.bincount(owner[add], minlength=len(touched))
                 - np.bincount(owner[drop], minlength=len(touched)))
        new_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(np.diff(old_ptr) + grown[rows], out=new_ptr[1:])
        if len(changed):
            self._wdeg[changed] = _row_sums(new_ptr, new_wts)
            self._append(changed, new_ptr, new_gids, new_wts)
        return AppliedDelta(changed, *counts, undo,
                            (new_ptr, new_gids, new_wts))

    def revert(self, delta: AppliedDelta) -> None:
        """Undo an applied batch, restoring every touched row bitwise.

        Appends the delta's saved pre-batch rows and puts their degrees
        back, so rows and weighted degrees match their pre-batch values
        bit for bit, also across an intervening :meth:`snapshot` or
        compaction.  Used when the distributed two-phase application of
        the batch aborts or rolls back.
        """
        if delta:
            ptr, gids, wts, wdeg = delta.undo
            self._append(delta.changed, ptr, gids, wts)
            self._wdeg[delta.changed] = wdeg

    def _append(self, vertices: np.ndarray, ptr: np.ndarray,
                gids: np.ndarray, wts: np.ndarray) -> None:
        """Make CSR block ``(ptr, gids, wts)`` the rows of ``vertices``,
        written past the buffer's fill; compacts first (the module
        docstring's rule) when they do not fit."""
        starts, counts = self._starts, self._counts
        end = len(self._base.indices)
        buf, need = self._buffer, len(gids)
        self._appended.append(vertices)
        if buf.fill + need > len(buf.ids):
            counts[vertices] = 0  # their old rows die here
            live = sorted_unique(*self._appended)
            packed, idx = extent_blocks(starts[live] - end, counts[live])
            fill = int(packed[-1])
            total = fill + need
            new = RowBuffer(2 * total, buf.ids.dtype, buf.weights.dtype)
            buf.ids.take(idx, out=new.ids[:fill])
            buf.weights.take(idx, out=new.weights[:fill])
            starts[live] = end + packed[:-1]
            buf = self._buffer = new
            buf.fill = fill
            self._appended = [live]
        at = buf.fill
        buf.ids[at:at + need] = gids
        buf.weights[at:at + need] = wts
        starts[vertices] = end + at + ptr[:-1]
        counts[vertices] = np.diff(ptr)
        buf.fill = at + need

    # -- export -----------------------------------------------------------
    def snapshot(self) -> CSRGraph:
        """The current adjacency as an immutable CSR graph.

        Compacts: base and the buffer's live rows are spliced once and the
        result becomes the new base (the buffer starts empty again), so an
        unchanged mirror answers with the same object in O(1).
        """
        if self._appended:
            base, buf = self._base, self._buffer
            rows = sorted_unique(*self._appended)
            starts = self._starts[rows] - len(base.indices)
            # repro: allow=REP011 snapshot's pack, once per snapshot
            indptr, (indices, weights) = splice_rows(
                base.indptr, (base.indices, base.weights), rows, starts,
                starts + self._counts[rows], (buf.ids, buf.weights))
            self._adopt(CSRGraph(self.n_nodes, indptr, indices, weights))
        return self._base
