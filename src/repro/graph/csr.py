"""Edge-weighted graphs in Compressed Sparse Row form.

:class:`CSRGraph` is the canonical single-machine representation: for node
``v``, its out-neighbors are ``indices[indptr[v]:indptr[v+1]]`` with parallel
``weights``.  Graphs are stored *directed* internally; the evaluation
pipeline always symmetrizes on construction (the paper converts every
dataset to undirected with random edge weights).

The builder removes self-loops and merges duplicate arcs (keeping the first
weight), and precomputes **weighted degrees** — the Forward Push threshold
denominators the paper stores per shard so pushes never aggregate edge
weights on the fly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphFormatError
from repro.utils.validation import check_same_length


class CSRGraph:
    """Immutable edge-weighted directed graph in CSR form.

    ``weighted_degrees[v]`` is the sum of ``v``'s outgoing edge weights,
    taken as differences of one global cumulative sum; that association
    differs in the last bits from the per-row ``np.sum`` the streaming
    mirror (:class:`~repro.stream.dynamic.DynamicGraph`) uses (on the
    full-scale products stand-in, on 24 998 of 25 000 rows, by at most
    3.2e-11 relative), so a graph's and a mirror's degree of one row agree
    to float tolerance, not bitwise.
    """

    __slots__ = ("n_nodes", "indptr", "indices", "weights", "weighted_degrees")

    def __init__(self, n_nodes: int, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if n_nodes < 0:
            raise GraphFormatError(f"n_nodes must be >= 0, got {n_nodes}")
        if indptr.shape != (n_nodes + 1,):
            raise GraphFormatError(
                f"indptr must have shape ({n_nodes + 1},), got {indptr.shape}"
            )
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must start at 0 and be nondecreasing")
        check_same_length(indices=indices, weights=weights)
        if indptr[-1] != len(indices):
            raise GraphFormatError(
                f"indptr[-1]={indptr[-1]} != len(indices)={len(indices)}"
            )
        if len(indices) and (indices.min() < 0 or indices.max() >= n_nodes):
            raise GraphFormatError("indices out of range")
        if not np.isfinite(weights).all():
            raise GraphFormatError("edge weights must be finite")
        if np.any(weights < 0):
            raise GraphFormatError("negative edge weights are not supported")
        self.n_nodes = int(n_nodes)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # Weighted out-degree: sum of outgoing edge weights per node,
        # via cumulative-sum segment differences (robust to empty rows),
        # summed straight into one E+1 buffer: one E-sized temporary.
        csum = np.zeros(len(weights) + 1)
        np.cumsum(weights, out=csum[1:])
        self.weighted_degrees = csum[indptr[1:]] - csum[indptr[:-1]]

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_edges(cls, n_nodes: int, src, dst, weights=None, *,
                   symmetrize: bool = True) -> "CSRGraph":
        """Build from arc lists, deduplicating and dropping self-loops.

        With ``symmetrize=True`` (the evaluation default) every arc is
        mirrored, producing an undirected graph stored as two arcs.
        Duplicate arcs keep the largest weight.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        check_same_length(src=src, dst=dst)
        if weights is None:
            weights = np.ones(len(src), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            check_same_length(src=src, weights=weights)
        if len(src) and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n_nodes):
            raise GraphFormatError("edge endpoints out of range")

        if symmetrize:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
            weights = np.concatenate([weights, weights])

        keep = src != dst
        src, dst, weights = src[keep], dst[keep], weights[keep]

        # Sort by (src, dst, weight) and drop duplicate arcs keeping the
        # largest weight — a symmetric rule, so mirrored duplicates resolve
        # identically in both directions and the graph stays undirected.
        order = np.lexsort((weights, dst, src))
        src, dst, weights = src[order], dst[order], weights[order]
        if len(src):
            uniq = np.empty(len(src), dtype=bool)
            uniq[-1] = True
            uniq[:-1] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            src, dst, weights = src[uniq], dst[uniq], weights[uniq]

        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_nodes, indptr, dst, weights)

    @classmethod
    def from_scipy(cls, matrix) -> "CSRGraph":
        """Build from any scipy sparse matrix (rows = sources)."""
        csr = sp.csr_matrix(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise GraphFormatError(f"adjacency must be square, got {csr.shape}")
        csr.sum_duplicates()
        return cls(csr.shape[0], csr.indptr.astype(np.int64),
                   csr.indices.astype(np.int64), csr.data.astype(np.float64))

    # -- accessors -----------------------------------------------------------
    @property
    def n_arcs(self) -> int:
        """Number of stored directed arcs (2x edges for undirected graphs)."""
        return len(self.indices)

    def out_degree(self, v: int | None = None):
        """Out-degree of ``v``, or the full degree array if ``v`` is None."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbor IDs of ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Outgoing edge weights of ``v`` (a view, do not mutate)."""
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def has_arc(self, u: int, v: int) -> bool:
        """Whether the arc ``u -> v`` exists."""
        row = self.neighbors(u)
        pos = np.searchsorted(row, v)
        return bool(pos < len(row) and row[pos] == v)

    def to_scipy(self) -> sp.csr_matrix:
        """The weighted adjacency as ``scipy.sparse.csr_matrix``."""
        return sp.csr_matrix(
            (self.weights, self.indices, self.indptr),
            shape=(self.n_nodes, self.n_nodes),
        )

    def transition_matrix(self) -> sp.csr_matrix:
        """Row-stochastic transition matrix ``D_w^{-1} A`` (zero rows kept)."""
        inv = np.zeros(self.n_nodes)
        nz = self.weighted_degrees > 0
        inv[nz] = 1.0 / self.weighted_degrees[nz]
        return sp.diags(inv) @ self.to_scipy()

    def is_symmetric(self) -> bool:
        """Whether the stored arc structure is symmetric (undirected)."""
        a = self.to_scipy()
        diff = (a != a.T)
        return diff.nnz == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSRGraph(n_nodes={self.n_nodes}, n_arcs={self.n_arcs})"


def row_blocks(indptr: np.ndarray, rows: np.ndarray):
    """``(block indptr, flat entry index)`` gathering CSR ``rows`` in order."""
    starts = indptr[rows]
    return extent_blocks(starts, indptr[rows + 1] - starts)


def extent_blocks(starts: np.ndarray, counts: np.ndarray):
    """``(block indptr, flat entry index)`` gathering, in order, the rows
    that begin at ``starts`` and hold ``counts`` entries — rows of a CSR
    layout or rows stored anywhere in their columns."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out, np.repeat(starts - out[:-1], counts) + np.arange(out[-1])


def entry_rows(indptr: np.ndarray) -> np.ndarray:
    """The row index of every entry of a CSR layout."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def sorted_unique(*arrays: np.ndarray) -> np.ndarray:
    """``np.unique`` of the arrays' values together, by sorting.

    ``np.unique`` in NumPy 2.4 builds a hash table first, which on a few
    hundred ids takes about 45 us against 8 us here, and the streaming
    path calls it on every batch and refresh (EXPERIMENTS.md).
    """
    vs = np.sort(arrays[0] if len(arrays) == 1 else np.concatenate(arrays))
    first = np.ones(len(vs), dtype=bool)
    first[1:] = vs[1:] != vs[:-1]
    return vs[first]


def splice_rows(indptr: np.ndarray, columns, rows: np.ndarray,
                starts: np.ndarray, ends: np.ndarray, row_columns):
    """Replace whole CSR rows by contiguous block copies.

    Row ``rows[j]`` (unique ids, any order) becomes
    ``row_columns[c][starts[j]:ends[j]]`` in every column ``c``; all other
    rows keep their content.  The kept entries between two consecutive
    replaced rows are one run in the old and the new layout alike, so the
    work is two slice copies per replaced row and column rather than
    per-entry index arithmetic over the whole arena.  Returns
    ``(new_indptr, new_columns)``; the inputs are not written to.
    """
    counts = np.diff(indptr)
    counts[rows] = ends - starts
    new_indptr = np.zeros(len(indptr), dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    out = [np.empty(int(new_indptr[-1]), dtype=col.dtype) for col in columns]
    order = np.argsort(rows, kind="stable")
    ids = rows[order]
    old_s, old_e = indptr[ids].tolist(), indptr[ids + 1].tolist()
    new_s, new_e = new_indptr[ids].tolist(), new_indptr[ids + 1].tolist()
    blk_s, blk_e = starts[order].tolist(), ends[order].tolist()
    src = dst = 0
    for i in range(len(ids)):
        for new, old, blk in zip(out, columns, row_columns):
            new[dst:new_s[i]] = old[src:old_s[i]]
            new[new_s[i]:new_e[i]] = blk[blk_s[i]:blk_e[i]]
        src, dst = old_e[i], new_e[i]
    for new, old in zip(out, columns):
        new[dst:] = old[src:]
    return new_indptr, out
