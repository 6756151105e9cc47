"""Edge-update batches: the unit of streaming graph mutation.

An :class:`UpdateBatch` is an ordered list of *edge* operations over the
graph's fixed node set — ``op = +1`` upserts the undirected edge
``{src, dst}`` at ``weight`` (insert if absent, reweight if present) and
``op = -1`` deletes it.  Order matters: the batch is applied
sequentially to the :class:`~repro.stream.dynamic.DynamicGraph` mirror,
so a later operation on the same edge wins.  Batches are value objects;
splitting and re-concatenating a batch yields the same applied effect,
which the metamorphic suite in ``tests/test_stream_incremental.py``
relies on.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError

OP_UPSERT = 1
OP_DELETE = -1


def _int_column(name: str, values, dtype) -> np.ndarray:
    """``values`` as a contiguous 1-D ``dtype`` array, or a typed error."""
    arr = np.asarray(values)
    # bool is not an integer dtype to NumPy, so [True, False] fails too
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise GraphFormatError(
            f"update batch {name} must be a 1-D array of integers, "
            f"got shape {arr.shape} dtype {arr.dtype}"
        )
    return np.ascontiguousarray(arr, dtype=dtype)


class UpdateBatch:
    """An ordered batch of undirected edge upserts/deletes.

    Parameters
    ----------
    src, dst:
        Edge endpoints (global node ids, ``src != dst``).
    weight:
        Edge weight for upserts (must be > 0 there); ignored for deletes.
    op:
        ``+1`` (upsert) or ``-1`` (delete) per operation.

    ``src``, ``dst`` and ``op`` must be 1-D arrays of integer dtype: floats,
    bools and 2-D arrays raise :class:`GraphFormatError` rather than being
    truncated or flattened.
    """

    __slots__ = ("src", "dst", "weight", "op")

    def __init__(self, src, dst, weight, op) -> None:
        self.src = _int_column("src", src, np.int64)
        self.dst = _int_column("dst", dst, np.int64)
        self.weight = np.ascontiguousarray(weight, dtype=np.float64)
        self.op = _int_column("op", op, np.int8)
        n = self.src.shape[0]
        if not (self.dst.shape[0] == self.weight.shape[0]
                == self.op.shape[0] == n):
            raise GraphFormatError("update batch arrays must share length")
        if n and bool(np.any(self.src == self.dst)):
            raise GraphFormatError("self-loop in update batch")
        if n and not bool(np.all(np.isin(self.op, (OP_UPSERT, OP_DELETE)))):
            raise GraphFormatError("update ops must be +1 (upsert) or -1 "
                                   "(delete)")
        upsert_weight = self.weight[self.op == OP_UPSERT]
        if not np.isfinite(upsert_weight).all():
            raise GraphFormatError("upsert weights must be finite")
        if np.any(upsert_weight <= 0.0):
            raise GraphFormatError("upsert weights must be positive")

    def __len__(self) -> int:
        return int(self.src.shape[0])

    @property
    def n_upserts(self) -> int:
        return int(np.count_nonzero(self.op == OP_UPSERT))

    @property
    def n_deletes(self) -> int:
        return int(np.count_nonzero(self.op == OP_DELETE))

    @classmethod
    def empty(cls) -> "UpdateBatch":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64),
                   np.empty(0, np.float64), np.empty(0, np.int8))

    @classmethod
    def concat(cls, batches) -> "UpdateBatch":
        """Concatenate batches in order (merge of a split stream)."""
        batches = list(batches)
        if not batches:
            return cls.empty()
        return cls(
            np.concatenate([b.src for b in batches]),
            np.concatenate([b.dst for b in batches]),
            np.concatenate([b.weight for b in batches]),
            np.concatenate([b.op for b in batches]),
        )

    def split(self, at: int) -> tuple["UpdateBatch", "UpdateBatch"]:
        """Split into (ops[:at], ops[at:]) preserving order."""
        if not 0 <= at <= len(self):
            raise GraphFormatError(f"split point {at} outside batch of "
                                   f"{len(self)}")
        return (
            UpdateBatch(self.src[:at], self.dst[:at],
                        self.weight[:at], self.op[:at]),
            UpdateBatch(self.src[at:], self.dst[at:],
                        self.weight[at:], self.op[at:]),
        )

    def inverse_of_inserts(self, graph_like) -> "UpdateBatch":
        """A batch that deletes every edge this batch would insert.

        ``graph_like`` must expose ``has_edge(u, v)`` for the *pre*-batch
        state; only upserts of edges absent there become deletes (a
        reweight's inverse would be the old weight, not a delete).
        Used by the insert-then-delete metamorphic test.
        """
        keep = [i for i in range(len(self))
                if self.op[i] == OP_UPSERT
                and not graph_like.has_edge(int(self.src[i]),
                                            int(self.dst[i]))]
        idx = np.asarray(keep, dtype=np.int64)
        return UpdateBatch(self.src[idx][::-1], self.dst[idx][::-1],
                           self.weight[idx][::-1],
                           np.full(idx.shape[0], OP_DELETE, np.int8))

    def describe(self) -> dict:
        return {
            "n_ops": len(self),
            "n_upserts": self.n_upserts,
            "n_deletes": self.n_deletes,
        }
