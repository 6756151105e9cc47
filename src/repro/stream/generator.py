"""Seeded temporal edge-stream generator.

Produces GDELT-style timestamped batches of edge events over a *fixed*
node set (the temporal-graph datasets the GDELT loader ships batch
timestamped event edges between a fixed entity vocabulary; streams here
never add or remove nodes).  Each event is either an upsert — a new
edge, or a re-observation of an existing edge at a fresh weight — or a
deletion of a currently-live edge.  The generator tracks the live edge
set so deletes always target existing edges, and every draw flows from
:func:`repro.utils.rng.rng_from_seed`, making the stream a pure
function of its seed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.stream.updates import OP_DELETE, OP_UPSERT, UpdateBatch
from repro.utils.rng import rng_from_seed


class TemporalEdgeStream:
    """Deterministic stream of :class:`UpdateBatch` objects.

    Parameters
    ----------
    graph:
        Starting graph; its undirected edge set seeds the live set.
    seed:
        Stream seed (independent of the graph/partition seeds).
    batch_size:
        Events per batch.
    insert_frac:
        Probability an event is an upsert (vs. a delete of a live
        edge).  When no edges remain, events are forced to upserts.
    weight_low, weight_high:
        Uniform range for upsert weights.
    """

    def __init__(self, graph: CSRGraph, *, seed: int, batch_size: int = 16,
                 insert_frac: float = 0.6, weight_low: float = 0.5,
                 weight_high: float = 1.5) -> None:
        if graph.n_nodes < 2:
            raise GraphFormatError("stream needs at least 2 nodes")
        if batch_size < 1:
            raise GraphFormatError("batch_size must be >= 1")
        if not 0.0 <= insert_frac <= 1.0:
            raise GraphFormatError("insert_frac must be in [0, 1]")
        if not 0.0 < weight_low <= weight_high:
            raise GraphFormatError("need 0 < weight_low <= weight_high")
        self.n_nodes = graph.n_nodes
        self.batch_size = int(batch_size)
        self.insert_frac = float(insert_frac)
        self.weight_low = float(weight_low)
        self.weight_high = float(weight_high)
        # Domain-separated child stream: independent of the graph /
        # partition / walk streams even under equal integer seeds.
        self._rng = rng_from_seed(np.random.SeedSequence([0x57E4, seed]))
        self._t = 0
        # Live undirected edges as (u, v) with u < v: a list for O(1)
        # uniform sampling plus an index map for O(1) membership/removal.
        self._edges: list[tuple[int, int]] = []
        self._index: dict[tuple[int, int], int] = {}
        for u in range(graph.n_nodes):
            for v in graph.neighbors(u):
                v = int(v)
                if u < v:
                    self._index[(u, v)] = len(self._edges)
                    self._edges.append((u, v))

    @property
    def t(self) -> int:
        """Number of batches emitted so far (the stream clock)."""
        return self._t

    def _add(self, key: tuple[int, int]) -> None:
        if key not in self._index:
            self._index[key] = len(self._edges)
            self._edges.append(key)

    def _remove(self, key: tuple[int, int]) -> None:
        pos = self._index.pop(key)
        last = self._edges.pop()
        if pos < len(self._edges):
            self._edges[pos] = last
            self._index[last] = pos

    def next_batch(self) -> UpdateBatch:
        """Generate the next batch and advance the live edge set."""
        rng = self._rng
        src = np.empty(self.batch_size, dtype=np.int64)
        dst = np.empty(self.batch_size, dtype=np.int64)
        weight = np.empty(self.batch_size, dtype=np.float64)
        op = np.empty(self.batch_size, dtype=np.int8)
        for i in range(self.batch_size):
            do_insert = (not self._edges
                         or float(rng.random()) < self.insert_frac)
            if do_insert:
                u = int(rng.integers(self.n_nodes))
                v = int(rng.integers(self.n_nodes - 1))
                if v >= u:
                    v += 1  # uniform over pairs with v != u
                w = float(rng.uniform(self.weight_low, self.weight_high))
                key = (u, v) if u < v else (v, u)
                self._add(key)
                src[i], dst[i], weight[i], op[i] = u, v, w, OP_UPSERT
            else:
                key = self._edges[int(rng.integers(len(self._edges)))]
                self._remove(key)
                src[i], dst[i], weight[i], op[i] = key[0], key[1], 1.0, \
                    OP_DELETE
        self._t += 1
        return UpdateBatch(src, dst, weight, op)

    def batches(self, n: int) -> list[UpdateBatch]:
        """The next ``n`` batches, in stream order."""
        return [self.next_batch() for _ in range(n)]
