"""Differential equivalence suite for streaming graph updates.

The headline guarantee of the streaming layer is pinned here from three
angles:

* **incremental == recompute** (property-based): after every applied
  batch, the incrementally maintained ``(p, r)`` matches a from-scratch
  Forward Push on the updated graph within the combined residual bound
  — the same ``rmax``-style tolerance the paper publishes;
* **metamorphic exactness**: insert-then-delete of the same edges
  restores the published vector *bitwise*, and splitting/merging the
  same stream yields bitwise-identical final vectors;
* **splice == rebuild**: the two-phase distributed application leaves
  every shard reading the rows a fresh ``build_shards`` of the updated
  graph holds, and right after a compaction storing them entry for
  entry as that build does (weighted-degree columns agree to float
  tolerance — they are sums of the same terms in a different order).
"""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, GraphEngine
from repro.errors import GraphFormatError, ShardError
from repro.graph import powerlaw_cluster
from repro.graph.csr import CSRGraph, splice_rows
from repro.ppr import PPRParams
from repro.ppr.forward_push_seq import forward_push_sequential
from repro.ppr.incremental import (IncrementalState, RefreshStats,
                                   _push_back, accuracy_bound, refresh)
from repro.storage.build import build_shards
from repro.storage.shard_update import ShardUpdate
from repro.storage.vertex_prop import gather_rows
from repro.stream import (DynamicGraph, StreamConfig, StreamEvent,
                          StreamingSession, TemporalEdgeStream, UpdateBatch,
                          build_shard_payloads, ingest_on_cluster)

PARAMS = PPRParams(alpha=0.2, epsilon=1e-4)


def small_graph(seed=0, n=40, m=160):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    w = rng.uniform(0.5, 1.5, size=len(edges))
    return CSRGraph.from_edges(n, edges[:, 0], edges[:, 1], w)


def touched_vertices(batch):
    return np.unique(np.concatenate([batch.src, batch.dst]))


def apply_tracked(state, dyn, batch):
    """Capture pre-rows, then mutate — the session's ingestion order."""
    state.capture_pre_rows(dyn, touched_vertices(batch))
    return dyn.apply(batch)


# -- update batches ---------------------------------------------------------

class TestUpdateBatch:
    def test_validation(self):
        with pytest.raises(GraphFormatError):
            UpdateBatch([0], [0], [1.0], [1])          # self-loop
        with pytest.raises(GraphFormatError):
            UpdateBatch([0], [1], [1.0], [2])          # bad op
        with pytest.raises(GraphFormatError):
            UpdateBatch([0], [1], [0.0], [1])          # nonpositive upsert
        with pytest.raises(GraphFormatError):
            UpdateBatch([0, 1], [1], [1.0], [1])       # ragged

    @pytest.mark.parametrize("src, dst, op", [
        ([0.7, 2.9], [1, 3], [1, 1]),              # float src: no truncation
        ([0, 2], [1.0, 3.0], [1, 1]),              # float dst, even integral
        ([True, False], [2, 3], [1, 1]),           # bool endpoints
        ([[0, 2]], [[1, 3]], [[1, 1]]),            # 2-D columns
        ([0, 2], [1, 3], [1.9, 1.0]),              # float op: 1.9 is not 1
    ])
    def test_non_integer_or_non_1d_columns_rejected(self, src, dst, op):
        with pytest.raises(GraphFormatError, match="1-D array of integers"):
            UpdateBatch(src, dst, [1.0, 1.0], op)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_upsert_weight_rejected(self, bad):
        with pytest.raises(GraphFormatError, match="finite"):
            UpdateBatch([0, 2], [1, 3], [1.0, bad], [1, 1])
        # a delete's weight is ignored, so it is not inspected either
        assert UpdateBatch([0, 2], [1, 3], [1.0, bad], [1, -1]).n_deletes == 1

    def test_split_concat_roundtrip(self):
        b = UpdateBatch([0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0], [1, 1, -1])
        head, tail = b.split(2)
        back = UpdateBatch.concat([head, tail])
        assert np.array_equal(back.src, b.src)
        assert np.array_equal(back.weight, b.weight)
        assert np.array_equal(back.op, b.op)
        assert b.n_upserts == 2 and b.n_deletes == 1

    def test_inverse_of_inserts_targets_only_new_edges(self):
        g = small_graph()
        dyn = DynamicGraph.from_csr(g)
        u, v = 0, 1
        assert not dyn.has_edge(38, 39)
        existing = next((int(x) for x in g.neighbors(0)), None)
        assert existing is not None
        b = UpdateBatch([38, 0], [39, existing], [1.0, 2.0], [1, 1])
        inv = b.inverse_of_inserts(dyn)
        # only the genuinely-new edge gets a delete; the reweight does not
        assert len(inv) == 1
        assert (int(inv.src[0]), int(inv.dst[0])) == (38, 39)


# -- the dynamic mirror -----------------------------------------------------

class TestDynamicGraph:
    def test_snapshot_roundtrip_is_bitwise(self):
        g = small_graph()
        snap = DynamicGraph.from_csr(g).snapshot()
        assert np.array_equal(snap.indptr, g.indptr)
        assert np.array_equal(snap.indices, g.indices)
        assert np.array_equal(snap.weights, g.weights)

    def test_apply_then_revert_is_bitwise(self):
        g = small_graph()
        dyn = DynamicGraph.from_csr(g)
        stream = TemporalEdgeStream(g, seed=7, batch_size=16)
        deltas = [dyn.apply(b) for b in stream.batches(3)]
        for delta in reversed(deltas):
            dyn.revert(delta)
        snap = dyn.snapshot()
        assert np.array_equal(snap.indices, g.indices)
        assert np.array_equal(snap.weights, g.weights)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grouped_degrees_add_each_row_as_np_sum(self, seed):
        """The mirror sums its base rows when it is built, and each row
        ``apply`` replaces, in length buckets (``revert`` puts back the
        sums of the rows it restores); every degree
        it reports must be bitwise the ``np.sum`` of that row alone, on
        base rows and appended rows, at row lengths around the pairwise-sum
        boundaries (8 and 128 unrolled, 8192 blocked)."""
        lengths = (0, 7, 8, 9, 128, 129, 8192, 8193)
        rng = np.random.default_rng(seed)
        n_hubs, n_leaves = len(lengths), max(lengths) + 2
        src = np.concatenate([np.full(n, h) for h, n in enumerate(lengths)])
        dst = n_hubs + np.concatenate([rng.choice(n_leaves, n, replace=False)
                                       for n in lengths])
        # magnitudes over 9 decades: association changes the low bits
        w = rng.random(len(src)) * 10.0 ** rng.integers(-4, 5, len(src))
        g = CSRGraph.from_edges(n_hubs + n_leaves, src, dst, w)
        assert [g.out_degree(h) for h in range(n_hubs)] == list(lengths)

        def assert_np_sum_bitwise(dyn, gids):
            want = np.array([np.sum(dyn.row(u)[1]) for u in gids.tolist()])
            got = dyn.wdeg_of(gids)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            again = np.array([dyn.wdeg(u) for u in gids.tolist()])
            assert np.array_equal(again.view(np.int64), want.view(np.int64))

        everyone = np.arange(g.n_nodes)
        dyn = DynamicGraph.from_csr(g)
        # duplicates, and the hubs read twice
        assert_np_sum_bitwise(dyn, np.concatenate([everyone[::-1],
                                                   everyone[:n_hubs]]))
        # appended rows: each hub gains a leaf or loses one (0 gains only)
        ops = []
        for h, n in enumerate(lengths):
            nbrs = dyn.row(h)[0]
            absent = next(int(v) for v in range(n_hubs, g.n_nodes)
                          if v not in set(nbrs.tolist()))
            ops.append((h, absent, 0.37 * (h + 1), 1))
            if n:
                ops.append((h, int(nbrs[n // 2]), 1.0, -1))
        delta = dyn.apply(UpdateBatch(*zip(*ops)))
        assert set(range(n_hubs)) <= set(delta.changed.tolist())
        assert_np_sum_bitwise(dyn, everyone)
        dyn.revert(delta)
        assert_np_sum_bitwise(dyn, everyone)

    def test_snapshot_matches_from_edges(self):
        g = small_graph()
        dyn = DynamicGraph.from_csr(g)
        dyn.apply(UpdateBatch([0, 2], [5, 7], [1.25, 0.8], [1, 1]))
        snap = dyn.snapshot()
        srcs, dsts, wts = [], [], []
        for u in range(snap.n_nodes):
            gids, ws = dyn.row(u)
            for v, w in zip(gids, ws):
                if u < v:
                    srcs.append(u), dsts.append(int(v)), wts.append(float(w))
        rebuilt = CSRGraph.from_edges(snap.n_nodes, srcs, dsts, wts)
        assert np.array_equal(snap.indptr, rebuilt.indptr)
        assert np.array_equal(snap.indices, rebuilt.indices)
        assert np.array_equal(snap.weights, rebuilt.weights)

    def test_streams_never_add_nodes(self):
        dyn = DynamicGraph.from_csr(small_graph())
        with pytest.raises(GraphFormatError):
            dyn.apply(UpdateBatch([0], [40], [1.0], [1]))

    def test_rejected_batch_leaves_mirror_untouched(self):
        """Endpoints are checked before the first mutation: op 0 of a
        batch whose op 1 is out of range must not have been applied."""
        g = small_graph()
        dyn = DynamicGraph.from_csr(g)
        absent = next(v for v in range(1, 40) if not dyn.has_edge(0, v))
        arcs = dyn.n_arcs
        for bad in (999, -1):
            with pytest.raises(GraphFormatError):
                dyn.apply(UpdateBatch([0, 5], [absent, bad], [1.0, 1.0],
                                      [1, 1]))
            assert dyn.n_arcs == arcs
            assert not dyn.has_edge(0, absent)
        assert dyn.snapshot() is g  # nothing was ever overlaid

    def test_unsorted_rows_are_rejected(self):
        g = CSRGraph(3, [0, 2, 3, 4], [2, 1, 0, 0], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(GraphFormatError):
            DynamicGraph.from_csr(g)


def _compacts(dyn, batches):
    """Apply ``batches``; yield ``(delta, compacted)`` per batch."""
    for batch in batches:
        buffer = dyn._buffer
        delta = dyn.apply(batch)
        yield delta, dyn._buffer is not buffer


def _live_appended(dyn):
    """Entries of the rows that lie in the mirror's buffer."""
    return int(dyn._counts[dyn._starts >= len(dyn._base.indices)].sum())


class TestMirrorExtents:
    """The mirror's rows are extents into the base and one append-only
    buffer: ``apply`` and ``rows_of`` gather, never read row by row, and
    the buffer compacts by one rule without moving what a reader holds."""

    def test_apply_and_rows_of_never_call_row(self, monkeypatch):
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        dyn = DynamicGraph.from_csr(g)
        batches = TemporalEdgeStream(g, seed=2, batch_size=24).batches(12)

        def tripwire(self, u):
            raise AssertionError("a per-row read on the batch path")

        monkeypatch.setattr(DynamicGraph, "row", tripwire)
        deltas = [dyn.apply(b) for b in batches]
        dyn.rows_of(np.arange(g.n_nodes))
        for delta in reversed(deltas[-3:]):
            dyn.revert(delta)
        dyn.snapshot()
        assert any(deltas)

    def test_revert_after_a_compaction_restores_rows_bitwise(self):
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        dyn = DynamicGraph.from_csr(g)
        everyone = np.arange(g.n_nodes)
        rows0, wdeg0 = dyn.rows_of(everyone), dyn.wdeg_of(everyone)
        stream = TemporalEdgeStream(g, seed=4, batch_size=16)
        deltas, held, compactions = [], [], 0
        while compactions < 2:  # revert right after the second one
            # every row as a reader holds it, before the next apply
            held += [(gids, wts, gids.copy(), wts.copy()) for gids, wts
                     in map(dyn.row, range(g.n_nodes)) if len(gids)]
            buffer = dyn._buffer
            deltas.append(dyn.apply(stream.next_batch()))
            compactions += dyn._buffer is not buffer
        for delta in reversed(deltas):
            dyn.revert(delta)
        for got, want in zip(dyn.rows_of(everyone), rows0):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype
        assert np.array_equal(dyn.wdeg_of(everyone).view(np.int64),
                              wdeg0.view(np.int64))
        for gids, wts, gids0, wts0 in held:
            assert np.array_equal(gids, gids0)
            assert np.array_equal(wts, wts0)
        snap = dyn.snapshot()
        assert np.array_equal(snap.indices, g.indices)
        assert np.array_equal(snap.weights, g.weights)

    def test_buffer_capacity_follows_the_rule_without_snapshots(self):
        """At a compaction the buffer is sized twice the live appended
        entries (at most the arcs); in between it only fills.  Entries
        copied by compactions never exceed the entries appended."""
        g = powerlaw_cluster(300, 5, mixing=0.25, seed=2)
        dyn = DynamicGraph.from_csr(g)
        batches = TemporalEdgeStream(g, seed=9, batch_size=16).batches(200)
        appended = copied = compactions = 0
        capacity = 0
        for delta, compacted in _compacts(dyn, batches):
            need = len(delta.rows[1])
            appended += need
            buf = dyn._buffer
            if compacted:
                compactions += 1
                live = _live_appended(dyn)
                assert len(buf.ids) == 2 * live
                assert live <= dyn.n_arcs
                assert buf.fill == live
                copied += live - need
                capacity = len(buf.ids)
            assert len(buf.ids) == capacity
            assert buf.fill <= capacity
        assert compactions >= 3
        assert copied <= appended


# -- the old mirror, kept as the oracle of the new one ------------------------

class _DictMirror:
    """The dict-of-dicts ``DynamicGraph`` this repo shipped before the
    CSR-backed one: every row a ``{neighbor: weight}`` dict, ``row()``
    sorted on demand, ``wdeg()`` summed on demand, ``snapshot()`` a full
    rebuild.  Slow and obviously right — the oracle."""

    def __init__(self, n_nodes):
        self.n_nodes = n_nodes
        self._adj = [{} for _ in range(n_nodes)]

    @classmethod
    def from_csr(cls, graph):
        dyn = cls(graph.n_nodes)
        for u in range(graph.n_nodes):
            dyn._adj[u] = {int(v): float(w) for v, w in zip(
                graph.neighbors(u), graph.neighbor_weights(u))}
        return dyn

    @property
    def n_arcs(self):
        return sum(len(row) for row in self._adj)

    def row(self, u):
        adj = self._adj[u]
        gids = np.fromiter(sorted(adj), dtype=np.int64, count=len(adj))
        wts = np.array([adj[int(g)] for g in gids], dtype=np.float64)
        return gids, wts

    def wdeg(self, u):
        _, wts = self.row(u)
        return float(np.sum(wts)) if wts.shape[0] else 0.0

    def apply(self, batch):
        changed, undo = set(), []
        inserted = deleted = reweighted = 0
        for i in range(len(batch)):
            u, v = int(batch.src[i]), int(batch.dst[i])
            prev = self._adj[u].get(v)
            if int(batch.op[i]) == 1:
                w = float(batch.weight[i])
                if prev is not None and prev == w:
                    continue
                self._adj[u][v] = self._adj[v][u] = w
                if prev is None:
                    inserted += 1
                else:
                    reweighted += 1
            else:
                if prev is None:
                    continue
                del self._adj[u][v], self._adj[v][u]
                deleted += 1
            undo.append((u, v, prev))
            changed.update((u, v))
        return sorted(changed), (inserted, deleted, reweighted), undo

    def revert(self, undo):
        for u, v, prev in reversed(undo):
            if prev is None:
                self._adj[u].pop(v, None)
                self._adj[v].pop(u, None)
            else:
                self._adj[u][v] = self._adj[v][u] = prev

    def snapshot(self):
        counts = [len(row) for row in self._adj]
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        rows = [self.row(u) for u in range(self.n_nodes)]
        return CSRGraph(self.n_nodes, indptr,
                        np.concatenate([g for g, _ in rows]),
                        np.concatenate([w for _, w in rows]))


_N = 12
#: few vertices and few distinct weights, so ops collide: reweights,
#: same-weight no-ops, deletes of absent edges, insert-then-delete
_edge_ops = st.lists(
    st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1),
              st.sampled_from([0.5, 1.25, 2.0]), st.sampled_from([1, -1]))
    .filter(lambda op: op[0] != op[1]),
    max_size=6)
mirror_steps = st.lists(
    st.one_of(st.tuples(st.just("apply"), _edge_ops),
              st.tuples(st.just("revert"), st.none()),
              st.tuples(st.just("snapshot"), st.none())),
    min_size=1, max_size=14)


class TestMirrorAgainstDictOracle:
    @staticmethod
    def _assert_same_graph(snap, want):
        assert np.array_equal(snap.indptr, want.indptr)
        assert np.array_equal(snap.indices, want.indices)
        assert np.array_equal(snap.weights, want.weights)

    @given(st.integers(0, 96), mirror_steps)
    @settings(max_examples=60, deadline=None)
    def test_interleaved_steps_match_oracle(self, seed, steps):
        g = small_graph(seed=seed, n=_N, m=30)
        dyn, oracle = DynamicGraph.from_csr(g), _DictMirror.from_csr(g)
        applied = []   # (new delta, oracle undo log), most recent last
        captured = []  # (held gids, held wts, copies taken at capture)
        for kind, ops in steps:
            if kind == "apply":
                batch = UpdateBatch(*zip(*ops)) if ops else \
                    UpdateBatch.empty()
                for v in touched_vertices(batch).tolist():
                    gids, wts = dyn.row(v)
                    captured.append((gids, wts, gids.copy(), wts.copy()))
                delta = dyn.apply(batch)
                changed, counts, undo = oracle.apply(batch)
                assert delta.changed.tolist() == changed
                assert (delta.arcs_inserted, delta.arcs_deleted,
                        delta.arcs_reweighted) == counts
                applied.append((delta, undo))
            elif kind == "revert" and applied:
                delta, undo = applied.pop()
                dyn.revert(delta)
                oracle.revert(undo)
            elif kind == "snapshot":  # compacts: overlay becomes base
                self._assert_same_graph(dyn.snapshot(), oracle.snapshot())
                assert dyn.snapshot() is dyn.snapshot()
            assert dyn.n_arcs == oracle.n_arcs
            for u in range(_N):
                gids, wts = dyn.row(u)
                want_g, want_w = oracle.row(u)
                assert np.array_equal(gids, want_g)
                assert np.array_equal(wts, want_w)
                assert dyn.wdeg(u) == oracle.wdeg(u)  # bitwise, not close
            assert np.array_equal(dyn.wdeg_of(np.arange(_N)),
                                  [oracle.wdeg(u) for u in range(_N)])
            # copy-on-write: no later apply / revert / compaction wrote
            # into arrays somebody captured earlier
            for gids, wts, gids0, wts0 in captured:
                assert np.array_equal(gids, gids0)
                assert np.array_equal(wts, wts0)
        self._assert_same_graph(dyn.snapshot(), oracle.snapshot())

    def test_revert_across_compaction_restores_bitwise(self):
        g = small_graph(seed=3)
        dyn = DynamicGraph.from_csr(g)
        wdeg0 = [dyn.wdeg(u) for u in range(g.n_nodes)]
        stream = TemporalEdgeStream(g, seed=7, batch_size=16)
        deltas = []
        for batch in stream.batches(3):
            deltas.append(dyn.apply(batch))
            assert dyn.snapshot() is not g   # compacted in between
        for delta in reversed(deltas):
            dyn.revert(delta)
        self._assert_same_graph(dyn.snapshot(), g)
        assert [dyn.wdeg(u) for u in range(g.n_nodes)] == wdeg0


class _LoopMirror:
    """The op-by-op ``DynamicGraph.apply`` this repo shipped before the
    extent layout: an overlay ``vertex -> (gids, weights)`` over the base
    and, per op, a ``searchsorted`` and a copied row for each endpoint.
    The oracle of the vectorised apply — also on a non-symmetric CSR,
    where an op reads its own ``src -> dst`` arc only."""

    def __init__(self, graph):
        self.base, self.overlay = graph, {}

    def row(self, u):
        if u in self.overlay:
            return self.overlay[u]
        s, e = self.base.indptr[u], self.base.indptr[u + 1]
        return self.base.indices[s:e], self.base.weights[s:e]

    def apply(self, batch):
        undo, counts = {}, [0, 0, 0]  # inserted, deleted, reweighted

        def find(gids, gid):
            pos = int(np.searchsorted(gids, gid))
            return pos, pos < len(gids) and int(gids[pos]) == gid

        def put(row, pos, present, gid, w):
            return tuple(np.concatenate((col[:pos], np.array((x,)),
                                         col[pos + present:]))
                         for col, x in zip(row, (gid, w)))

        def drop(row, pos):
            return tuple(np.concatenate((col[:pos], col[pos + 1:]))
                         for col in row)

        def replace(u, row):
            undo.setdefault(u, self.row(u))
            self.overlay[u] = row

        for u, v, w, op in zip(batch.src.tolist(), batch.dst.tolist(),
                               batch.weight.tolist(), batch.op.tolist()):
            row_u, row_v = self.row(u), self.row(v)
            pos_u, present = find(row_u[0], v)
            pos_v, mirrored = find(row_v[0], u)
            if op == 1:
                if present and row_u[1][pos_u] == w:
                    continue
                replace(u, put(row_u, pos_u, present, v, w))
                replace(v, put(row_v, pos_v, mirrored, u, w))
                counts[2 if present else 0] += 1
            elif present:
                replace(u, drop(row_u, pos_u))
                if mirrored:
                    replace(v, drop(row_v, pos_v))
                counts[1] += 1
        return sorted(undo), tuple(counts), undo

    def revert(self, undo):
        self.overlay.update(undo)


class TestApplyAgainstTheLoop:
    @staticmethod
    def _graph(rng, n, symmetric):
        """Arcs over ``n`` nodes with three weights; unless ``symmetric``,
        many arcs lack their reverse or carry another weight there."""
        src, dst = rng.integers(0, n, (2, int(rng.integers(0, 3 * n))))
        keep = src != dst
        src, dst = src[keep], dst[keep]
        w = rng.choice([0.5, 1.25, 2.0], len(src))
        if symmetric:
            return CSRGraph.from_edges(n, src, dst, w)
        keys, first = np.unique(src * n + dst, return_index=True)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return CSRGraph(n, indptr, keys % n, w[first])

    @given(st.integers(0, 2**16), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_colliding_batches_apply_as_the_loop(self, seed, symmetric):
        """Every delta (changed rows, counts, the rows it lays out), every
        row and degree, across applies, reverts and snapshots."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        g = self._graph(rng, n, symmetric)
        dyn, loop = DynamicGraph.from_csr(g), _LoopMirror(g)
        applied = []
        for kind in rng.choice(["apply"] * 4 + ["revert", "snapshot"], 12):
            if kind == "apply":
                k = int(rng.integers(0, 12))
                src = rng.integers(0, n, k)
                dst = (src + rng.integers(1, n, k)) % n
                batch = UpdateBatch(src, dst, rng.choice([0.5, 1.25, 2.0], k),
                                    rng.choice([1, -1], k))
                delta = dyn.apply(batch)
                changed, counts, undo = loop.apply(batch)
                assert delta.changed.tolist() == changed
                assert (delta.arcs_inserted, delta.arcs_deleted,
                        delta.arcs_reweighted) == counts
                ptr, gids, wts = delta.rows
                for j, u in enumerate(changed):
                    want_g, want_w = loop.row(u)
                    assert np.array_equal(gids[ptr[j]:ptr[j + 1]], want_g)
                    assert np.array_equal(wts[ptr[j]:ptr[j + 1]], want_w)
                applied.append((delta, undo))
            elif kind == "revert" and applied:
                delta, undo = applied.pop()
                dyn.revert(delta)
                loop.revert(undo)
            elif kind == "snapshot":
                dyn.snapshot()
            for u in range(n):
                (gids, wts), (want_g, want_w) = dyn.row(u), loop.row(u)
                assert np.array_equal(gids, want_g)
                assert np.array_equal(wts, want_w)
                assert dyn.wdeg(u) == float(np.sum(want_w))


class TestSpliceRows:
    """``splice_rows`` (shared by ``snapshot()`` and shard staging)
    against a row-by-row rebuild."""

    @given(st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_row_by_row_rebuild(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        counts = rng.integers(0, 5, size=n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        cols = (rng.integers(0, 99, size=indptr[-1]),
                rng.random(indptr[-1]))
        # unsorted unique rows (possibly none), some replaced by nothing
        rows = rng.permutation(n)[:int(rng.integers(0, n + 1))]
        new_counts = rng.integers(0, 4, size=len(rows))
        ends = np.cumsum(new_counts)
        starts = ends - new_counts
        blocks = (rng.integers(100, 199, size=int(new_counts.sum())),
                  rng.random(int(new_counts.sum())))
        new_indptr, (ids, vals) = splice_rows(indptr, cols, rows, starts,
                                              ends, blocks)
        where = {int(r): j for j, r in enumerate(rows)}
        for u in range(n):
            got = (ids[new_indptr[u]:new_indptr[u + 1]],
                   vals[new_indptr[u]:new_indptr[u + 1]])
            if u in where:
                s, e = starts[where[u]], ends[where[u]]
                want = (blocks[0][s:e], blocks[1][s:e])
            else:
                want = (cols[0][indptr[u]:indptr[u + 1]],
                        cols[1][indptr[u]:indptr[u + 1]])
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        assert new_indptr[-1] == len(ids) == len(vals)


class TestGenerator:
    def test_same_seed_same_stream(self):
        g = small_graph()
        a = TemporalEdgeStream(g, seed=3, batch_size=16).batches(3)
        b = TemporalEdgeStream(g, seed=3, batch_size=16).batches(3)
        for x, y in zip(a, b):
            assert np.array_equal(x.src, y.src)
            assert np.array_equal(x.dst, y.dst)
            assert np.array_equal(x.weight, y.weight)
            assert np.array_equal(x.op, y.op)

    def test_deletes_target_live_edges(self):
        g = small_graph()
        dyn = DynamicGraph.from_csr(g)
        stream = TemporalEdgeStream(g, seed=5, batch_size=32,
                                    insert_frac=0.3)
        for batch in stream.batches(4):
            delta = dyn.apply(batch)
            # every delete the generator emits names a then-live edge,
            # so none is a no-op when replayed in order
            assert delta.arcs_deleted == batch.n_deletes

    @pytest.mark.parametrize("seed, insert_frac, want", [
        (3, 0.6, "f6fb0ed5efd28712c82bdc61638ed6da"
                 "7ea3926352a366cb23eb4ea4367c8ba2"),
        (11, 0.3, "b5a8b1d7e9cc646e82bc1b468f506475"
                  "715f48f1065385d15c7ab3608a07fead"),
    ])
    def test_batches_are_pinned(self, seed, insert_frac, want):
        """The stream is a pure function of graph and seed, and of nothing
        about how the live edge set is stored: a digest of the first 40
        batches, taken when that set was a list of tuples and a dict."""
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        stream = TemporalEdgeStream(g, seed=seed, batch_size=16,
                                    insert_frac=insert_frac)
        digest = hashlib.sha256()
        for batch in stream.batches(40):
            for col in (batch.src, batch.dst, batch.weight, batch.op):
                digest.update(col.tobytes())
        assert digest.hexdigest() == want


# -- incremental maintenance: the headline guarantee ------------------------

class TestIncrementalEqualsRecompute:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_within_residual_bound_after_each_batch(self, seed):
        g = small_graph(seed=seed % 997)
        dyn = DynamicGraph.from_csr(g)
        source = int(seed % g.n_nodes)
        state = IncrementalState.from_scratch(g, source, PARAMS)
        stream = TemporalEdgeStream(g, seed=seed, batch_size=12)
        for batch in stream.batches(3):
            apply_tracked(state, dyn, batch)
            refresh(state, dyn)
            snap = dyn.snapshot()
            p_scratch, r_scratch, _ = forward_push_sequential(
                snap, source, PARAMS)
            # ||p_inc - p_scr||_1 <= ||r_inc||_1 + ||r_scr||_1, and both
            # residuals obey the published eps * sum(wdeg) bound
            bound = (float(np.abs(state.r).sum())
                     + float(np.abs(r_scratch).sum()))
            assert bound <= 2 * accuracy_bound(snap, PARAMS) + 1e-12
            assert float(np.abs(state.p - p_scratch).sum()) <= bound + 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mass_conservation(self, seed):
        g = small_graph(seed=seed % 991)
        dyn = DynamicGraph.from_csr(g)
        state = IncrementalState.from_scratch(g, 0, PARAMS)
        stream = TemporalEdgeStream(g, seed=seed, batch_size=12)
        for batch in stream.batches(3):
            apply_tracked(state, dyn, batch)
            refresh(state, dyn)
        # corrections redistribute residual mass; p + r still sums to 1
        # up to the corrections' own rounding
        total = float(state.p.sum() + state.r.sum())
        assert total == pytest.approx(1.0, abs=1e-9)


class TestMetamorphic:
    def test_insert_then_delete_restores_bitwise(self):
        g = small_graph(seed=1)
        dyn = DynamicGraph.from_csr(g)
        state = IncrementalState.from_scratch(g, 5, PARAMS)
        p0, r0 = state.p.copy(), state.r.copy()
        ins = UpdateBatch([1, 2, 8], [30, 31, 32], [1.25, 0.75, 1.1],
                          [1, 1, 1])
        inv = ins.inverse_of_inserts(dyn)   # against the pre-batch state
        apply_tracked(state, dyn, ins)
        apply_tracked(state, dyn, inv)
        stats = refresh(state, dyn)
        assert stats.n_pushes == 0          # nothing to re-push at all
        assert np.array_equal(state.p, p0)
        assert np.array_equal(state.r, r0)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 47))
    @settings(max_examples=10, deadline=None)
    def test_split_and_merged_streams_agree_bitwise(self, seed, cut):
        g = small_graph(seed=seed % 983)
        batches = TemporalEdgeStream(g, seed=seed, batch_size=16).batches(3)
        merged = UpdateBatch.concat(batches)
        head, tail = merged.split(cut % (len(merged) + 1))

        finals = []
        for seq in (batches, [merged], [head, tail]):
            dyn = DynamicGraph.from_csr(g)
            state = IncrementalState.from_scratch(g, 3, PARAMS)
            for b in seq:
                apply_tracked(state, dyn, b)
            refresh(state, dyn)
            finals.append((state.p, state.r, dyn.snapshot()))
        p0, r0, s0 = finals[0]
        for p, r, s in finals[1:]:
            assert np.array_equal(p, p0)
            assert np.array_equal(r, r0)
            assert np.array_equal(s.indices, s0.indices)
            assert np.array_equal(s.weights, s0.weights)

    def test_reverted_batch_contributes_nothing(self):
        g = small_graph(seed=2)
        dyn = DynamicGraph.from_csr(g)
        state = IncrementalState.from_scratch(g, 7, PARAMS)
        p0, r0 = state.p.copy(), state.r.copy()
        batch = TemporalEdgeStream(g, seed=4, batch_size=12).next_batch()
        delta = apply_tracked(state, dyn, batch)
        dyn.revert(delta)                   # distributed application failed
        stats = refresh(state, dyn)         # stale pre-rows are harmless
        assert stats.n_pushes == 0
        assert np.array_equal(state.p, p0)
        assert np.array_equal(state.r, r0)


class _ScalarOracle:
    """One published state refreshed by the scalar phase-1 loop.

    Pre-rows are held per vertex as ``(gids, wts, wdeg)``, captured at
    first touch row by row, and phase 1 walks the changed rows in
    ascending ``u`` and each row's targets in ascending ``t``; phase 2 is
    the module's own signed re-push.  ``refresh`` must match it bitwise.
    """

    def __init__(self, state):
        self.state = IncrementalState(state.source, state.params,
                                      state.p.copy(), state.r.copy())
        self.pre_rows = {}

    def capture(self, dyn, vertices):
        for v in sorted(int(v) for v in vertices):
            if v not in self.pre_rows:
                gids, wts = dyn.row(v)
                self.pre_rows[v] = (gids, wts, dyn.wdeg(v))

    @staticmethod
    def _normalized(gids, wts, wdeg, vertex):
        if wdeg <= 0.0:
            return {vertex: 1.0}
        return {int(g): float(w) / wdeg for g, w in zip(gids, wts)}

    def refresh(self, dyn):
        state = self.state
        alpha, eps = state.params.alpha, state.params.epsilon
        scale = (1.0 - alpha) / alpha
        p, r = state.p, state.r
        n_corrections = 0
        seeds = set()
        for u in sorted(self.pre_rows):
            seeds.add(u)
            p_u = p[u]
            if p_u == 0.0:
                continue
            pre_gids, pre_wts, pre_wdeg = self.pre_rows[u]
            cur_gids, cur_wts = dyn.row(u)
            cur_wdeg = dyn.wdeg(u)
            if (cur_wdeg == pre_wdeg and np.array_equal(cur_gids, pre_gids)
                    and np.array_equal(cur_wts, pre_wts)):
                continue
            n_pre = self._normalized(pre_gids, pre_wts, pre_wdeg, u)
            n_cur = self._normalized(cur_gids, cur_wts, cur_wdeg, u)
            for t in sorted(n_pre.keys() | n_cur.keys()):
                d = n_cur.get(t, 0.0) - n_pre.get(t, 0.0)
                if d == 0.0:
                    continue
                r[t] += scale * (p_u * d)
                n_corrections += 1
                seeds.add(t)
        n_changed = len(self.pre_rows)
        self.pre_rows = {}
        max_pushes = int(min(5e8, 500 * p.shape[0] / eps))
        n_pushes, n_entries = _push_back(
            state, dyn, np.array(sorted(seeds), dtype=np.int64), max_pushes)
        return RefreshStats(n_changed=n_changed, n_corrections=n_corrections,
                            n_pushes=n_pushes, n_entries=n_entries)


def _bits(a):
    return a.view(np.int64)


class TestFoldAgainstScalarLoop:
    """The vectorized fold equals the scalar loop it replaced, bitwise."""

    N_LIVE, N_NODES = 30, 36   # vertices 30..35 start isolated

    def _graph(self, rng):
        edges = rng.integers(0, self.N_LIVE, size=(120, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        return CSRGraph.from_edges(self.N_NODES, edges[:, 0], edges[:, 1],
                                   rng.choice([0.5, 1.0, 1.25, 3.0],
                                              len(edges)))

    def _batch(self, rng, dyn, window_step):
        """One insert of an absent edge, random upserts (inserts and
        reweights) and deletes, plus one vertex stripped of its last edge
        and one isolated vertex given its first."""
        live = [u for u in range(self.N_LIVE) if len(dyn.row(u)[0])]
        lonely = int(rng.choice(live))
        absent = [(u, v) for u in range(self.N_LIVE)
                  for v in range(u + 1, self.N_LIVE)
                  if lonely not in (u, v) and not dyn.has_edge(u, v)]
        u, v = absent[int(rng.integers(len(absent)))]
        ops = [(u, v, 1.5, 1)]
        for _ in range(10):
            u, v = rng.choice(self.N_NODES, 2, replace=False).tolist()
            if rng.random() < 0.3:
                ops.append((u, v, 1.0, -1))
            else:
                ops.append((u, v, float(rng.choice([0.5, 1.0, 2.0])), 1))
        ops += [(lonely, int(v), 1.0, -1) for v in dyn.row(lonely)[0]]
        isolated = [u for u in range(self.N_NODES)
                    if not len(dyn.row(u)[0]) and u != lonely]
        if isolated:
            u = isolated[window_step % len(isolated)]
            v = int(rng.choice([v for v in range(self.N_LIVE) if v != u]))
            ops.append((u, v, 0.75, 1))
        return UpdateBatch(*zip(*ops))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_refresh_equals_the_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        g = self._graph(rng)
        dyn = DynamicGraph.from_csr(g)
        # sources: a live vertex, and an isolated one (p = 1 at itself)
        states = [IncrementalState.from_scratch(g, s, PARAMS)
                  for s in (int(rng.integers(self.N_LIVE)), self.N_NODES - 1)]
        oracles = [_ScalarOracle(s) for s in states]
        for window in range(2):
            n_batches = int(rng.integers(1, 4))
            for step in range(n_batches):
                if step == 1:
                    # published mid-window: folds only what comes after
                    late = IncrementalState.from_scratch(
                        dyn.snapshot(), int(rng.integers(self.N_LIVE)),
                        PARAMS)
                    states.append(late)
                    oracles.append(_ScalarOracle(late))
                batch = self._batch(rng, dyn, 2 * window + step)
                if step == 0:
                    # against the pre-batch state: the batch's inserts
                    undo = batch.inverse_of_inserts(dyn)
                    assert len(undo)
                elif step == 2:
                    # delete the window's first inserts again
                    batch = UpdateBatch.concat([batch, undo])
                touched = touched_vertices(batch)
                capture = None
                for state, oracle in zip(states, oracles):
                    capture = state.capture_pre_rows(dyn, touched, capture)
                    oracle.capture(dyn, touched)
                dyn.apply(batch)
            diffs = {}
            for state, oracle in zip(states, oracles):
                got = refresh(state, dyn, diffs=diffs)
                assert got == oracle.refresh(dyn)
                assert not state.pre_rows
                assert np.array_equal(_bits(state.p), _bits(oracle.state.p))
                assert np.array_equal(_bits(state.r), _bits(oracle.state.r))


# -- distributed application ------------------------------------------------

def _shuffled(update, seed):
    """``update`` with its replacement rows in a random order.

    ``ShardUpdate`` itself insists on ascending ``row_ids`` (what the
    planner emits); the append underneath takes any order, and this pins
    it — so the permuted payload is assembled around the validation.
    """
    order = np.random.default_rng(seed).permutation(update.n_rows)
    out = ShardUpdate.__new__(ShardUpdate)
    for name in ShardUpdate.__slots__:
        setattr(out, name, getattr(update, name))
    out.row_ids = update.row_ids[order]
    out.rows = update.rows.take_rows(order)
    return out


def _assert_rows_equal(spliced, rebuilt, sharded):
    """Every core row of ``spliced`` reads as ``rebuilt``'s: ids and
    weights bitwise; degrees as fetches read them, the same sums in a
    different summation order."""
    core = np.arange(sharded.base[spliced.shard_id],
                     sharded.base[spliced.shard_id + 1])
    got = spliced.get_neighbor_batch(core).to_arrays()
    want = rebuilt.get_neighbor_batch(core).to_arrays()
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b)
    for a, b in zip(got[3:], want[3:]):
        assert np.allclose(a, b)


def _stage_and_commit(sharded, payloads, tag):
    for shard, payload in zip(sharded.shards, payloads):
        shard.stage_updates(tag, payload)
    for shard in sharded.shards:
        shard.commit_updates(tag)


class TestShardSplice:
    @pytest.mark.parametrize("halo_hops", [1, 2])
    def test_splice_equals_fresh_build(self, halo_hops):
        self._check_splice(halo_hops, shuffle=False)
        self._check_splice(halo_hops, shuffle=True)

    def _check_splice(self, halo_hops, shuffle):
        g = powerlaw_cluster(120, 4, mixing=0.2, seed=8)
        engine = GraphEngine(g, EngineConfig(n_machines=3, seed=0,
                                             halo_hops=halo_hops))
        sharded = engine.sharded
        dyn = DynamicGraph.from_csr(g)
        stream = TemporalEdgeStream(g, seed=9, batch_size=16)
        owned0 = sharded.shards[0].core_global.tolist()
        loner = max(owned0, key=g.out_degree)   # about to lose every edge
        owned0.remove(loner)

        def empties_loner():
            nbrs, _ = dyn.row(loner)
            assert len(nbrs)
            return UpdateBatch(np.full(len(nbrs), loner), nbrs,
                               np.ones(len(nbrs)), np.full(len(nbrs), -1))

        def inside_shard0():  # the other shards stage no rows at all
            return UpdateBatch(owned0[:1], owned0[1:2], [0.7], [1])

        buffers = [None] * sharded.n_shards
        for tag, make in enumerate((stream.next_batch, stream.next_batch,
                                    empties_loner, inside_shard0), start=1):
            delta = dyn.apply(make())
            payloads = build_shard_payloads(sharded, dyn, delta)
            if make is inside_shard0:
                assert sorted(p.n_rows for p in payloads) == [0, 0, 2]
            if shuffle:
                payloads = [_shuffled(p, seed=tag) for p in payloads]
            outcome, _ = ingest_on_cluster(engine, payloads, tag=tag)
            assert outcome["status"] == "applied"
            fresh = build_shards(dyn.snapshot(), sharded.result,
                                 seed=0, halo_hops=halo_hops)
            for spliced, rebuilt in zip(sharded.shards, fresh.shards):
                _assert_rows_equal(spliced, rebuilt, sharded)
                arena = spliced.rows
                if arena.buffer is not buffers[spliced.shard_id]:
                    # this stage compacted: the stored columns are a
                    # fresh build's, entry for entry
                    buffers[spliced.shard_id] = arena.buffer
                    want = rebuilt.rows
                    assert np.array_equal(arena.starts, want.indptr[:-1])
                    assert np.array_equal(arena.counts, np.diff(want.indptr))
                    assert np.array_equal(arena.ids, want.ids)
                    assert np.array_equal(arena.weights, want.weights)
                if halo_hops == 2:
                    self._assert_cache_current(spliced, sharded, dyn)
        assert not len(dyn.row(loner)[0])
        assert all(buffer is not None for buffer in buffers)

    @staticmethod
    def _assert_cache_current(shard, sharded, dyn):
        """Every cached halo row equals its owner's current row."""
        indptr, ids, weights, wdeg, src_wdeg = shard.get_cached_batch(
            shard.halo_ids).to_arrays()
        gids = sharded.globals_of(shard.halo_ids)
        for i, gid in enumerate(gids.tolist()):
            s, e = indptr[i], indptr[i + 1]
            want_g, want_w = dyn.row(gid)
            assert np.array_equal(ids[s:e], sharded.nodes_of(want_g))
            assert np.array_equal(weights[s:e], want_w)
            assert np.allclose(wdeg[s:e], dyn.wdeg_of(want_g))
            assert np.isclose(src_wdeg[i], dyn.wdeg(gid))

    def test_stage_commit_rollback_idempotent(self):
        g = powerlaw_cluster(80, 4, mixing=0.2, seed=3)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        dyn = DynamicGraph.from_csr(g)
        delta = dyn.apply(
            TemporalEdgeStream(g, seed=2, batch_size=8).next_batch())
        payloads = build_shard_payloads(engine.sharded, dyn, delta)
        shard = engine.sharded.shards[0]
        before = shard.rows.weights.copy()

        shard.stage_updates(7, payloads[0])
        assert np.array_equal(shard.rows.weights, before)  # invisible
        shard.commit_updates(7)
        after = shard.rows.weights.copy()
        # duplicate RPCs (lost replies) are absorbed, not re-applied
        shard.stage_updates(7, payloads[0])
        assert shard.commit_updates(7) == 1
        assert np.array_equal(shard.rows.weights, after)
        # rollback restores the pre-image, idempotently
        assert shard.rollback_updates(7) == 1
        assert np.array_equal(shard.rows.weights, before)
        assert shard.rollback_updates(7) == 1

    def test_commit_unknown_tag_raises(self):
        g = powerlaw_cluster(60, 4, mixing=0.2, seed=3)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        with pytest.raises(ShardError):
            engine.sharded.shards[0].commit_updates(99)


# -- extent arenas: a stage appends, a fixed rule compacts -------------------

class TestExtentArena:
    """A stage appends each replaced row to the arena's buffer and copies
    only the extents; a compaction packs the live rows when an append
    does not fit.  Dead entries never reach a reader."""

    @staticmethod
    def _empties(dyn, vertex):
        nbrs, _ = dyn.row(vertex)
        return UpdateBatch(np.full(len(nbrs), vertex), nbrs,
                           np.ones(len(nbrs)), np.full(len(nbrs), -1))

    def test_whole_column_readers_read_live_rows_across_compactions(self):
        from repro.engine.query import sample_sources

        g = powerlaw_cluster(600, 10, mixing=0.2, seed=4)
        engine = GraphEngine(g, EngineConfig(n_machines=3, seed=0))
        sharded = engine.sharded
        dyn = DynamicGraph.from_csr(g)
        stream = TemporalEdgeStream(g, seed=5, batch_size=4)
        loner = int(sharded.shards[1].core_global[0])
        buffers = [None] * sharded.n_shards
        compactions = [0] * sharded.n_shards
        saw_dead = False
        for tag in range(1, 41):
            batch = (self._empties(dyn, loner) if tag == 20
                     else stream.next_batch())
            delta = dyn.apply(batch)
            assert tag != 20 or not len(dyn.row(loner)[0])
            _stage_and_commit(sharded,
                              build_shard_payloads(sharded, dyn, delta), tag)
            fresh = build_shards(dyn.snapshot(), sharded.result, seed=0)
            for shard, rebuilt in zip(sharded.shards, fresh.shards):
                p = shard.shard_id
                if shard.rows.buffer is not buffers[p]:
                    buffers[p] = shard.rows.buffer
                    compactions[p] += 1
                saw_dead |= len(shard.rows.ids) > shard.n_entries
                _assert_rows_equal(shard, rebuilt, sharded)
                assert np.array_equal(shard.halo_nodes(),
                                      rebuilt.halo_nodes())
                assert shard.n_entries == rebuilt.n_entries
                assert shard.memory_nbytes() == rebuilt.memory_nbytes()
                assert shard.describe() == rebuilt.describe()
                core = sharded.base[p] + np.arange(shard.n_core)
                assert np.array_equal(shard.sample_one_neighbor(core, tag),
                                      rebuilt.sample_one_neighbor(core, tag))
            assert np.array_equal(sample_sources(sharded, 30, seed=tag),
                                  sample_sources(fresh, 30, seed=tag))
        assert saw_dead
        # the first stage compacts a built arena; two more each, at least
        assert min(compactions) >= 3, compactions

    def test_a_one_row_stage_allocates_a_sliver_of_the_arena(self):
        """Past its first stage, replacing one row costs the row, the
        extents and the degree table — under 5% of the arena's bytes —
        not a copy of the arena."""
        import tracemalloc

        from repro.graph import erdos_renyi

        g = erdos_renyi(2000, 100, seed=2)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        sharded = engine.sharded
        shard = sharded.shards[0]
        dyn = DynamicGraph.from_csr(g)
        u = int(shard.core_global[0])
        others = sharded.shards[1].core_global.tolist()
        for tag, v in enumerate(others[:2], start=1):
            # one upsert between the shards: one row replaced on each
            delta = dyn.apply(UpdateBatch([u], [v], [0.25 * tag], [1]))
            payloads = build_shard_payloads(sharded, dyn, delta)
            assert payloads[0].n_rows == 1
            buffer = shard.rows.buffer
            tracemalloc.start()
            try:
                shard.stage_updates(tag, payloads[0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            shard.commit_updates(tag)
            if buffer is None:  # a built arena's first stage compacts
                assert shard.rows.buffer is not None
                continue
            assert shard.rows.buffer is buffer  # appended, no compaction
            assert peak < 0.05 * shard.rows.nbytes, (peak,
                                                     shard.rows.nbytes)
        assert buffer is not None

    def test_selections_taken_before_commits_read_as_before(self):
        """A selection taken before a commit that appends, or before one
        that compacts, keeps reading the rows it was taken on, bitwise."""
        g = powerlaw_cluster(300, 8, mixing=0.2, seed=7)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0,
                                             halo_hops=2))
        sharded = engine.sharded
        shard = sharded.shards[0]
        core = sharded.base[0] + np.arange(shard.n_core)
        dyn = DynamicGraph.from_csr(g)
        stream = TemporalEdgeStream(g, seed=8, batch_size=2)
        held = []
        kinds = set()
        for tag in range(1, 31):
            selections = [shard.get_neighbor_batch(core[::-2]),
                          shard.get_vertex_props(core),
                          shard.get_cached_batch(shard.halo_ids)]
            held.append((selections,
                         [[a.copy() for a in sel.to_arrays()]
                          for sel in selections],
                         [a.copy() for a in gather_rows(selections[:2])]))
            buffer = shard.rows.buffer
            delta = dyn.apply(stream.next_batch())
            _stage_and_commit(sharded,
                              build_shard_payloads(sharded, dyn, delta), tag)
            if buffer is not None:
                kinds.add(shard.rows.buffer is buffer)
        assert kinds == {True, False}  # both appending and compacting
        for selections, before, gathered in held:
            for sel, want in zip(selections, before):
                for got, column in zip(sel.to_arrays(), want):
                    assert np.array_equal(got, column)
            for got, column in zip(gather_rows(selections[:2]), gathered):
                assert np.array_equal(got, column)

    def test_a_selection_on_a_rolled_back_arena_reads_as_before(self):
        """A rollback restores the pre-image, whose buffer fill stays
        past the rolled-back rows: a selection taken on them while they
        were live reads them still after the next stage appends."""
        g = powerlaw_cluster(300, 8, mixing=0.2, seed=7)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        sharded = engine.sharded
        shard = sharded.shards[0]
        core = sharded.base[0] + np.arange(shard.n_core)
        dyn = DynamicGraph.from_csr(g)
        # one upsert per batch, each replacing rows of shard 0
        mine = shard.core_global.tolist()
        batches = [UpdateBatch([mine[0]], [v], [w], [1]) for v, w in
                   zip(sharded.shards[1].core_global[:4].tolist(),
                       (0.5, 0.75, 1.25, 1.5))]
        delta = dyn.apply(batches[0])
        _stage_and_commit(sharded, build_shard_payloads(sharded, dyn, delta),
                          1)
        buffer = shard.rows.buffer
        delta = dyn.apply(batches[1])
        _stage_and_commit(sharded, build_shard_payloads(sharded, dyn, delta),
                          2)
        selection = shard.get_vertex_props(core)
        before = [a.copy() for a in selection.to_arrays()]
        for other in sharded.shards:
            other.rollback_updates(2)
        dyn.revert(delta)
        for tag, batch in enumerate(batches[2:], start=3):
            delta = dyn.apply(batch)
            _stage_and_commit(sharded,
                              build_shard_payloads(sharded, dyn, delta), tag)
        assert buffer is not None and shard.rows.buffer is buffer
        for got, want in zip(selection.to_arrays(), before):
            assert np.array_equal(got, want)
        fresh = build_shards(dyn.snapshot(), sharded.result, seed=0)
        _assert_rows_equal(shard, fresh.shards[0], sharded)


# -- one degree per node: the shard's table is what every read reports ------

def _read_paths(sharded, shard):
    """``(name, row node ids, to_arrays() tuple)`` of every read path of
    one shard, over all of its rows (and its whole halo cache)."""
    lo, hi = sharded.base[shard.shard_id], sharded.base[shard.shard_id + 1]
    core = np.arange(lo, hi)
    reads = [
        ("get_vertex_props", core, shard.get_vertex_props(core).to_arrays()),
        ("get_neighbor_batch", core[::2],          # strided: the gather path
         shard.get_neighbor_batch(core[::2]).to_arrays()),
        ("get_neighbor_lists", core, shard.get_neighbor_lists(core).to_arrays()),
        ("gather_rows", np.concatenate([core[1::2], core[:3]]),
         gather_rows([shard.get_neighbor_batch(core[1::2]),
                      shard.get_vertex_props(core[:3])])),
    ]
    if shard.has_halo_cache:
        reads.append(("get_cached_batch", shard.halo_ids,
                      shard.get_cached_batch(shard.halo_ids).to_arrays()))
    return reads


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestDegreeCoherence:
    """A neighbor's weighted degree lives once per node in each shard's
    table: after ingests every read path of every shard reports that one
    value, for neighbors and for the rows' own degrees alike."""

    @staticmethod
    def _ingested(runtime, n_batches=3):
        from repro.graph import load_dataset

        g = load_dataset("products", scale=0.04, use_cache=False)
        engine = GraphEngine(g, EngineConfig(n_machines=4, seed=0,
                                             halo_hops=2))
        session = StreamingSession(engine, StreamConfig(runtime=runtime,
                                                        params=PARAMS))
        stream = TemporalEdgeStream(g, seed=11, batch_size=64)
        for batch in stream.batches(n_batches):
            assert session.ingest(batch).applied
        return session, stream

    @pytest.mark.parametrize("runtime", ["sim", "threads"])
    def test_every_read_path_reports_one_degree_per_node(self, runtime):
        session, _ = self._ingested(runtime)
        sharded = session.engine.sharded
        seen_ids, seen_degrees = [], []
        for shard in sharded.shards:
            for name, rows, (indptr, ids, _, wdeg, src_wdeg) in \
                    _read_paths(sharded, shard):
                assert len(wdeg) == len(ids) == indptr[-1], name
                seen_ids += [ids, rows]
                seen_degrees += [wdeg, src_wdeg]
                table = shard.rows.degrees
                assert np.array_equal(_bits(wdeg), _bits(table[ids])), name
                assert np.array_equal(_bits(src_wdeg), _bits(table[rows])), \
                    name
            assert np.array_equal(
                _bits(shard.source_weighted_degrees(sharded.base[
                    shard.shard_id] + np.arange(shard.n_core))),
                _bits(shard.rows.degrees[sharded.base[shard.shard_id]:
                                         sharded.base[shard.shard_id + 1]]))
        tables = [_bits(shard.rows.degrees) for shard in sharded.shards]
        assert all(np.array_equal(t, tables[0]) for t in tables[1:])
        # the same claim without the table: no node reports two degrees
        ids, degrees = np.concatenate(seen_ids), np.concatenate(seen_degrees)
        lo = np.full(sharded.base[-1], np.inf)
        hi = np.full(sharded.base[-1], -np.inf)
        np.minimum.at(lo, ids, degrees)
        np.maximum.at(hi, ids, degrees)
        assert np.array_equal(lo, hi)
        # and that degree is the mirror's, up to summation order
        everyone = np.arange(session.dyn.n_nodes)
        assert np.allclose(sharded.shards[0].rows.degrees[
            sharded.nodes_of(everyone)], session.dyn.wdeg_of(everyone))

    def test_a_selection_taken_before_a_commit_reads_as_before(self):
        """Commits swap in new rows and a new table; a selection taken
        earlier keeps reading the old ones, bitwise."""
        session, stream = self._ingested("sim", n_batches=1)
        sharded = session.engine.sharded
        shard = sharded.shards[1]
        core = sharded.base[1] + np.arange(shard.n_core)
        selections = [shard.get_neighbor_batch(core[::3]),
                      shard.get_vertex_props(core),
                      shard.get_cached_batch(shard.halo_ids)]
        before = [[a.copy() for a in sel.to_arrays()] for sel in selections]
        gathered = [a.copy() for a in gather_rows(selections[:2])]
        for batch in stream.batches(3):
            assert session.ingest(batch).applied
        live = shard.get_vertex_props(core).to_arrays()
        assert not np.array_equal(_bits(live[3]), _bits(before[1][3]))
        for sel, want in zip(selections, before):
            for got, column in zip(sel.to_arrays(), want):
                assert np.array_equal(got, column)
        for got, column in zip(gather_rows(selections[:2]), gathered):
            assert np.array_equal(got, column)


# -- the session: nothing |E|-sized on the write path, no stale view ---------

def _count_calls(monkeypatch, name):
    """Count calls of ``DynamicGraph.<name>`` through a wrapper."""
    calls = []
    inner = getattr(DynamicGraph, name)

    def counting(self, *args):
        calls.append(args)
        return inner(self, *args)

    monkeypatch.setattr(DynamicGraph, name, counting)
    return calls


def _shard_columns(shard):
    return (shard.core_global, *shard.rows.to_arrays())


class TestSessionGraphView:
    def _session(self, graph, n_machines=3, **cfg):
        engine = GraphEngine(graph, EngineConfig(n_machines=n_machines,
                                                 seed=0))
        return StreamingSession(engine, StreamConfig(params=PARAMS, **cfg))

    def test_ingest_never_materialises_the_graph(self, monkeypatch):
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        session = self._session(g)
        session.publish([3, 17])
        snapshots = _count_calls(monkeypatch, "snapshot")
        stream = TemporalEdgeStream(g, seed=1, batch_size=12)
        for batch in stream.batches(5):
            assert session.ingest(batch).applied
        session.submit(3)
        session.drain()       # the query path reads shards, not the view
        assert snapshots == []

    def test_ingest_cost_does_not_scale_with_graph_size(self, monkeypatch):
        """The same batches over 4x the graph touch the same rows: the
        mirror is asked for exactly as many rows (a count, not a time)."""
        g = small_graph(seed=4, n=40, m=160)
        u, v = np.nonzero(np.triu(g.to_scipy().toarray()))
        w = g.to_scipy().toarray()[u, v]
        # four disjoint copies; copy 0 keeps its ids, rows and weights
        big = CSRGraph.from_edges(
            160, np.concatenate([u + 40 * k for k in range(4)]),
            np.concatenate([v + 40 * k for k in range(4)]), np.tile(w, 4))
        batches = TemporalEdgeStream(g, seed=5, batch_size=12).batches(4)
        counts = []
        for graph in (g, big):
            session = self._session(graph, n_machines=2)
            # a published vector whose support is copy 0 on both graphs
            session.states[7] = IncrementalState.from_scratch(graph, 7,
                                                              PARAMS)
            rows = _count_calls(monkeypatch, "row")
            for batch in batches:
                assert session.ingest(batch).applied
            counts.append(len(rows))
            monkeypatch.undo()
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("n_states", [1, 8])
    def test_an_ingest_reads_each_touched_row_once(self, monkeypatch,
                                                   n_states):
        """However many vectors are published, an ingest captures the
        batch's touched rows in one read, ``apply`` lays out the changed
        rows in one read that the shard payloads reuse, and a refresh
        diffs the rows of a capture window in one read; ``pre_rows`` is
        empty after it."""
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        batches = TemporalEdgeStream(g, seed=3, batch_size=12).batches(2)
        touched = touched_vertices(batches[0])
        reads = {}
        for k in (0, n_states):
            session = self._session(g, refresh_every=2)
            for source in range(k):
                session.states[source] = IncrementalState.from_scratch(
                    g, source, PARAMS)
            blocks = _count_calls(monkeypatch, "rows_of")
            assert session.ingest(batches[0]).applied
            reads[k] = (Counter(v for vertices, in blocks
                                for v in np.asarray(vertices).tolist()),
                        len(blocks))
            monkeypatch.undo()
            captures = {id(c) for state in session.states.values()
                        for c in state.pre_rows}
            assert len(captures) == min(k, 1)
            if k:
                blocks = _count_calls(monkeypatch, "rows_of")
                assert session.ingest(batches[1]).applied  # refreshes
                monkeypatch.undo()
                # one for the capture, one for the window's diff, and
                # apply's one, as without published vectors
                assert len(blocks) == reads[0][1] + 2
                assert not any(state.pre_rows
                               for state in session.states.values())
        rows_k, blocks_k = reads[n_states]
        rows_0, blocks_0 = reads[0]
        assert blocks_0 == 1  # apply's layout; the payloads gather it
        assert rows_k - rows_0 == Counter(touched.tolist())
        assert not rows_0 - rows_k
        assert blocks_k == blocks_0 + 1

    def test_views_read_through_and_rebalance_sees_current_graph(self):
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        session = self._session(g)
        engine = session.engine
        stream = TemporalEdgeStream(g, seed=2, batch_size=12)
        for batch in stream.batches(3):
            session.ingest(batch)
        current = session.dyn.snapshot()
        assert current is not g
        assert engine.graph is current and engine.sharded.graph is current

        # force one migration: machine 1 asks for a shard-0 vertex a lot
        victim = int(engine.sharded.shards[0].core_global[0])
        session.heat = {1: {int(engine.sharded.nodes_of(victim)): 50}}
        plan = session.epoch_rebalance()
        assert plan.moves == {victim: 1}
        assert engine.sharded.owner_of(engine.sharded.nodes_of(victim)) == 1
        fresh = build_shards(session.dyn.snapshot(), engine.sharded.result,
                             seed=0)
        for moved, rebuilt in zip(engine.sharded.shards, fresh.shards):
            for got, want in zip(_shard_columns(moved),
                                 _shard_columns(rebuilt)):
                assert np.array_equal(got, want)

        # the rebuilt shards still read the mirror, not a frozen copy
        assert session.ingest(stream.next_batch()).n_changed
        assert engine.sharded.graph is session.dyn.snapshot()
        assert engine.sharded.graph is not current

    def test_rejected_batch_moves_nothing(self):
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        session = self._session(g)
        session.publish([3])
        session.ingest(TemporalEdgeStream(g, seed=2,
                                          batch_size=8).next_batch())
        absent = next(v for v in range(1, 150)
                      if not session.dyn.has_edge(0, v))
        before = session.dyn.snapshot()
        tag, n_batches = session._tag, session.report.n_batches
        counted = session.metrics.counters()["stream.batches"]
        with pytest.raises(GraphFormatError):
            session.ingest(UpdateBatch([0, 5], [absent, 999], [1.0, 1.0],
                                       [1, 1]))
        assert session.dyn.snapshot() is before
        assert not session.dyn.has_edge(0, absent)
        assert (session._tag, session.report.n_batches) == (tag, n_batches)
        assert session.metrics.counters()["stream.batches"] == counted
        assert not session.states[3].pre_rows
        # and the next good batch takes the next tag
        report = session.ingest(UpdateBatch([0], [absent], [1.0], [1]))
        assert report.applied and report.tag == tag + 1


class TestStreamClock:
    """The stream's clock advances only by what its steps cost."""

    def _session(self):
        g = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        session = StreamingSession(engine, StreamConfig(params=PARAMS))
        session.publish([3, 17])
        return session

    def test_empty_ingest_leaves_the_clock(self):
        session = self._session()
        before = session.now
        assert before > 0.0                 # publish ran a deployment
        report = session.ingest(UpdateBatch.empty())
        assert report.status == "empty"
        assert session.now == before
        assert session.ingest(TemporalEdgeStream(
            session.engine.graph, seed=1, batch_size=8).next_batch()).applied
        assert session.now > before

    def test_run_stream_merges_each_drain_once(self):
        """Two calls with one query each: two completions, not three."""
        session = self._session()
        for source in (3, 17):
            session.run_stream([StreamEvent("query", source=source)])
        counters = session.metrics.counters()
        assert counters["serve.completed"] == 2
        assert counters["serve.batches"] == 2
