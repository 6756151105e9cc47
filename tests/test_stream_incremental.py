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
  every shard structurally identical to a fresh ``build_shards`` of the
  updated graph (weighted-degree columns agree to float tolerance —
  they are sums of the same terms in a different order).
"""

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
from repro.ppr.incremental import (IncrementalState, accuracy_bound,
                                   refresh)
from repro.storage.build import build_shards
from repro.storage.shard_update import ShardUpdate
from repro.stream import (DynamicGraph, StreamConfig, StreamingSession,
                          TemporalEdgeStream, UpdateBatch,
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


# -- distributed application ------------------------------------------------

def _shuffled(update, seed):
    """``update`` with its replacement rows in a random order.

    ``ShardUpdate`` itself insists on ascending ``row_ids`` (what the
    planner emits); the splice underneath takes any order, and this pins
    it — so the permuted payload is assembled around the validation.
    """
    order = np.random.default_rng(seed).permutation(update.n_rows)
    out = ShardUpdate.__new__(ShardUpdate)
    for name in ShardUpdate.__slots__:
        setattr(out, name, getattr(update, name))
    out.row_ids = update.row_ids[order]
    out.rows = update.rows.take_rows(order)
    return out


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

        for tag, make in enumerate((stream.next_batch, stream.next_batch,
                                    empties_loner, inside_shard0), start=1):
            delta = dyn.apply(make())
            payloads = build_shard_payloads(sharded, dyn, delta.changed)
            if make is inside_shard0:
                assert sorted(p.n_rows for p in payloads) == [0, 0, 2]
            if shuffle:
                payloads = [_shuffled(p, seed=tag) for p in payloads]
            outcome, _, _ = ingest_on_cluster(engine, payloads, tag=tag)
            assert outcome["status"] == "applied"
        assert not len(dyn.row(loner)[0])
        fresh = build_shards(dyn.snapshot(), sharded.result,
                             seed=0, halo_hops=halo_hops)
        for spliced, rebuilt in zip(sharded.shards, fresh.shards):
            assert np.array_equal(spliced.rows.indptr, rebuilt.rows.indptr)
            assert np.array_equal(spliced.rows.ids, rebuilt.rows.ids)
            assert np.array_equal(spliced.rows.weights, rebuilt.rows.weights)
            # wdeg columns: same sums, different summation order
            assert np.allclose(spliced.rows.src_wdeg, rebuilt.rows.src_wdeg)
            assert np.allclose(spliced.rows.wdeg, rebuilt.rows.wdeg)
            if halo_hops == 2:
                self._assert_cache_current(spliced, sharded, dyn)

    @staticmethod
    def _assert_cache_current(shard, sharded, dyn):
        """Every cached halo row equals its owner's current row."""
        halo = shard.halo
        gids = sharded.globals_of(shard.halo_ids)
        for i, gid in enumerate(gids.tolist()):
            s, e = halo.indptr[i], halo.indptr[i + 1]
            want_g, want_w = dyn.row(gid)
            assert np.array_equal(halo.ids[s:e], sharded.nodes_of(want_g))
            assert np.array_equal(halo.weights[s:e], want_w)
            assert np.allclose(halo.wdeg[s:e], dyn.wdeg_of(want_g))
            assert np.isclose(halo.src_wdeg[i], dyn.wdeg(gid))

    def test_stage_commit_rollback_idempotent(self):
        g = powerlaw_cluster(80, 4, mixing=0.2, seed=3)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        dyn = DynamicGraph.from_csr(g)
        delta = dyn.apply(
            TemporalEdgeStream(g, seed=2, batch_size=8).next_batch())
        payloads = build_shard_payloads(engine.sharded, dyn, delta.changed)
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
