"""``fetch_round`` — Figure 4's loop body, written once.

Three layers of evidence that replacing the five hand-written copies of the
loop changed nothing observable:

* a unit test of the coroutine against a recording fake ``g`` (the
  ``_StubStorage`` pattern of ``tests/test_fetch_layer.py``), driven by
  hand so the order of issues, waits and applies is visible;
* the parent commit's batched loop body, kept here as
  :func:`_handwritten_round` (the ``_lexsort_heaviest_neighbor`` /
  ``_DictMirror`` precedent), run against ``fetch_round`` under every
  driver on both runtimes, healthy and under a drop-only ``FaultPlan``;
* the routers that now share :func:`shard_masks`, checked against the
  K-pass ``owner == j`` scans they replaced.

The push state itself is checked against
:func:`~repro.ppr.forward_push_parallel.forward_push_parallel`: however a
round's frontier is split into responses, it makes the reference's pushes.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ppr.distributed as distributed
from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.engine.cluster import deploy
from repro.engine.query import assign_queries, sample_sources
from repro.errors import RpcTimeoutError, ShardError, TRANSPORT_ERRORS, \
    WorkerCrashedError
from repro.gnn.sampler import induce_subgraph
from repro.graph import CSRGraph, powerlaw_cluster
from repro.ppr import DegradationMode, MultiSSPPR, OptLevel, PPRParams, SSPPR
from repro.ppr.forward_push_parallel import forward_push_parallel
from repro.rpc import RetryPolicy
from repro.serving import Query, SessionConfig
from repro.simt import COMPUTE, FaultPlan, Wait
from repro.storage import DistGraphStorage
from repro.storage.dist_storage import fetch_round, shard_masks

PARAMS = PPRParams(epsilon=1e-5)
RUNTIMES = ("sim", "threads")


# ---------------------------------------------------------------------------
# (a) the coroutine against a recording fake
# ---------------------------------------------------------------------------

class _Block:
    def __init__(self, log, entry):
        self.log, self.entry = log, entry

    def __enter__(self):
        self.log.append(("enter",) + self.entry)

    def __exit__(self, *exc):
        self.log.append(("exit",) + self.entry)


class _FakeProc:
    """Records every charge a driver makes and every span it opens."""

    #: a traced process: ``fetch_round`` opens spans only under a tracer
    tracer = "recording"

    def __init__(self, log):
        self.log = log

    def compute(self, category, seconds):
        self.log.append(("compute", category, seconds))

    def span(self, name, **attrs):
        return _Block(self.log, ("span", name, attrs))


class _Infos(str):
    """A fake response: its shard's name, three neighbor entries."""

    n_entries = 3


class _FakeG:
    """Fake ``g``: three shards of ten ids each, the caller owns shard 1.
    A "future" is the ``(dest shard, ids)`` pair of its request."""

    shard_id = 1
    base = np.array([0, 10, 20, 30])

    def __init__(self, log):
        self.log = log

    def shard_masks(self, ids):
        return shard_masks(self.base, ids)

    def get_neighbor_infos(self, dest_shard, ids):
        self.log.append(("issue", dest_shard, ids.tolist()))
        return (dest_shard, ids)


def drive(ids, *, fail=None, **kwargs):
    """Run one ``fetch_round`` by hand; returns the event log.

    Every ``Wait`` is answered with ``"infos<shard>"``, except that waits
    on the shards in ``fail`` raise the mapped exception instead.
    """
    log = []
    fail = fail or {}

    def apply(infos, part):
        log.append(("apply", infos, part.tolist()))

    if kwargs.get("lost") is True:
        kwargs["lost"] = lambda part: log.append(("lost", part.tolist()))
    kwargs.setdefault("cost", None)
    gen = fetch_round(_FakeG(log), _FakeProc(log), np.asarray(ids), apply,
                      **kwargs)
    try:
        effect = next(gen)
        while True:
            assert isinstance(effect, Wait)
            shard, _ids = effect.future
            log.append(("wait", shard))
            if shard in fail:
                effect = gen.throw(fail[shard])
            else:
                effect = gen.send(_Infos(f"infos{shard}"))
    except StopIteration:
        return log


def only(log, *kinds):
    return [e for e in log if e[0] in kinds]


class TestFetchRoundUnit:
    IDS = [25, 3, 12, 21, 7, 15]     # shards 2, 0, 1, 2, 0, 1

    def test_remote_issued_ascending_before_local(self):
        log = drive(self.IDS)
        assert only(log, "issue") == [
            ("issue", 0, [3, 7]), ("issue", 2, [25, 21]),
            ("issue", 1, [12, 15]),
        ]

    def test_apply_is_local_first_then_issue_order_with_ids_of_mask(self):
        log = drive(self.IDS)
        assert only(log, "apply") == [
            ("apply", "infos1", [12, 15]), ("apply", "infos0", [3, 7]),
            ("apply", "infos2", [25, 21]),
        ]
        # ... and the ids are exactly ids[mask] of the one router
        ids = np.asarray(self.IDS)
        for (_, infos, part) in only(log, "apply"):
            mask = shard_masks(_FakeG.base, ids)[int(infos[-1])]
            assert part == ids[mask].tolist()

    def test_overlap_waits_remote_after_local_work(self):
        log = drive(self.IDS, overlap=True)
        assert only(log, "wait", "apply") == [
            ("wait", 1), ("apply", "infos1", [12, 15]),
            ("wait", 0), ("apply", "infos0", [3, 7]),
            ("wait", 2), ("apply", "infos2", [25, 21]),
        ]

    def test_no_overlap_consumes_every_remote_before_first_apply(self):
        log = drive(self.IDS, overlap=False)
        assert only(log, "wait", "apply") == [
            ("wait", 0), ("wait", 2),
            ("wait", 1), ("apply", "infos1", [12, 15]),
            ("apply", "infos0", [3, 7]), ("apply", "infos2", [25, 21]),
        ]

    def test_charges_and_spans(self):
        """Routing is charged as pop over the routed ids, every apply as
        push over its rows and entries, and every remote wait — never the
        local one — sits inside a fetch span."""
        log = drive(self.IDS, cost=COMPUTE.expand)
        assert log[0] == ("compute", "pop", COMPUTE.route(len(self.IDS)))
        assert len(only(log, "compute")) == 1 + 3
        assert len(only(log, "enter")) == 2
        for k, event in enumerate(log):
            if event[0] == "apply":
                assert log[k + 1] == ("compute", "push",
                                      COMPUTE.expand(len(event[2]), 3))
            if event[0] == "wait" and event[1] != _FakeG.shard_id:
                assert log[k - 1] == ("enter", "span", "fetch",
                                      {"shard": event[1]})
                assert log[k + 1][0] == "exit"
            if event == ("wait", _FakeG.shard_id):
                assert log[k - 1][0] != "enter"

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("exc", [RpcTimeoutError("t"),
                                     WorkerCrashedError("c")])
    def test_transport_error_reaches_lost_with_that_shards_ids(
            self, exc, overlap):
        log = drive(self.IDS, fail={2: exc}, lost=True, overlap=overlap)
        assert only(log, "lost") == [("lost", [25, 21])]
        # the healthy shards were applied, and local work came first
        assert only(log, "apply", "lost") == [
            ("apply", "infos1", [12, 15]), ("apply", "infos0", [3, 7]),
            ("lost", [25, 21]),
        ]

    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("exc_type", TRANSPORT_ERRORS)
    def test_transport_error_reraises_without_lost(self, exc_type, overlap):
        with pytest.raises(exc_type):
            drive(self.IDS, fail={0: exc_type("x")}, overlap=overlap)

    @pytest.mark.parametrize("overlap", [True, False])
    def test_handler_error_propagates_even_with_lost(self, overlap):
        with pytest.raises(ShardError):
            drive(self.IDS, fail={0: ShardError("bug")}, lost=True,
                  overlap=overlap)

    def test_a_collecting_apply_is_not_charged(self):
        """``cost=None``: the caller pushes (and charges) what ``apply``
        collected, so only the routing is charged here."""
        log = drive(self.IDS)
        assert only(log, "compute") == [
            ("compute", "pop", COMPUTE.route(len(self.IDS)))]
        assert len(only(log, "apply")) == 3

    def test_local_only_and_remote_only_rounds(self):
        assert only(drive([12, 15]), "issue", "apply") == [
            ("issue", 1, [12, 15]), ("apply", "infos1", [12, 15])]
        assert only(drive([25]), "issue", "apply") == [
            ("issue", 2, [25]), ("apply", "infos2", [25])]

    def test_empty_ids_issue_nothing(self):
        log = drive(np.empty(0, dtype=np.int64))
        assert only(log, "issue", "wait", "apply") == []


# ---------------------------------------------------------------------------
# (b) the parent's hand-written loop as the oracle
# ---------------------------------------------------------------------------

def _handwritten_round(g, proc, node_ids, apply, *, cost, overlap=True,
                       lost=None):
    """The batched branch of the parent's ``distributed_sppr_query``,
    verbatim but for its names (``opt.overlapped`` -> ``overlap``,
    ``skip`` -> ``lost is not None``, ``m.push`` / ``m.abandon`` ->
    ``apply`` / ``lost``); its charges are ``fetch_round``'s."""
    shard = g.shard_id
    masks = g.shard_masks(node_ids)
    proc.compute("pop", COMPUTE.route(len(node_ids)))

    def charged(infos, ids):
        apply(infos, ids)
        if cost is not None:
            proc.compute("push", cost(len(ids), infos.n_entries))

    futs = {}
    for j, mask in masks.items():
        if j != shard:
            futs[j] = g.get_neighbor_infos(j, node_ids[mask])

    remote_infos = {}
    if not overlap:
        for j, fut in futs.items():
            try:
                with proc.span("fetch", shard=j):
                    remote_infos[j] = yield Wait(fut)
            except TRANSPORT_ERRORS:
                if lost is None:
                    raise
                remote_infos[j] = None

    local_mask = masks.get(shard)
    if local_mask is not None:
        lfut = g.get_neighbor_infos(shard, node_ids[local_mask])
        infos = yield Wait(lfut)
        charged(infos, node_ids[local_mask])

    for j in futs:
        jm = masks[j]
        if overlap:
            try:
                with proc.span("fetch", shard=j):
                    infos = yield Wait(futs[j])
            except TRANSPORT_ERRORS:
                if lost is None:
                    raise
                infos = None
        else:
            infos = remote_infos[j]
        if infos is None:
            lost(node_ids[jm])
            continue
        charged(infos, node_ids[jm])


class _RecordingStorage(DistGraphStorage):
    """``DistGraphStorage`` that logs ``(method, dest shard, ids)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def get_neighbor_infos(self, dest_shard, ids):
        self.calls.append(("get_neighbor_infos", int(dest_shard),
                           np.asarray(ids).tolist()))
        return super().get_neighbor_infos(dest_shard, ids)

    def source_weighted_degrees(self, dest_shard, ids):
        self.calls.append(("source_weighted_degrees", int(dest_shard),
                           np.asarray(ids).tolist()))
        return super().source_weighted_degrees(dest_shard, ids)


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(500, 6, mixing=0.3, seed=11)
    return GraphEngine(graph, EngineConfig(n_machines=3))


def _engine_body(opt, degradation, *, batched=False):
    """One query (its first source) or, ``batched``, all three."""
    def body(g, proc, sources, sharded):
        return distributed.distributed_sppr_query(
            g, proc, sources if batched else int(sources[0]), PARAMS,
            opt=opt, degradation=degradation)
    return body


def _tensor_body(g, proc, sources, sharded):
    return distributed.distributed_tensor_query(
        g, proc, int(sources[0]), PARAMS, sharded.to_node)


def run_driver(engine, runtime, body, *, compress=True, plan=None,
               policy=None):
    """One driver on machine 0 of a fresh cluster.

    Returns ``(state or the transport error it died of, call log)``.
    """
    sharded = engine.sharded
    cluster = deploy(sharded, engine.config, runtime, fault_plan=plan,
                     retry_policy=policy)
    sources = sharded.base[0] + np.array([0, 5, 9], dtype=np.int64)
    proc = cluster.worker(0, 0)
    g = _RecordingStorage(cluster.rrefs, 0, proc.name, compress=compress)
    name = cluster.spawn_compute(0, 0, body(g, proc, sources, sharded))
    try:
        cluster.run()
    except TRANSPORT_ERRORS as exc:
        return exc, g.calls
    return cluster.result_of(name), g.calls


def assert_same_state(a, b):
    assert type(a) is type(b)
    if isinstance(a, Exception):
        return
    for name in ("ppr", "residual", "queued", "wdeg", "abandoned_mass",
                 "skipped_fetches"):
        if hasattr(a, name):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), \
                name
    for name in ("n_pushes", "n_entries_processed", "n_iterations"):
        assert getattr(a, name, None) == getattr(b, name, None), name
    if hasattr(a, "map"):
        assert a.map.keys().tobytes() == b.map.keys().tobytes()


HEALTHY = (None, None)
#: retries exhausted on most remote fetches: the ``lost=`` path fires
LOSSY = (FaultPlan(seed=3, drop_prob=0.6),
         RetryPolicy(max_attempts=2, timeout=0.01))
#: every drop is retried to success: the call *sequence* is what replays
RETRIED = (FaultPlan(seed=13, drop_prob=0.15),
           RetryPolicy(max_attempts=8, timeout=5.0))

SKIP = DegradationMode.SKIP_REMOTE
FAIL = DegradationMode.FAIL_FAST
CASES = {
    "overlap": (_engine_body(OptLevel.OVERLAP, FAIL), True, HEALTHY),
    "compress": (_engine_body(OptLevel.COMPRESS, FAIL), True, HEALTHY),
    "batch": (_engine_body(OptLevel.BATCH, FAIL), False, HEALTHY),
    "tensor": (_tensor_body, True, HEALTHY),
    "multi": (_engine_body(OptLevel.OVERLAP, FAIL, batched=True), True,
              HEALTHY),
    "overlap-skip": (_engine_body(OptLevel.OVERLAP, SKIP), True, LOSSY),
    "compress-skip": (_engine_body(OptLevel.COMPRESS, SKIP), True, LOSSY),
    "batch-skip": (_engine_body(OptLevel.BATCH, SKIP), False, LOSSY),
    "overlap-fail-fast": (_engine_body(OptLevel.OVERLAP, FAIL), True, LOSSY),
    "tensor-drops": (_tensor_body, True, RETRIED),
    "multi-drops": (_engine_body(OptLevel.OVERLAP, FAIL, batched=True),
                    True, RETRIED),
    "multi-skip": (_engine_body(OptLevel.OVERLAP, SKIP, batched=True), True,
                   LOSSY),
    "multi-batch-skip": (_engine_body(OptLevel.BATCH, SKIP, batched=True),
                         False, LOSSY),
}


class TestHandwrittenOracle:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_calls_same_state(self, engine, monkeypatch, runtime, case):
        body, compress, (plan, policy) = CASES[case]
        new, new_calls = run_driver(engine, runtime, body, compress=compress,
                                    plan=plan, policy=policy)
        monkeypatch.setattr(distributed, "fetch_round", _handwritten_round)
        old, old_calls = run_driver(engine, runtime, body, compress=compress,
                                    plan=plan, policy=policy)
        assert new_calls == old_calls
        assert len(new_calls) > 3
        assert_same_state(new, old)
        if case.endswith("-skip"):
            assert new.skipped_fetches.any() and new.abandoned_mass.any()
        elif case == "overlap-fail-fast":
            assert isinstance(new, TRANSPORT_ERRORS)
        else:
            assert not isinstance(new, Exception)

    def test_both_runtimes_agree_under_loss(self, engine):
        body, compress, (plan, policy) = CASES["overlap-skip"]
        sim, sim_calls = run_driver(engine, "sim", body, plan=plan,
                                    policy=policy)
        thr, thr_calls = run_driver(engine, "threads", body, plan=plan,
                                    policy=policy)
        assert sim_calls == thr_calls
        assert_same_state(sim, thr)


# ---------------------------------------------------------------------------
# (c) the push state runs the reference schedule
# ---------------------------------------------------------------------------

class _Rows:
    """A response over explicit rows, as ``to_arrays()`` returns it."""

    def __init__(self, indptr, ids, weights, wdeg, src_wdeg):
        self.arrays = (indptr, ids, weights, wdeg, src_wdeg)

    def to_arrays(self):
        return self.arrays


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(2, 24))
    density = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    adj = sp.random(n, n, density=density, random_state=rng,
                    data_rvs=lambda k: rng.uniform(0.1, 2.0, k)).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj, draw(st.integers(0, n - 1))


def _response(adj, wdeg, ids):
    counts = np.diff(adj.indptr)[ids]
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    cols = np.concatenate([adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
                           for v in ids] + [np.empty(0, dtype=np.int64)])
    data = np.concatenate([adj.data[adj.indptr[v]:adj.indptr[v + 1]]
                           for v in ids] + [np.empty(0)])
    cols = cols.astype(np.int64)
    return _Rows(indptr, cols, data, wdeg[cols], wdeg[ids])


def _round(state, adj, wdeg, ids, schedule, k):
    """One iteration's pushes (and write-offs) in the given schedule."""
    if schedule == "single":         # one vertex per response, descending
        parts = [ids[i:i + 1] for i in range(len(ids) - 1, -1, -1)]
    else:                            # two responses, like a two-shard round
        parts = [ids[::2], ids[1::2]]
    for j, part in enumerate(parts):
        if schedule == "abandon" and (j + k) % 2:
            state.abandon(part)
        else:
            state.push(_response(adj, wdeg, part), part)


class TestPopTimeSchedule:
    @given(weighted_graphs(), st.sampled_from([1e-2, 1e-4]),
           st.sampled_from(["split", "single", "abandon"]))
    @settings(max_examples=40, deadline=None)
    def test_any_split_runs_the_reference(self, graph, epsilon, schedule):
        """However an iteration's frontier is split into responses, and in
        whatever order they come back, ``SSPPR`` makes
        ``forward_push_parallel``'s pushes in its iterations and ends at its
        values up to float reassociation; with ``skip_remote`` write-offs
        the mass is still conserved, ``abandoned_mass`` included."""
        adj, source = graph
        csr = CSRGraph.from_scipy(adj)
        wdeg = csr.weighted_degrees
        params = PPRParams(epsilon=epsilon)
        state = SSPPR(source, params, wdeg[source])
        for k in range(200):
            ids = state.pop()
            if len(ids) == 0:
                break
            _round(state, adj, wdeg, ids, schedule, k)
        view = state.query(0)
        assert state.total_mass() + view.abandoned_mass == \
            pytest.approx(1.0, abs=1e-12)
        if schedule == "abandon":
            return
        ppr, residual, ref = forward_push_parallel(csr, source, params)
        assert (state.n_pushes, state.n_iterations) == \
            (ref.n_pushes, ref.n_iterations)
        ids, values = view.results()
        dense = np.zeros(csr.n_nodes)
        dense[ids] = values
        np.testing.assert_allclose(dense, ppr, rtol=1e-12, atol=1e-15)

    def test_unpopped_source_raises_on_both_push_paths(self):
        """``push`` (and ``abandon``) refuse a node the last pop did not
        return, or one already pushed or written off this iteration — on
        the one-pair-per-node path ``SSPPR`` takes, and on the general pair
        expansion of a batch with a node active twice."""
        adj = sp.csr_matrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                                     dtype=float))
        wdeg = np.asarray(adj.sum(axis=1)).ravel()
        stranger = np.array([2])
        one = SSPPR(0, PARAMS, wdeg[0])
        with pytest.raises(ValueError, match="never touched"):
            one.push(_response(adj, wdeg, stranger), stranger)  # before pop
        np.testing.assert_array_equal(one.pop(), [0])
        assert one._pending.one_each                # the shortcut is selected
        with pytest.raises(ValueError, match="never touched"):
            one.push(_response(adj, wdeg, stranger), stranger)
        twice = MultiSSPPR([0, 0], PARAMS, wdeg[[0, 0]])
        np.testing.assert_array_equal(twice.pop(), [0])
        assert not twice._pending.one_each          # the general path
        for state in (one, twice):
            with pytest.raises(ValueError, match="never touched"):
                state.abandon(stranger)
        with pytest.raises(ValueError, match="never touched"):
            twice.push(_response(adj, wdeg, stranger), stranger)
        # the popped node itself is accepted on both paths
        popped = np.array([0])
        for state in (one, twice):
            state.push(_response(adj, wdeg, popped), popped)
        assert twice.n_pushes == 2 and one.n_pushes == 1
        # ... once: a second push or a write-off of it is refused
        for state in (one, twice):
            with pytest.raises(ValueError, match="already pushed"):
                state.push(_response(adj, wdeg, popped), popped)
            with pytest.raises(ValueError, match="already pushed"):
                state.abandon(popped)
        assert twice.n_pushes == 2 and one.n_pushes == 1
        # ... nor twice within one push
        again = SSPPR(0, PARAMS, wdeg[0])
        again.pop()
        doubled = np.array([0, 0])
        with pytest.raises(ValueError, match="already pushed"):
            again.push(_response(adj, wdeg, doubled), doubled)


# ---------------------------------------------------------------------------
# (d) traced runs of the modes that used to have no fetch span
# ---------------------------------------------------------------------------

class TestFetchSpans:
    @pytest.mark.parametrize("mode", ["batched", "tensor"])
    def test_one_fetch_span_per_remote_wait(self, engine, mode):
        """Each driver issues one ``get_neighbor_infos`` per remote shard
        per round and waits for it once; without a halo cache every one
        of those is one remote RPC, so the counts must agree."""
        run = engine.run(RunRequest(
            n_queries=6, params=PARAMS, mode=mode, trace=True))
        spans = [s for s in run.obs.tracer.spans if s.name == "fetch"]
        assert len(spans) > 0
        assert len(spans) == run.remote_requests
        assert all("shard" in s.attrs for s in spans)


# ---------------------------------------------------------------------------
# one router: the K-pass scans it replaced are the oracle
# ---------------------------------------------------------------------------

def _kpass_masks(base, ids):
    owner = np.searchsorted(base, ids, side="right") - 1
    return {j: np.flatnonzero(owner == j)
            for j in range(len(base) - 1) if (owner == j).any()}


class TestOneRouter:
    @given(st.lists(st.integers(0, 29), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_shard_masks_is_the_kpass_scan(self, ids):
        ids = np.asarray(ids, dtype=np.int64)
        got = shard_masks(_FakeG.base, ids)
        want = _kpass_masks(_FakeG.base, ids)
        assert list(got) == list(want)          # ascending, present only
        positions = np.arange(len(ids))
        for j in want:
            np.testing.assert_array_equal(positions[got[j]], want[j])

    def test_assign_queries_dict_unchanged(self, engine):
        sharded = engine.sharded
        sources = sharded.nodes_of(
            np.random.default_rng(5).integers(0, 500, size=40))
        owner = sharded.owner_of(sources)
        want = {}
        for m in range(sharded.n_shards):
            mine = sources[owner == m]
            for p in range(3):
                if len(mine[p::3]):
                    want[(m, p)] = mine[p::3]
        got = assign_queries(sharded, sources, 3)
        assert list(got) == list(want)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])

    def test_sampler_csr_unchanged(self, engine):
        """``induce_subgraph`` through the shared router equals the
        induced adjacency read straight off the whole graph."""
        sharded = engine.sharded
        node_set = np.unique(
            np.random.default_rng(9).integers(0, 500, size=120))
        cluster = deploy(sharded, engine.config, "sim")
        proc = cluster.worker(0, 0)
        g = DistGraphStorage(cluster.rrefs, 0, proc.name)
        name = cluster.spawn_compute(
            0, 0, induce_subgraph(sharded, g, node_set))
        cluster.run()
        got = cluster.result_of(name)
        graph = engine.graph
        whole = sp.csr_matrix(
            (graph.weights, graph.indices, graph.indptr),
            shape=(graph.n_nodes, graph.n_nodes))
        want = whole[node_set][:, node_set].tocsr()
        want.sort_indices()
        got.sort_indices()
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.data, want.data)


# ---------------------------------------------------------------------------
# walks: one execution path
# ---------------------------------------------------------------------------

class TestWalksShareOneBody:
    def test_engine_and_session_rows_agree(self, engine):
        """``run_random_walks`` keeps every sampled root's row (duplicates
        included); a session draining the same roots resolves each handle
        to the same row."""
        run = engine.run_random_walks(9, 5, seed=4)
        assert run.walks.shape == (9, 5 + 1)
        np.testing.assert_array_equal(run.roots, run.walks[:, 0])
        assert sorted(run.roots.tolist()) == sorted(
            sample_sources(engine.sharded, 9, seed=4).tolist())
        session = engine.open_session(SessionConfig())
        handles = [session.submit(Query(source=int(r), kind="walk",
                                        walk_length=5))
                   for r in run.roots]
        session.drain()
        by_root = {int(row[0]): row for row in run.walks}
        for h in handles:
            np.testing.assert_array_equal(h.result(),
                                          by_root[h.query.source])
