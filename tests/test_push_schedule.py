"""The engine runs the parallel Forward Push schedule of Shun et al.

:func:`~repro.ppr.forward_push_parallel.forward_push_parallel` reads every
frontier residual at pop time and pushes the whole frontier once per
iteration.  These tests hold the distributed engine to that schedule:

* every pair ``pop`` returns is still above its activation threshold at
  pop time — a node is never re-queued by a peer and then drained by its
  own push in the same iteration (the push-time schedule did that, and
  pushed it again next iteration with whatever was left);
* on the golden graph, under every ``OptLevel`` and on both runtimes, the
  engine's push and iteration counts are the reference's, query by query,
  its mass is conserved and its scores sit within ``eps * sum(d_w)`` of
  the reference's;
* a fused ``MultiSSPPR`` batch makes exactly the sum of its queries'
  reference pushes, in the max of their iteration counts;
* after every ``push``, at every level, each touched slot whose residual
  exceeds ``eps * d_w`` is queued — the invariant that lets ``push`` test
  the threshold only on the slots its spread hit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.graph import CSRGraph, load_dataset, powerlaw_cluster
from repro.ppr import MultiSSPPR, OptLevel, PPRParams, SSPPR
from repro.ppr.forward_push_parallel import forward_push_parallel
from repro.serving.session import Session, SessionConfig

RUNTIMES = ("sim", "threads")
#: the golden graph and epsilon of ``tests/test_golden_bitwise.py``
GOLDEN_PARAMS = PPRParams(epsilon=1e-6)


def _sibling(engine, opt):
    return GraphEngine(engine.graph,
                       dataclasses.replace(engine.config, opt=opt),
                       sharded=engine.sharded)


def _run(engine, request, runtime):
    if runtime == "sim":
        return engine.run(request)
    return Session(engine, SessionConfig(runtime=runtime)).run(request)


@pytest.fixture(scope="module")
def hub_engine():
    """The ``twitter`` stand-in (55% cross-shard edges, power-law hubs)."""
    return GraphEngine(load_dataset("twitter", scale=0.02),
                       EngineConfig(n_machines=4))


@pytest.fixture(scope="module")
def golden_engine():
    graph = powerlaw_cluster(600, 6, mixing=0.3, seed=5)
    return GraphEngine(graph, EngineConfig(n_machines=3,
                                           procs_per_machine=1))


class TestNoDrainedPops:
    @pytest.mark.parametrize("opt", list(OptLevel), ids=lambda o: o.value)
    def test_every_popped_pair_is_above_threshold(self, hub_engine,
                                                  monkeypatch, opt):
        """At pop time each activated pair holds residual above
        ``eps * d_w`` (above zero when dangling).  Under the push-time
        schedule this failed at every level: a frontier node that a peer
        re-queued before its own push was popped again already drained."""
        seen = []
        original = MultiSSPPR.pop

        def checked_pop(state):
            slots = np.flatnonzero(state.queued[: len(state.map)])
            r = state.residual[slots]
            threshold = state.params.epsilon * state.wdeg[slots]
            seen.append(len(slots))
            assert np.all(r > threshold), (
                f"{np.count_nonzero(r <= threshold)} of {len(slots)} popped "
                f"pairs at or below threshold")
            return original(state)

        monkeypatch.setattr(MultiSSPPR, "pop", checked_pop)
        monkeypatch.setattr(SSPPR, "pop", checked_pop)
        for mode in ("engine", "batched"):
            _sibling(hub_engine, opt).run(RunRequest(
                n_queries=3, params=PPRParams(epsilon=1e-5), mode=mode,
                seed=11))
        assert sum(seen) > 100


class TestReferenceCounts:
    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("opt", list(OptLevel), ids=lambda o: o.value)
    def test_engine_counts_are_the_reference(self, golden_engine, runtime,
                                             opt):
        engine = golden_engine
        sources = (np.arange(3, dtype=np.int64) * 97) % engine.graph.n_nodes
        result = _run(_sibling(engine, opt), RunRequest(
            sources=sources, params=GOLDEN_PARAMS, keep_states=True),
            runtime)
        bound = GOLDEN_PARAMS.epsilon * engine.graph.weighted_degrees.sum()
        for gid in sources.tolist():
            view = result.states[gid]
            state = view.multi
            ppr, _, ref = forward_push_parallel(engine.graph, gid,
                                                GOLDEN_PARAMS)
            assert (state.n_pushes, state.n_iterations) == \
                (ref.n_pushes, ref.n_iterations), (opt, gid)
            assert view.total_mass() == pytest.approx(1.0, abs=1e-12)
            dense = view.dense_result(engine.sharded, engine.graph.n_nodes)
            assert np.abs(dense - ppr).sum() <= bound

    @pytest.mark.parametrize("runtime", RUNTIMES)
    @pytest.mark.parametrize("b", [3, 16])
    def test_batch_counts_sum_and_max(self, golden_engine, runtime, b):
        engine = golden_engine
        sources = engine.sharded.shards[0].core_global[:b]
        result = _run(engine, RunRequest(
            sources=sources, params=GOLDEN_PARAMS, mode="batched",
            keep_states=True), runtime)
        multis = {id(v.multi): v.multi for v in result.states.values()}
        assert len(multis) == 1
        multi = next(iter(multis.values()))
        assert multi.n_queries == b
        refs = [forward_push_parallel(engine.graph, int(gid),
                                      GOLDEN_PARAMS)[2]
                for gid in sources]
        assert multi.n_pushes == sum(r.n_pushes for r in refs)
        assert multi.n_iterations == max(r.n_iterations for r in refs)


@st.composite
def zero_weight_graphs(draw):
    """A small undirected graph whose arcs may weigh 0, with isolated
    nodes and nodes whose every arc weighs 0 (both dangling: ``d_w == 0``),
    plus a few sources and an epsilon."""
    n = draw(st.integers(4, 24))
    n_edges = draw(st.integers(0, 48))
    node = st.integers(0, n - 1)
    src = draw(st.lists(node, min_size=n_edges, max_size=n_edges))
    dst = draw(st.lists(node, min_size=n_edges, max_size=n_edges))
    weights = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),
                            min_size=n_edges, max_size=n_edges))
    sources = draw(st.lists(node, min_size=1, max_size=3, unique=True))
    epsilon = draw(st.sampled_from([1e-2, 1e-3, 1e-4]))
    return (CSRGraph.from_edges(n, src, dst, weights),
            np.array(sources, dtype=np.int64), PPRParams(epsilon=epsilon))


class TestQueuedInvariant:
    @given(zero_weight_graphs())
    @settings(max_examples=15, deadline=None)
    def test_every_push_queues_every_slot_above_threshold(self, case):
        """Under every ``OptLevel`` (``SINGLE`` pushes once per popped
        vertex, so many times an iteration) and in both the per-query and
        the fused mode: after each ``push`` no touched slot holds residual
        above ``eps * d_w`` without being queued."""
        graph, sources, params = case
        original = MultiSSPPR.push
        pushes = []

        def checked_push(state, infos, ids):
            original(state, infos, ids)
            n = len(state.map)
            above = (state.residual[:n]
                     > state.params.epsilon * state.wdeg[:n])
            stranded = np.flatnonzero(above & ~state.queued[:n])
            assert len(stranded) == 0, (
                f"{len(stranded)} touched slots above threshold unqueued")
            pushes.append(n)

        engine = GraphEngine(graph, EngineConfig(n_machines=2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(MultiSSPPR, "push", checked_push)
            mp.setattr(SSPPR, "push", checked_push)
            for opt in OptLevel:
                for mode in ("engine", "batched"):
                    before = len(pushes)
                    result = _sibling(engine, opt).run(RunRequest(
                        sources=sources, params=params, mode=mode,
                        keep_states=True))
                    for view in result.states.values():
                        assert view.total_mass() == pytest.approx(1.0)
                    # every source pushes at least once, dangling or not
                    assert len(pushes) > before
