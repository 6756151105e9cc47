"""Integration tests for the GraphEngine facade: end-to-end distributed
SSPPR / tensor baseline / random walks on the virtual-time cluster."""

import dataclasses
import warnings

import numpy as np
import pytest

from repro import (
    DegradationMode,
    EngineConfig,
    GraphEngine,
    OptLevel,
    PPRParams,
    RunRequest,
)
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner
from repro.ppr import forward_push_parallel
from repro.simt.network import NetworkModel


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(600, 8, mixing=0.15, seed=42)


@pytest.fixture(scope="module")
def engine(graph):
    return GraphEngine(graph, EngineConfig(n_machines=3, procs_per_machine=2,
                                           seed=0))


class TestRunQueries:
    def test_basic_run(self, graph, engine):
        run = engine.run(RunRequest(n_queries=6, keep_states=True))
        assert run.n_queries == 6
        assert run.makespan > 0
        assert run.throughput > 0
        assert len(run.states) == 6
        assert run.remote_requests > 0

    def test_results_match_reference(self, graph, engine):
        params = PPRParams()
        run = engine.run(RunRequest(n_queries=4, keep_states=True, seed=5))
        bound = 2 * params.epsilon * graph.weighted_degrees.sum()
        for gid, state in run.states.items():
            approx = state.dense_result(engine.sharded, graph.n_nodes)
            ref, _, _ = forward_push_parallel(graph, gid, params)
            assert np.abs(approx - ref).sum() <= bound
            assert state.total_mass() == pytest.approx(1.0)

    def test_explicit_sources(self, graph, engine):
        sources = np.array([1, 2, 3])
        run = engine.run(RunRequest(sources=sources, keep_states=True))
        assert set(run.states) == {1, 2, 3}

    def test_missing_args_rejected(self, engine):
        with pytest.raises(ValueError, match="n_queries or sources"):
            engine.run(RunRequest())

    def test_phases_populated(self, engine):
        run = engine.run(RunRequest(n_queries=4))
        assert run.phases["push"] > 0
        assert run.phases["remote_fetch"] > 0
        assert sum(run.phase_ratios().values()) == pytest.approx(1.0)

    def test_deterministic_virtual_network_costs(self, graph):
        """Modeled terms are deterministic; measured compute varies, so
        compare structural counters rather than clocks."""
        e1 = GraphEngine(graph, EngineConfig(n_machines=2, seed=3))
        e2 = GraphEngine(graph, EngineConfig(n_machines=2, seed=3))
        r1 = e1.run(RunRequest(n_queries=4, seed=9))
        r2 = e2.run(RunRequest(n_queries=4, seed=9))
        assert r1.remote_requests == r2.remote_requests
        assert r1.local_calls == r2.local_calls

    def test_single_machine_no_remote_requests(self, graph):
        e = GraphEngine(graph, EngineConfig(n_machines=1))
        run = e.run(RunRequest(n_queries=3))
        assert run.remote_requests == 0
        assert run.phases["remote_fetch"] == 0.0


class TestRunRequestApi:
    def test_run_is_deterministic_for_equal_requests(self, engine):
        sources = np.array([1, 2, 3])
        new = engine.run(RunRequest(sources=sources, keep_states=True))
        old = engine.run(RunRequest(sources=sources, keep_states=True))
        assert set(new.states) == set(old.states) == {1, 2, 3}
        for gid in new.states:
            a = new.states[gid].dense_result(engine.sharded,
                                             engine.graph.n_nodes)
            b = old.states[gid].dense_result(engine.sharded,
                                             engine.graph.n_nodes)
            assert np.allclose(a, b)

    def test_run_queries_shim_removed(self, engine):
        assert not hasattr(engine, "run_queries")

    def test_run_does_not_warn(self, engine):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.run(RunRequest(n_queries=2))

    def test_mode_dispatch(self, engine):
        tensor = engine.run(RunRequest(n_queries=2, mode="tensor",
                                       keep_states=True))
        batched = engine.run(RunRequest(n_queries=2, mode="batched"))
        assert len(tensor.states) == 2
        assert len(batched.states) == 2  # batched always collects

    def test_opt_override(self, graph):
        e = GraphEngine(graph, EngineConfig(n_machines=2,
                                            opt=OptLevel.OVERLAP, seed=1))
        per_vertex = GraphEngine(graph, dataclasses.replace(
            e.config, opt=OptLevel.SINGLE), sharded=e.sharded)
        single = per_vertex.run(RunRequest(n_queries=4, seed=2))
        overlap = e.run(RunRequest(n_queries=4, seed=2))
        # per-vertex mode issues far more RPCs than the config's OVERLAP
        assert single.remote_requests > overlap.remote_requests

    def test_validation(self):
        with pytest.raises(ValueError, match="n_queries or sources"):
            RunRequest()
        with pytest.raises(ValueError, match="not both"):
            RunRequest(n_queries=2, sources=np.array([1]))
        with pytest.raises(ValueError, match="must be > 0"):
            RunRequest(n_queries=0)
        with pytest.raises(ValueError, match="mode"):
            RunRequest(n_queries=1, mode="warp")
        with pytest.raises(TypeError, match="DegradationMode"):
            RunRequest(n_queries=1, degradation="skip_remote")

    def test_request_is_frozen_and_reusable(self, engine):
        req = RunRequest(n_queries=3)
        a = engine.run(req)
        b = engine.run(req)
        assert a.n_queries == b.n_queries == 3
        with pytest.raises(AttributeError):
            req.n_queries = 5

    def test_latency_percentile_keys_are_floats(self, engine):
        run = engine.run(RunRequest(n_queries=4))
        p = run.latency_percentiles(q=(50, 90))
        assert all(isinstance(k, float) for k in p)
        assert p[50.0] <= p[90.0]

    def test_single_query_percentiles_no_warning(self, engine):
        """Regression: one latency sample must not trip NumPy warnings,
        and every percentile collapses to that sample."""
        sources = np.array([1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run = engine.run(RunRequest(sources=sources))
            p = run.latency_percentiles()
        assert set(p) == {50.0, 90.0, 99.0}
        only = run.latencies[1]
        assert all(v == pytest.approx(only) for v in p.values())


class TestOptLevels:
    @pytest.mark.parametrize("opt", list(OptLevel))
    def test_all_levels_correct(self, graph, opt):
        cfg = EngineConfig(n_machines=2, opt=opt, seed=1)
        e = GraphEngine(graph, cfg)
        params = PPRParams(epsilon=1e-5)
        run = e.run(RunRequest(n_queries=2, keep_states=True, params=params,
                            seed=4))
        bound = 2 * params.epsilon * graph.weighted_degrees.sum()
        for gid, state in run.states.items():
            approx = state.dense_result(e.sharded, graph.n_nodes)
            ref, _, _ = forward_push_parallel(graph, gid, params)
            assert np.abs(approx - ref).sum() <= bound, f"opt={opt}"

    def test_batching_reduces_rpc_count(self, graph):
        runs = {}
        for opt in (OptLevel.SINGLE, OptLevel.BATCH):
            e = GraphEngine(graph, EngineConfig(n_machines=2, opt=opt, seed=1))
            runs[opt] = e.run(RunRequest(n_queries=2, seed=4,
                                      params=PPRParams(epsilon=1e-5)))
        assert runs[OptLevel.BATCH].remote_requests < \
            0.5 * runs[OptLevel.SINGLE].remote_requests

    def test_overlap_not_slower_than_compress(self, graph):
        """Overlap hides remote latency behind local work.

        Judged on the modelled quantity overlap changes — virtual seconds
        blocked on remote futures — not on two makespans that mostly carry
        host-measured compute.  Host noise only ever adds time, so the
        best of three runs filters a preempted one.
        """
        remote_wait = {}
        for opt in (OptLevel.COMPRESS, OptLevel.OVERLAP):
            e = GraphEngine(graph, EngineConfig(n_machines=2, opt=opt, seed=1))
            remote_wait[opt] = min(
                e.run(RunRequest(n_queries=4, seed=4)).phases["remote_fetch"]
                for _ in range(3))
        assert remote_wait[OptLevel.OVERLAP] < remote_wait[OptLevel.COMPRESS]


class TestTensorBaseline:
    def test_tensor_matches_engine(self, graph, engine):
        params = PPRParams(epsilon=1e-5)
        a = engine.run(RunRequest(sources=np.array([10, 20]), keep_states=True,
                               params=params))
        b = engine.run_tensor_queries(sources=np.array([10, 20]),
                                      keep_states=True, params=params)
        bound = 2 * params.epsilon * graph.weighted_degrees.sum()
        for gid in (10, 20):
            da = a.states[gid].dense_result(engine.sharded, graph.n_nodes)
            db = b.states[gid].dense_result()
            assert np.abs(da - db).sum() <= bound

    @pytest.mark.slow
    def test_tensor_pop_cost_scales_with_v(self):
        """The tensor baseline's pop is |V|-proportional (Figure 6 claim):
        per-iteration pop time grows with graph size even at fixed
        touched-set structure."""
        small = powerlaw_cluster(1000, 6, mixing=0.05, seed=1)
        big = powerlaw_cluster(60_000, 6, mixing=0.05, seed=1)
        per_iter = {}
        for name, g in (("small", small), ("big", big)):
            e = GraphEngine(g, EngineConfig(
                n_machines=2, partitioner=HashPartitioner(), seed=1,
            ))
            run = e.run_tensor_queries(n_queries=3, seed=2, keep_states=True)
            iters = sum(s.n_iterations for s in run.states.values())
            per_iter[name] = run.phases["pop"] / iters
        assert per_iter["big"] > 2 * per_iter["small"]


class TestRandomWalks:
    def test_walks_shape_and_validity(self, graph, engine):
        run = engine.run_random_walks(n_roots=9, walk_length=4)
        assert run.walks.shape == (9, 5)
        np.testing.assert_array_equal(np.sort(run.walks[:, 0]),
                                      np.sort(run.roots))
        for i in range(9):
            for s in range(4):
                u, v = run.walks[i, s], run.walks[i, s + 1]
                assert u == v or graph.has_arc(u, v)

    def test_walk_throughput_positive(self, engine):
        run = engine.run_random_walks(n_roots=4, walk_length=3)
        assert run.throughput > 0


class TestConfigValidation:
    def test_invalid_config(self):
        with pytest.raises(ValueError):
            EngineConfig(n_machines=0)
        with pytest.raises(ValueError):
            EngineConfig(procs_per_machine=0)

    def test_prebuilt_shards_mismatch(self, graph):
        from repro.storage import build_shards
        sharded = build_shards(graph, HashPartitioner().partition(graph, 2))
        with pytest.raises(ValueError, match="prebuilt"):
            GraphEngine(graph, EngineConfig(n_machines=4), sharded=sharded)

    def test_prebuilt_shards_used(self, graph):
        from repro.storage import build_shards
        sharded = build_shards(graph, HashPartitioner().partition(graph, 2))
        e = GraphEngine(graph, EngineConfig(n_machines=2), sharded=sharded)
        assert e.sharded is sharded

    def test_instant_network(self, graph):
        cfg = EngineConfig(n_machines=2, network=NetworkModel.instant())
        run = GraphEngine(graph, cfg).run(RunRequest(n_queries=2))
        assert run.phases["remote_fetch"] < run.phases["push"]
