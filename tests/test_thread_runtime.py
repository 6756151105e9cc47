"""The same distributed drivers running over real OS threads.

These tests demonstrate that the engine's coroutine code is runtime-
agnostic: identical PPR results under genuine concurrency (multiple worker
threads fetching from shared shard servers), exercising the thread-safety
of the storage layer (read-only shards + locked sampling RNG).
"""

import numpy as np
import pytest

from repro.graph import powerlaw_cluster
from repro.partition import MetisLitePartitioner
from repro.ppr import PPRParams, forward_push_parallel
from repro.ppr.distributed import OptLevel, distributed_sppr_query
from repro.rpc import ThreadRuntime
from repro.storage import DistGraphStorage, build_shards
from repro.walk.random_walk import distributed_random_walk

PARAMS = PPRParams(epsilon=1e-5)


def make_cluster(graph, n_machines, runtime):
    sharded = build_shards(
        graph, MetisLitePartitioner(seed=0).partition(graph, n_machines)
    )
    rrefs = []
    for m in range(n_machines):
        runtime.register_server(f"server:{m}", m)
        rrefs.append(runtime.create_remote(
            f"server:{m}", "storage", lambda s=sharded.shards[m]: s
        ))
    return sharded, rrefs


def collector_driver(g, proc, sources, sharded, out):
    ids = sharded.nodes_of(sources)
    for gid, node_id in zip(sources.tolist(), ids.tolist()):
        state = yield from distributed_sppr_query(
            g, proc, node_id, PARAMS, opt=OptLevel.OVERLAP
        )
        out[gid] = state
    return len(sources)


class TestThreadedSSPPR:
    def test_concurrent_queries_match_reference(self):
        graph = powerlaw_cluster(500, 8, mixing=0.15, seed=3)
        runtime = ThreadRuntime()
        sharded, rrefs = make_cluster(graph, 3, runtime)
        out = {}
        try:
            for m in range(3):
                name = f"compute:{m}"
                runtime.register_worker(name, m)
                mine = sharded.shards[m].core_global[:3]
                g = DistGraphStorage(rrefs, m, name, compress=True)
                proc = runtime.process_of(name)
                runtime.spawn(name, collector_driver(
                    g, proc, mine, sharded, out
                ))
            runtime.join(timeout=120)
        finally:
            runtime.shutdown()
        assert len(out) == 9
        bound = 2 * PARAMS.epsilon * graph.weighted_degrees.sum()
        for gid, state in out.items():
            approx = state.dense_result(sharded, graph.n_nodes)
            ref, _, _ = forward_push_parallel(graph, gid, PARAMS)
            assert np.abs(approx - ref).sum() <= bound
            assert state.total_mass() == pytest.approx(1.0)
        # remote fetches really crossed "machines"
        assert runtime.remote_requests > 0

    def test_threaded_random_walks_are_valid(self):
        graph = powerlaw_cluster(300, 6, seed=4)
        runtime = ThreadRuntime()
        sharded, rrefs = make_cluster(graph, 2, runtime)
        try:
            names = []
            for m in range(2):
                name = f"walker:{m}"
                runtime.register_worker(name, m)
                roots = np.arange(sharded.base[m], sharded.base[m] + 5)
                g = DistGraphStorage(rrefs, m, name, compress=True)
                proc = runtime.process_of(name)
                runtime.spawn(name, distributed_random_walk(
                    g, proc, roots, sharded, walk_length=6
                ))
                names.append(name)
            runtime.join(timeout=120)
        finally:
            runtime.shutdown()
        for name in names:
            walks = runtime.process_of(name).result
            assert walks.shape[1] == 7
            for row in walks:
                for s in range(6):
                    u, v = row[s], row[s + 1]
                    assert u == v or graph.has_arc(int(u), int(v))

    def test_driver_exception_propagates_via_join(self):
        runtime = ThreadRuntime()
        runtime.register_worker("w0", 0)

        def bad_driver():
            raise RuntimeError("driver blew up")
            yield  # pragma: no cover - makes this a generator

        runtime.spawn("w0", bad_driver())
        with pytest.raises(RuntimeError, match="driver blew up"):
            runtime.join(timeout=10)

    def test_spawn_unregistered_rejected(self):
        from repro.errors import RpcError
        runtime = ThreadRuntime()

        def driver():
            yield

        with pytest.raises(RpcError, match="must be registered"):
            runtime.spawn("ghost", driver())
