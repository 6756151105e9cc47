"""Cross-stack determinism and stress tests.

Reproducibility is a core property of the virtual-time methodology: with
fixed seeds, a run is a pure function of (graph, seed, request).  Not only
everything structural (partitions, query sets, walk paths, RPC counts) but
every virtual second replays bit for bit: compute is charged from counts
(``repro.simt.compute``), never from the host clock, so makespans, phases,
per-process clocks and every count that follows the event interleaving
(retries, timeouts and give-ups under a crash window) are the same on any
host — which ``TestVirtualTimeReplays`` checks by skewing the host clock.
"""

import numpy as np
import pytest

import repro.serving.session as session_mod
import repro.utils.timer as timer
from repro import EngineConfig, GraphEngine, PPRParams, RunRequest
from repro.engine.query import sample_sources
from repro.graph import load_dataset, powerlaw_cluster
from repro.obs.analysis import machine_of_process, rpc_summary
from repro.partition import MetisLitePartitioner
from repro.ppr import DegradationMode
from repro.rpc import RetryPolicy
from repro.serving import Session, SessionConfig
from repro.simt import CrashWindow, FaultPlan, Scheduler, Sleep, Wait
from repro.storage import build_shards


class TestDeterminism:
    def test_dataset_generation_identical(self):
        a = load_dataset("products", scale=0.02, use_cache=False)
        b = load_dataset("products", scale=0.02, use_cache=False)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_allclose(a.weights, b.weights)

    def test_partition_identical(self):
        g = powerlaw_cluster(600, 8, mixing=0.1, seed=0)
        a = MetisLitePartitioner(seed=4).partition(g, 4).assignment
        b = MetisLitePartitioner(seed=4).partition(g, 4).assignment
        np.testing.assert_array_equal(a, b)

    def test_query_sampling_identical(self):
        g = powerlaw_cluster(400, 6, seed=1)
        sharded = build_shards(g, MetisLitePartitioner(seed=0).partition(g, 2))
        np.testing.assert_array_equal(
            sample_sources(sharded, 8, seed=9),
            sample_sources(sharded, 8, seed=9),
        )

    def test_walks_identical_in_sim(self):
        g = powerlaw_cluster(400, 6, seed=2)
        runs = []
        for _ in range(2):
            engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
            runs.append(engine.run_random_walks(n_roots=8, walk_length=6,
                                                seed=3))
        np.testing.assert_array_equal(runs[0].walks, runs[1].walks)

    def test_ppr_values_identical(self):
        """PPR math is deterministic (only timings vary between runs)."""
        g = powerlaw_cluster(400, 6, mixing=0.2, seed=3)
        results = []
        for _ in range(2):
            engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
            run = engine.run(RunRequest(n_queries=4, keep_states=True, seed=5))
            results.append({
                gid: s.dense_result(engine.sharded, g.n_nodes)
                for gid, s in run.states.items()
            })
        assert results[0].keys() == results[1].keys()
        for gid in results[0]:
            np.testing.assert_array_equal(results[0][gid], results[1][gid])

    def test_rpc_structure_identical(self):
        g = powerlaw_cluster(400, 6, mixing=0.2, seed=4)
        counts = []
        for _ in range(2):
            engine = GraphEngine(g, EngineConfig(n_machines=3, seed=0))
            run = engine.run(RunRequest(n_queries=6, seed=7, trace=True))
            machine_of = {s.process: machine_of_process(s.process)
                          for s in run.obs.tracer.spans}
            counts.append((run.remote_requests, run.local_calls,
                           rpc_summary(run.obs.tracer, machine_of)))
        assert counts[0] == counts[1]


class _SkewedClock:
    """A host clock that advances 1 ms on every read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1e-3
        return self.now


def _replay(run):
    """What a run must replay: its clocks and its interleaving's counts."""
    counts = {k: v for k, v in run.metrics.items() if k.startswith("rpc.")}
    return (run.makespan, run.per_proc_clocks, run.phases, run.latencies,
            run.retries, run.timeouts, run.degraded_queries,
            run.abandoned_mass, counts, run.heat)


def _plain_and_skewed(engine, request, monkeypatch):
    plain = engine.run(request)
    with monkeypatch.context() as patch:
        patch.setattr(timer.time, "perf_counter", _SkewedClock())
        skewed = engine.run(request)
    return plain, skewed


@pytest.fixture(scope="module")
def hub_graph():
    return powerlaw_cluster(800, 8, mixing=0.5, seed=7)


class TestVirtualTimeReplays:
    """A skewed host clock changes nothing a run reports."""

    @pytest.mark.parametrize("mode", ["engine", "batched", "tensor"])
    def test_hub_run_replays(self, hub_graph, monkeypatch, mode):
        """Three processes per machine interleave their remote fetches on
        the 50%-mixing hub graph, and share each machine's demand ledger."""
        engine = GraphEngine(hub_graph, EngineConfig(
            n_machines=2, procs_per_machine=3, seed=0))
        request = RunRequest(n_queries=12, seed=3, mode=mode,
                             params=PPRParams(epsilon=1e-5))
        plain, skewed = _plain_and_skewed(engine, request, monkeypatch)
        assert plain.remote_requests > 0 and any(plain.heat.values())
        assert _replay(skewed) == _replay(plain)

    def test_crash_window_faults_replay(self, hub_graph, monkeypatch):
        """Which attempts land in the outage — so every retry, timeout,
        give-up and degraded query — depends on virtual send times."""
        engine = GraphEngine(hub_graph, EngineConfig(
            n_machines=3, procs_per_machine=2, seed=0))
        request = RunRequest(
            n_queries=12, seed=3, params=PPRParams(epsilon=1e-5),
            fault_plan=FaultPlan(seed=5, crashes=(
                CrashWindow("server:1", 0.0005, 0.02),)),
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.003),
            degradation=DegradationMode.SKIP_REMOTE)
        plain, skewed = _plain_and_skewed(engine, request, monkeypatch)
        assert plain.retries > 0 and plain.timeouts > 0
        assert plain.metrics["rpc.giveups"] > 0
        assert plain.degraded_queries > 0
        assert _replay(skewed) == _replay(plain)

    @pytest.mark.parametrize("mode", ["engine", "batched", "tensor"])
    def test_sim_and_threads_charge_the_same_compute(self, hub_graph,
                                                     monkeypatch, mode):
        """Per driver process, the pop / push / local_exec seconds are
        bitwise equal on the scheduler and on real threads."""
        engine = GraphEngine(hub_graph, EngineConfig(n_machines=3, seed=0))
        request = RunRequest(n_queries=6, seed=3, mode=mode,
                             params=PPRParams(epsilon=1e-5))
        charged = {}
        real_deploy = session_mod.deploy
        for runtime in ("sim", "threads"):
            clusters = []

            def recording_deploy(*args, **kwargs):
                clusters.append(real_deploy(*args, **kwargs))
                return clusters[-1]

            with monkeypatch.context() as patch:
                patch.setattr(session_mod, "deploy", recording_deploy)
                Session(engine, SessionConfig(runtime=runtime)).run(request)
            charged[runtime] = {
                p.name: tuple(p.breakdown.get(c)
                              for c in ("pop", "push", "local_exec"))
                for p in clusters[0].compute_processes()}
        assert charged["threads"] == charged["sim"]
        assert all(pop > 0 and push > 0 and local > 0
                   for pop, push, local in charged["sim"].values())


class TestSchedulerStress:
    def test_many_processes(self):
        """500 interleaved processes complete deterministically."""
        sched = Scheduler()
        order = []

        def body(i):
            for step in range(3):
                yield Sleep(((i * 31 + step * 17) % 100) / 100.0)
            order.append(i)

        for i in range(500):
            sched.spawn(f"p{i}", body(i))
        sched.run()
        assert len(order) == 500

    def test_deep_future_chain(self):
        """A long chain of handoffs through futures resolves correctly."""
        from repro.simt import SimFuture
        sched = Scheduler()
        n = 200
        futs = [SimFuture(tag=f"f{i}") for i in range(n + 1)]
        futs[0].set_result(0, 0.0)

        def relay(i):
            value = yield Wait(futs[i])
            futs[i + 1].set_result(value + 1, sched.now)

        for i in range(n):
            sched.spawn(f"relay{i}", relay(i))

        def sink():
            value = yield Wait(futs[n])
            return value

        sched.spawn("sink", sink())
        sched.run()
        assert sched.result_of("sink") == n

    def test_event_counter_grows(self):
        sched = Scheduler()

        def body():
            for _ in range(10):
                yield Sleep(0.1)

        sched.spawn("p", body())
        sched.run()
        assert sched.events_executed >= 10


class TestEngineStress:
    @pytest.mark.slow
    def test_large_query_batch(self):
        """64 queries across 4 machines x 2 procs complete and verify."""
        g = powerlaw_cluster(800, 8, mixing=0.15, seed=5)
        engine = GraphEngine(g, EngineConfig(n_machines=4,
                                             procs_per_machine=2, seed=0))
        run = engine.run(RunRequest(n_queries=64, seed=11,
                                 params=PPRParams(epsilon=1e-5)))
        assert run.n_queries == 64
        assert len(run.latencies) == 64
        assert run.makespan > 0
        # every process did work
        assert len(run.per_proc_clocks) == 8
        assert all(c > 0 for c in run.per_proc_clocks.values())
