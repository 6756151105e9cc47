"""Failure injection and synchronization-primitive tests.

A distributed engine must fail *loudly and cleanly*: handler exceptions
travel to the calling coroutine, invalid requests are rejected at the
storage boundary, and one process's failure doesn't corrupt others'
results.
"""

import numpy as np
import pytest

from repro import EngineConfig, GraphEngine, PPRParams, RunRequest
from repro.engine.cluster import SimCluster
from repro.errors import (
    ShardError,
    SimulationError,
    RpcTimeoutError,
    WorkerCrashedError,
)
from repro.graph import powerlaw_cluster
from repro.partition import MetisLitePartitioner
from repro.ppr import DegradationMode, forward_push_parallel
from repro.ppr.distributed import OptLevel, distributed_sppr_query
from repro.rpc import RetryPolicy, RpcContext
from repro.rpc.thread_runtime import ThreadRuntime
from repro.simt import (
    CrashWindow,
    FaultPlan,
    NetworkModel,
    Scheduler,
    Sleep,
    Wait,
)
from repro.simt.sync import SimBarrier
from repro.storage import DistGraphStorage, build_shards


def make_cluster(graph, n_machines=2, seed=0):
    sharded = build_shards(
        graph, MetisLitePartitioner(seed=seed).partition(graph, n_machines)
    )
    cluster = SimCluster(sharded, EngineConfig(n_machines=n_machines))
    return sharded, cluster


class TestFailureInjection:
    def test_invalid_remote_ids_raise_in_caller(self):
        graph = powerlaw_cluster(200, 5, seed=0)
        sharded, cluster = make_cluster(graph)
        name = "compute:0.0"
        g = DistGraphStorage(cluster.rrefs, 0, name)
        caught = []

        def driver():
            fut = g.get_neighbor_infos(1, np.array([10**6]))
            try:
                yield Wait(fut)
            except ShardError as exc:
                caught.append(str(exc))

        cluster.spawn_compute(0, 0, driver())
        cluster.run()
        assert caught and "out of range" in caught[0]

    def test_one_failing_driver_does_not_corrupt_others(self):
        graph = powerlaw_cluster(400, 6, mixing=0.2, seed=1)
        sharded, cluster = make_cluster(graph, n_machines=2)
        params = PPRParams(epsilon=1e-5)

        good_name = "compute:0.0"
        bad_name = "compute:1.0"
        g_good = DistGraphStorage(cluster.rrefs, 0, good_name)
        g_bad = DistGraphStorage(cluster.rrefs, 1, bad_name)
        source = int(sharded.shards[0].core_global[0])
        results = {}

        def good_driver():
            proc = cluster.worker(0, 0)
            state = yield from distributed_sppr_query(
                g_good, proc, int(sharded.nodes_of(source)), params,
                opt=OptLevel.OVERLAP
            )
            results["good"] = state
            return "ok"

        def bad_driver():
            yield Sleep(0.0)
            raise RuntimeError("injected failure")

        cluster.spawn_compute(0, 0, good_driver())
        cluster.spawn_compute(1, 0, bad_driver())
        # the bad driver's failure is surfaced by run(), not swallowed
        with pytest.raises(RuntimeError, match="injected"):
            cluster.run()
        with pytest.raises(RuntimeError, match="injected"):
            cluster.result_of(bad_name)
        # and the good driver's result is still correct
        ref, _, _ = forward_push_parallel(graph, source, params)
        dense = results["good"].dense_result(sharded, graph.n_nodes)
        bound = 2 * params.epsilon * graph.weighted_degrees.sum()
        assert np.abs(dense - ref).sum() <= bound

    def test_handler_exception_has_clean_virtual_time(self):
        """A failed RPC resolves its future at a finite virtual time."""

        class Bomb:
            def boom(self):
                raise ValueError("kaboom")

        from repro.rpc import RpcContext
        from repro.simt import NetworkModel
        sched = Scheduler()
        ctx = RpcContext(sched, NetworkModel())
        ctx.register_server("s0", 0)
        rref = ctx.create_remote("s0", "bomb", Bomb)
        seen = []

        def body():
            try:
                yield Wait(rref.rpc_async("w1", "boom"))
            except ValueError:
                seen.append(sched.now)

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        assert seen and np.isfinite(seen[0])

    def test_driver_retry_after_failure(self):
        """Drivers can catch an RPC failure and retry successfully."""

        class Flaky:
            def __init__(self):
                self.calls = 0

            def fetch(self):
                self.calls += 1
                if self.calls == 1:
                    raise ConnectionError("transient")
                return "data"

        from repro.rpc import RpcContext
        from repro.simt import NetworkModel
        sched = Scheduler()
        ctx = RpcContext(sched, NetworkModel())
        ctx.register_server("s0", 0)
        rref = ctx.create_remote("s0", "flaky", Flaky)
        outcome = []

        def body():
            for _attempt in range(3):
                try:
                    value = yield Wait(rref.rpc_async("w1", "fetch"))
                    outcome.append(value)
                    return
                except ConnectionError:
                    continue

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        assert outcome == ["data"]


class TestSimBarrier:
    def test_all_parties_resume_at_latest(self):
        sched = Scheduler()
        barrier = SimBarrier(3)
        resumed = {}

        def mk(name, delay):
            def body():
                yield Sleep(delay)
                proc = sched.processes[name]
                gen = yield Wait(barrier.arrive(proc.clock))
                resumed[name] = (proc.clock, gen)
            return body

        for name, delay in (("a", 1.0), ("b", 5.0), ("c", 3.0)):
            sched.spawn(name, mk(name, delay)())
        sched.run()
        for name, (clock, gen) in resumed.items():
            assert clock == pytest.approx(5.0), name
            assert gen == 0

    def test_reusable_generations(self):
        sched = Scheduler()
        barrier = SimBarrier(2)
        gens = []

        def body(name, delays):
            def run():
                for d in delays:
                    yield Sleep(d)
                    proc = sched.processes[name]
                    gen = yield Wait(barrier.arrive(proc.clock))
                    gens.append(gen)
            return run

        sched.spawn("a", body("a", [1.0, 1.0])())
        sched.spawn("b", body("b", [2.0, 2.0])())
        sched.run()
        assert sorted(gens) == [0, 0, 1, 1]
        assert barrier.generation == 2

    def test_invalid_parties(self):
        with pytest.raises(ValueError):
            SimBarrier(0)

    def test_extra_arrivals_roll_into_next_generation(self):
        """Completion resets the barrier, so arrivals beyond n_parties
        start the next generation instead of over-subscribing."""
        barrier = SimBarrier(1)
        fut = barrier.arrive(0.0)
        assert fut.done  # single party resolves immediately
        barrier2 = SimBarrier(2)
        f1 = barrier2.arrive(0.0)
        f2 = barrier2.arrive(1.0)
        assert f1.done and f2.done
        f3 = barrier2.arrive(2.0)
        assert not f3.done
        assert barrier2.generation == 1
        assert barrier2.n_waiting == 1

    def test_n_waiting(self):
        barrier = SimBarrier(3)
        assert barrier.n_waiting == 0
        barrier.arrive(0.0)
        assert barrier.n_waiting == 1


class Echo:
    """Trivial remote object for RPC fault tests."""

    def ping(self, x):
        return 2 * x


def run_echo_on_scheduler(plan, policy, n_calls):
    """N sequential remote echo calls on the virtual-time runtime."""
    sched = Scheduler()
    ctx = RpcContext(sched, NetworkModel(), fault_plan=plan,
                     retry_policy=policy)
    ctx.register_server("s0", 0)
    rref = ctx.create_remote("s0", "echo", Echo)
    values = []

    def body():
        for i in range(n_calls):
            values.append((yield Wait(rref.rpc_async("w1", "ping", i))))

    proc = sched.spawn("w1", body())
    ctx.register_worker("w1", 1, proc)
    sched.run()
    return ctx, values


def run_echo_on_threads(plan, policy, n_calls):
    """The same echo workload on the real-thread runtime."""
    rt = ThreadRuntime(fault_plan=plan, retry_policy=policy)
    rt.register_server("s0", 0)
    rref = rt.create_remote("s0", "echo", Echo)
    rt.register_worker("w1", 1)
    values = []

    def body():
        for i in range(n_calls):
            values.append((yield Wait(rref.rpc_async("w1", "ping", i))))

    rt.spawn("w1", body())
    rt.join()
    rt.shutdown()
    return rt, values


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError):
            CrashWindow(server="s0", crash_at=2.0, recover_at=1.0)

    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert not FaultPlan(drop_prob=0.1).is_empty()
        assert not FaultPlan(
            crashes=(CrashWindow(server="s0", crash_at=0.0),)
        ).is_empty()

    def test_rolls_are_pure_functions_of_key(self):
        plan = FaultPlan(seed=11, drop_prob=0.5)
        rolls = [plan.roll_drop("w1", i, 1) for i in range(64)]
        assert rolls == [plan.roll_drop("w1", i, 1) for i in range(64)]
        assert any(rolls) and not all(rolls)
        # different seeds decorrelate
        other = FaultPlan(seed=12, drop_prob=0.5)
        assert rolls != [other.roll_drop("w1", i, 1) for i in range(64)]

    def test_crash_window_coverage(self):
        win = CrashWindow(server="s0", crash_at=1.0, recover_at=2.0)
        plan = FaultPlan(crashes=(win,))
        assert not plan.is_crashed("s0", 0.5)
        assert plan.is_crashed("s0", 1.0)
        assert plan.is_crashed("s0", 1.5)
        assert not plan.is_crashed("s0", 2.0)
        assert not plan.is_crashed("s1", 1.5)


class TestRpcFaultInjection:
    PLAN = FaultPlan(seed=5, drop_prob=0.3)
    POLICY = RetryPolicy(max_attempts=6, timeout=0.05)

    def test_retry_then_succeed_on_scheduler(self):
        ctx, values = run_echo_on_scheduler(self.PLAN, self.POLICY, 24)
        assert values == [2 * i for i in range(24)]
        assert ctx.retries > 0
        assert ctx.timeouts > 0
        assert ctx.dropped_messages == ctx.timeouts

    def test_deterministic_replay_across_runtimes(self):
        """The same fault plan replays identically in virtual time and on
        real threads: drop decisions are keyed on (seed, caller, call
        index, attempt), never on time or arrival order."""
        a, values_a = run_echo_on_scheduler(self.PLAN, self.POLICY, 24)
        b, values_b = run_echo_on_scheduler(self.PLAN, self.POLICY, 24)
        t, values_t = run_echo_on_threads(self.PLAN, self.POLICY, 24)
        counters = lambda c: (c.retries, c.timeouts, c.dropped_messages)
        assert counters(a) == counters(b) == counters(t)
        assert values_a == values_b == values_t

    def test_retry_exhausted_raises_timeout(self):
        plan = FaultPlan(seed=0, drop_prob=1.0)
        policy = RetryPolicy(max_attempts=3, timeout=0.01)
        sched = Scheduler()
        ctx = RpcContext(sched, NetworkModel(), fault_plan=plan,
                         retry_policy=policy)
        ctx.register_server("s0", 0)
        rref = ctx.create_remote("s0", "echo", Echo)
        caught = []

        def body():
            try:
                yield Wait(rref.rpc_async("w1", "ping", 1))
            except RpcTimeoutError as exc:
                caught.append(exc)

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        assert len(caught) == 1 and "3 attempt" in str(caught[0])
        assert ctx.dropped_messages == 3
        assert ctx.timeouts == 3
        assert ctx.retries == 2

    def test_retry_exhausted_raises_timeout_on_threads(self):
        plan = FaultPlan(seed=0, drop_prob=1.0)
        policy = RetryPolicy(max_attempts=3, timeout=0.01)
        with pytest.raises(RpcTimeoutError, match="3 attempt"):
            run_echo_on_threads(plan, policy, 1)

    def test_crash_then_recover_within_retry_horizon(self):
        plan = FaultPlan(seed=3, crashes=(
            CrashWindow(server="s0", crash_at=0.0, recover_at=0.02),
        ))
        policy = RetryPolicy(max_attempts=10, timeout=0.005)
        ctx, values = run_echo_on_scheduler(plan, policy, 4)
        assert values == [0, 2, 4, 6]
        assert ctx.retries > 0
        assert ctx.timeouts > 0
        assert ctx.dropped_messages == 0  # crashes lose replies, not sends

    def test_permanent_crash_raises_worker_crashed(self):
        plan = FaultPlan(seed=3, crashes=(
            CrashWindow(server="s0", crash_at=0.0),
        ))
        policy = RetryPolicy(max_attempts=3, timeout=0.005)
        sched = Scheduler()
        ctx = RpcContext(sched, NetworkModel(), fault_plan=plan,
                         retry_policy=policy)
        ctx.register_server("s0", 0)
        rref = ctx.create_remote("s0", "echo", Echo)
        caught = []

        def body():
            try:
                yield Wait(rref.rpc_async("w1", "ping", 1))
            except WorkerCrashedError as exc:
                caught.append(exc)

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        assert len(caught) == 1 and "crash" in str(caught[0])

    def test_local_calls_bypass_fault_injection(self):
        """Same-machine calls never traverse the lossy network."""
        plan = FaultPlan(seed=0, drop_prob=1.0)
        sched = Scheduler()
        ctx = RpcContext(sched, NetworkModel(), fault_plan=plan)
        ctx.register_server("s0", 0)
        rref = ctx.create_remote("s0", "echo", Echo)
        values = []

        def body():
            values.append((yield Wait(rref.rpc_async("w1", "ping", 21))))

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 0, proc)  # machine 0 == server machine
        sched.run()
        assert values == [42]
        assert ctx.dropped_messages == 0


class TestEngineFaultTolerance:
    @pytest.fixture(scope="class")
    def engine(self):
        graph = powerlaw_cluster(600, 6, mixing=0.2, seed=2)
        return GraphEngine(graph, EngineConfig(n_machines=2))

    def test_empty_plan_keeps_fast_path(self, engine):
        run = engine.run(RunRequest(n_queries=4, fault_plan=FaultPlan()))
        assert run.retries == run.timeouts == run.dropped_messages == 0
        assert run.degraded_queries == 0

    def test_engine_counters_replay_byte_identical(self, engine):
        req = RunRequest(n_queries=6,
                         fault_plan=FaultPlan(seed=2, drop_prob=0.4),
                         retry_policy=RetryPolicy(max_attempts=8))
        a = engine.run(req)
        b = engine.run(req)
        assert a.retries > 0 and a.timeouts > 0 and a.dropped_messages > 0
        assert (a.retries, a.timeouts, a.dropped_messages,
                a.degraded_queries, a.abandoned_mass) == \
               (b.retries, b.timeouts, b.dropped_messages,
                b.degraded_queries, b.abandoned_mass)

    def test_fail_fast_propagates_crash(self, engine):
        plan = FaultPlan(seed=1, crashes=(
            CrashWindow(server="server:1", crash_at=0.0),
        ))
        with pytest.raises(WorkerCrashedError):
            engine.run(RunRequest(
                n_queries=6, fault_plan=plan,
                retry_policy=RetryPolicy(max_attempts=2, timeout=0.01),
            ))

    def test_skip_remote_bounds_accuracy_loss(self, engine):
        params = PPRParams(epsilon=1e-5)
        plan = FaultPlan(seed=1, crashes=(
            CrashWindow(server="server:1", crash_at=0.0),
        ))
        run = engine.run(RunRequest(
            n_queries=6, params=params, fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.01),
            degradation=DegradationMode.SKIP_REMOTE, keep_states=True,
        ))
        assert run.degraded_queries > 0
        assert run.abandoned_mass > 0
        graph = engine.graph
        push_bound = 2 * params.epsilon * graph.weighted_degrees.sum()
        degraded = 0
        for gid, state in run.states.items():
            # mass conservation: estimate + live residual + written-off
            n = len(state.map)
            total = (state.ppr[:n].sum() + state.residual[:n].sum()
                     + state.abandoned_mass)
            assert total == pytest.approx(1.0, abs=1e-9)
            # abandoned residual bounds the extra L1 error
            ref, _, _ = forward_push_parallel(graph, gid, params)
            dense = state.dense_result(engine.sharded, graph.n_nodes)
            err = np.abs(dense - ref).sum()
            assert err <= push_bound + state.abandoned_mass + 1e-9
            degraded += state.skipped_fetches > 0
        assert degraded == run.degraded_queries

    def test_crash_recover_mid_batch_succeeds(self, engine):
        plan = FaultPlan(seed=2, crashes=(
            CrashWindow(server="server:1", crash_at=0.0, recover_at=0.02),
        ))
        run = engine.run(RunRequest(
            n_queries=6, fault_plan=plan,
            retry_policy=RetryPolicy(max_attempts=10, timeout=0.005),
        ))
        assert run.retries > 0
        assert run.degraded_queries == 0
        assert run.n_queries == 6


class TestStreamIngestAtomicity:
    """Chaos on the two-phase update path: batches apply atomically.

    Whatever the network does — dropped stages, dropped commits, a
    crashed storage server — an update batch either lands on *every*
    shard and the driver mirror, or on none of them.
    """

    def _engine_and_payloads(self, seed=0):
        from repro.stream import (DynamicGraph, TemporalEdgeStream,
                                  build_shard_payloads)

        graph = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        engine = GraphEngine(graph, EngineConfig(n_machines=2, seed=0))
        dyn = DynamicGraph.from_csr(graph)
        delta = dyn.apply(
            TemporalEdgeStream(graph, seed=seed, batch_size=12).next_batch())
        payloads = build_shard_payloads(engine.sharded, dyn, delta.changed)
        return engine, payloads

    @staticmethod
    def _shard_images(engine):
        return [s.rows.materialize() for s in engine.sharded.shards]

    @staticmethod
    def _assert_unchanged(engine, images):
        for shard, image in zip(engine.sharded.shards, images):
            for now, before in zip(shard.rows.to_arrays(),
                                   image.to_arrays()):
                np.testing.assert_array_equal(now, before)

    def test_total_drop_aborts_cleanly_sim(self):
        from repro.stream import ingest_on_cluster

        engine, payloads = self._engine_and_payloads()
        images = self._shard_images(engine)
        outcome, metrics, _ = ingest_on_cluster(
            engine, payloads, 1,
            fault_plan=FaultPlan(seed=3, drop_prob=1.0),
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.01))
        assert outcome["status"] == "aborted"
        self._assert_unchanged(engine, images)
        assert metrics.counters().get("stream.batches_committed", 0) == 0

    def test_total_drop_aborts_cleanly_threads(self):
        from repro.stream import ingest_on_cluster

        engine, payloads = self._engine_and_payloads()
        images = self._shard_images(engine)
        outcome, _, _ = ingest_on_cluster(
            engine, payloads, 1, runtime="threads",
            fault_plan=FaultPlan(seed=3, drop_prob=1.0),
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.01))
        assert outcome["status"] == "aborted"
        self._assert_unchanged(engine, images)

    def test_crashed_server_aborts_cleanly_sim(self):
        from repro.stream import ingest_on_cluster

        engine, payloads = self._engine_and_payloads()
        images = self._shard_images(engine)
        outcome, _, _ = ingest_on_cluster(
            engine, payloads, 1,
            fault_plan=FaultPlan(seed=4, crashes=(
                CrashWindow(server="server:1", crash_at=0.0),
            )),
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.01))
        assert outcome["status"] == "aborted"
        self._assert_unchanged(engine, images)

    def test_moderate_drops_apply_after_retries(self):
        from repro.stream import ingest_on_cluster

        for runtime in ("sim", "threads"):
            engine, payloads = self._engine_and_payloads()
            outcome, metrics, retries = ingest_on_cluster(
                engine, payloads, 1, runtime=runtime,
                fault_plan=FaultPlan(seed=2, drop_prob=0.4),
                retry_policy=RetryPolicy(max_attempts=8, timeout=5.0))
            assert outcome["status"] == "applied", runtime
            assert retries > 0
            assert metrics.counters()["stream.batches_committed"] == 1

    def test_session_reverts_mirror_on_failure(self):
        """A failed batch leaves the driver-side mirror bitwise intact,
        and a later healthy batch still goes through."""
        from repro.errors import StreamIngestError
        from repro.stream import (StreamConfig, StreamingSession,
                                  TemporalEdgeStream)

        graph = powerlaw_cluster(150, 5, mixing=0.25, seed=6)
        engine = GraphEngine(graph, EngineConfig(n_machines=2, seed=0))
        session = StreamingSession(engine, StreamConfig(runtime="sim"))
        stream = TemporalEdgeStream(graph, seed=1, batch_size=12)

        session.config.fault_plan = FaultPlan(seed=3, drop_prob=1.0)
        session.config.retry_policy = RetryPolicy(max_attempts=2,
                                                  timeout=0.01)
        with pytest.raises(StreamIngestError):
            session.ingest(stream.next_batch())
        assert session.report.n_failed == 1
        snap = session.dyn.snapshot()
        np.testing.assert_array_equal(snap.indices, graph.indices)
        np.testing.assert_array_equal(snap.weights, graph.weights)

        session.config.fault_plan = None
        session.config.retry_policy = None
        report = session.ingest(stream.next_batch())
        assert report.applied
        assert session.report.n_applied == 1
