"""One remote call, two runtimes: where it fails, what it counts, what it
schedules.

The prologue, epilogue and give-up of ``rref_call`` live once in
:class:`~repro.rpc.worker.WorkerRegistry`; each runtime adds one attempt
loop.  These tests pin what that buys: a call to an undeclared handler is
counted and fails in the same place on both runtimes, an empty
``FaultPlan()`` is indistinguishable from no plan, and the unified
virtual-time machine replays the previous commit's hand-written healthy
fast path — kept below as ``_ParentFastPath``, the oracle, the way
``tests/test_fetch_round.py`` keeps ``_handwritten_round`` — event for
event.
"""

import numpy as np
import pytest

from repro.errors import RpcError
from repro.rpc import RpcContext, ThreadRuntime
from repro.rpc.serialization import payload_sizes, request_payload_sizes
from repro.simt import COMPUTE, FaultPlan, NetworkModel, Scheduler, Wait, \
    WaitAll
from repro.simt.futures import SimFuture

CALL_COUNTERS = ("rpc.calls", "rpc.calls_local", "rpc.calls_remote")


class Echo:
    def ping(self, x):
        return 2 * x

    not_callable = 42


def _deploy(runtime, worker_machine, **kw):
    """One server on machine 0, one worker ``w`` on ``worker_machine``."""
    if runtime == "sim":
        sched = Scheduler()
        ctx = RpcContext(sched, NetworkModel(), **kw)
    else:
        sched, ctx = None, ThreadRuntime(**kw)
    ctx.register_server("s0", 0)
    rref = ctx.create_remote("s0", "echo", Echo)
    ctx.register_worker("w", worker_machine)
    return sched, ctx, rref


def _drive(sched, ctx, body):
    """Run ``body`` as ``w``, then publish the ledger as a deployment
    does when it finishes."""
    try:
        if sched is not None:
            ctx.process_of("w").start(body)
            sched.run()
        else:
            ctx.spawn("w", body)
            try:
                ctx.join()
            finally:
                ctx.shutdown()
    finally:
        ctx.publish_metrics()


def _call_undeclared(runtime, locality, method):
    """Where the ``RpcError`` surfaced, and the call counters."""
    sched, ctx, rref = _deploy(runtime, 0 if locality == "local" else 1)
    where = []

    def body():
        try:
            fut = rref.rpc_async("w", method)
        except RpcError:
            where.append("rpc_async")
            return
        try:
            yield Wait(fut)
        except RpcError:
            where.append("wait")

    _drive(sched, ctx, body())
    counters = ctx.obs.metrics.counters()
    return where, tuple(counters.get(k, 0) for k in CALL_COUNTERS)


@pytest.mark.parametrize("method", ["no_such_method", "not_callable"])
@pytest.mark.parametrize("locality", ["local", "remote"])
@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_undeclared_handler_fails_in_one_place(runtime, locality, method):
    """A same-machine call raises out of ``rpc_async``; a remote one
    delivers its error through the future, as PyTorch RPC does — and
    either way the call was dispatched, so it is counted."""
    other = "threads" if runtime == "sim" else "sim"
    where, counted = _call_undeclared(runtime, locality, method)
    assert where == (["rpc_async"] if locality == "local" else ["wait"])
    assert counted == ((1, 1, 0) if locality == "local" else (1, 0, 1))
    assert (where, counted) == _call_undeclared(other, locality, method)


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_unsizeable_remote_payload_is_rejected_at_dispatch(runtime):
    """A cross-machine request is sized by ``payload_sizes`` before it is
    sent, so a payload the cost model cannot price (a lambda) raises
    ``TypeError`` out of ``rpc_async`` on both runtimes."""
    sched, ctx, rref = _deploy(runtime, 1)
    raised = []

    def body():
        try:
            rref.rpc_async("w", "ping", lambda x: x)
        except TypeError as exc:
            raised.append(str(exc))
        yield from ()

    _drive(sched, ctx, body())
    assert len(raised) == 1 and "cannot size" in raised[0], raised


def _three_calls(runtime, **kw):
    sched, ctx, rref = _deploy(runtime, 1, **kw)
    values = []

    def body():
        for i in range(3):
            values.append((yield Wait(rref.rpc_async("w", "ping", i))))

    _drive(sched, ctx, body())
    assert values == [0, 2, 4]
    return sched, ctx.obs.metrics.counters()


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_empty_plan_equals_no_plan(runtime):
    """``FaultPlan()`` injects nothing, so no retry policy is resolved for
    it and no timeout timer may be armed: same events, same counters."""
    sched_none, counters_none = _three_calls(runtime)
    sched_empty, counters_empty = _three_calls(runtime,
                                               fault_plan=FaultPlan())
    assert counters_empty == counters_none
    assert counters_empty.get("rpc.timeouts", 0) == 0
    if runtime == "sim":
        assert sched_empty.events_executed == sched_none.events_executed


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_same_machine_call_is_charged_the_same_on_both_runtimes(runtime):
    """The shared-memory path is the registry's: the binding-layer
    overhead, then the handler's modeled execution over its result."""
    sched, ctx, rref = _deploy(runtime, 0)

    def body():
        for i in range(3):
            yield Wait(rref.rpc_async("w", "ping", i))

    _drive(sched, ctx, body())
    want = {"local_call": 0.0, "local_exec": 0.0}
    for i in range(3):
        want["local_call"] += NetworkModel().local_call_overhead
        want["local_exec"] += COMPUTE.local_exec(*payload_sizes(2 * i))
    breakdown = ctx.process_of("w").breakdown
    assert {k: breakdown.get(k) for k in want} == want
    assert ctx.process_of("w").clock == sum(
        [NetworkModel().local_call_overhead, COMPUTE.local_exec(8, 0)] * 3)


# -- the oracle: the previous commit's healthy fast path ----------------------

class _ParentFastPath(RpcContext):
    """``RpcContext.rref_call`` as it was before the dispatch bodies were
    merged: the healthy branch, hand-written, with its own accounting."""

    def rref_call(self, caller_name, rref, method, args, kwargs):
        caller = self.process_of(caller_name)
        caller_machine = self.worker_info(caller_name).machine_id
        owner_machine = self.worker_info(rref.owner_name).machine_id
        server = self.server_of(rref.owner_name)
        metrics = self.obs.metrics
        metrics.inc("rpc.calls")
        if caller_machine == owner_machine:
            metrics.inc("rpc.calls_local")
            caller.charge_seconds(self.network.local_call_overhead,
                                  "local_call")
            fn = server.resolve_method(rref.key, method)
            result = fn(*args, **kwargs)
            caller.compute("local_exec",
                           COMPUTE.local_exec(*payload_sizes(result)))
            return SimFuture.resolved(result, ready_time=caller.clock,
                                      tag=f"local:{method}")
        req_bytes, req_tensors = request_payload_sizes(args, kwargs)
        metrics.inc("rpc.calls_remote")
        metrics.inc("rpc.request_bytes", req_bytes)
        issued_at = caller.clock
        caller.charge_seconds(self.network.send_overhead(), "rpc_issue")
        fut = SimFuture(tag=f"rpc:{rref.owner_name}.{method}")
        fut.add_done_callback(
            lambda f: metrics.observe("rpc.latency", f.ready_time - issued_at))
        arrival = caller.clock + self.network.transfer_time(req_bytes,
                                                            req_tensors)

        def deliver():
            result, _sizes, _start, end = server.serve(
                arrival, rref.key, method, args, kwargs, payload_sizes)
            resp_bytes, resp_tensors = payload_sizes(result)
            metrics.inc("rpc.response_bytes", resp_bytes)
            requests, hits, reused = server.pool.stage(result)
            if requests:
                metrics.inc("rpc.pool.requests", requests)
                metrics.inc("rpc.pool.hits", hits)
                metrics.inc("rpc.pool.misses", requests - hits)
                metrics.inc("rpc.pool.bytes_reused", reused)
            fut.set_result(result, end + self.network.transfer_time(
                resp_bytes, resp_tensors))

        self.scheduler.call_at(arrival, deliver)
        return fut


class _Rows:
    """Stub storage: one array per call, sized by the request."""

    def rows(self, call_id, ids):
        return np.arange(len(ids), dtype=np.float64) + call_id


def _run_ring(ctx_cls, monkeypatch, n_machines=3, n_rounds=4):
    """One server + one worker per machine; every round each worker
    fetches from every *other* machine's server and waits for all."""
    import repro.rpc.worker as worker_mod

    service_end = {}
    real_serve = worker_mod.RpcServer.serve

    def logging_serve(self, arrival, key, method, args, kwargs, size):
        out = real_serve(self, arrival, key, method, args, kwargs, size)
        service_end[args[0]] = out[-1]
        return out

    monkeypatch.setattr(worker_mod.RpcServer, "serve", logging_serve)

    sched = Scheduler()
    ctx = ctx_cls(sched, NetworkModel())
    rrefs = []
    for m in range(n_machines):
        ctx.register_server(f"s{m}", m)
        rrefs.append(ctx.create_remote(f"s{m}", "rows", _Rows))
    ready = {}

    def body(m):
        for rnd in range(n_rounds):
            futs = {}
            for other in range(n_machines):
                if other != m:
                    call_id = (m * n_rounds + rnd) * n_machines + other
                    futs[call_id] = rrefs[other].rpc_async(
                        f"w{m}", "rows", call_id,
                        np.arange(5 + call_id, dtype=np.int64))
            yield WaitAll(list(futs.values()))
            for call_id, fut in futs.items():
                ready[call_id] = fut.ready_time

    for m in range(n_machines):
        ctx.register_worker(f"w{m}", m, sched.spawn(f"w{m}", body(m)))
    makespan = sched.run()
    ctx.publish_metrics()  # a no-op for the oracle, which books inline
    counters = {k: v for k, v in ctx.obs.metrics.counters().items()
                if k.startswith("rpc.")}
    tail = {call_id: ready[call_id] - service_end[call_id]
            for call_id in sorted(ready)}
    return sched.events_executed, counters, tail, makespan


def test_unified_machine_replays_the_parent_fast_path(monkeypatch):
    """Same events (so: no timeout timer on a healthy deployment), same
    ``rpc.*`` counters, same reply transfer after every service end."""
    want = _run_ring(_ParentFastPath, monkeypatch)
    got = _run_ring(RpcContext, monkeypatch)
    events, counters, tail, _makespan = got
    assert got == want
    n_calls = 3 * 4 * 2
    assert counters["rpc.calls_remote"] == n_calls == len(tail)
    assert "rpc.timeouts" not in counters
    # what a run schedules: one start per worker, one resume per round,
    # and exactly one ``deliver`` per remote call
    assert events == 3 + 3 * 4 + n_calls


# -- one book per call ----------------------------------------------------------

@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_a_call_writes_one_book_and_rpc_counters_are_folded_once(
        runtime, monkeypatch):
    """During a run, calls and faults touch only the per-caller ledger:
    the registry sees no ``rpc.`` ``inc`` per call (each published name
    is written once, when the deployment finishes) and, per remote call
    on the scheduler, one ``rpc.latency`` observe.  The published
    counters are the ledger's totals, and the typed views agree."""
    from repro import DegradationMode, EngineConfig, GraphEngine, RunRequest
    from repro.graph import powerlaw_cluster
    from repro.obs.metrics import MetricsRegistry
    from repro.serving.session import Session, SessionConfig
    import repro.serving.session as session_mod

    engine = GraphEngine(powerlaw_cluster(300, 5, mixing=0.3, seed=5),
                         EngineConfig(n_machines=2))
    incs, observes, clusters = [], [], []
    real_inc, real_observe = MetricsRegistry.inc, MetricsRegistry.observe
    real_deploy = session_mod.deploy

    def inc(self, name, n=1):
        incs.append(name)
        real_inc(self, name, n)

    def observe(self, name, v):
        observes.append(name)
        real_observe(self, name, v)

    def deploy(*args, **kwargs):
        clusters.append(real_deploy(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(MetricsRegistry, "inc", inc)
    monkeypatch.setattr(MetricsRegistry, "observe", observe)
    monkeypatch.setattr(session_mod, "deploy", deploy)
    run = Session(engine, SessionConfig(runtime=runtime)).run(RunRequest(
        n_queries=6, seed=3, fault_plan=FaultPlan(seed=3, drop_prob=0.3),
        degradation=DegradationMode.SKIP_REMOTE))

    published = {k: v for k, v in run.metrics.items()
                 if k.startswith("rpc.") and not k.startswith("rpc.latency")}
    rpc_incs = [name for name in incs if name.startswith("rpc.")]
    assert sorted(rpc_incs) == sorted(published)  # once per name, not call
    assert run.remote_requests > 0 and run.local_calls > 0
    assert run.retries > 0 and run.dropped_messages > 0
    want_latency = run.remote_requests if runtime == "sim" else 0
    assert observes.count("rpc.latency") == want_latency
    assert set(observes) <= {"rpc.latency"}

    from repro.rpc.worker import rpc_counters

    (cluster,) = clusters
    assert published == rpc_counters(cluster.ledger_total)
    assert (published["rpc.calls_remote"], published["rpc.calls_local"],
            published["rpc.retries"], published["rpc.timeouts"],
            published["rpc.dropped_messages"]) == \
        (cluster.remote_requests, cluster.local_calls, cluster.retries,
         cluster.timeouts, cluster.dropped_messages) == \
        (run.remote_requests, run.local_calls, run.retries, run.timeouts,
         run.dropped_messages)
    assert published["rpc.pool.requests"] > 0


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_a_counter_exists_iff_its_event_happened(runtime):
    """Publishing keeps the inline counters' key set: a call that never
    got served leaves no ``rpc.response_bytes`` and no ``rpc.pool.*``; a
    zero-byte request still leaves ``rpc.request_bytes`` (= 0); each
    fault kind appears with its paired transport counter, ``crash`` has
    none."""
    from repro.rpc import RetryPolicy

    class Quiet:
        def nothing(self):
            return None

    sched, ctx, rref = _deploy(runtime, 1, fault_plan=FaultPlan(
        seed=1, drop_prob=1.0), retry_policy=RetryPolicy(max_attempts=2))
    quiet = ctx.create_remote("s0", "quiet", Quiet)
    failed = []

    def body():
        try:
            yield Wait(quiet.rpc_async("w", "nothing"))
        except RpcError as exc:
            failed.append(type(exc).__name__)

    _drive(sched, ctx, body())
    assert failed == ["RpcTimeoutError"]
    assert ctx.obs.metrics.counters() == {
        "rpc.calls": 1, "rpc.calls_remote": 1, "rpc.request_bytes": 0,
        "rpc.faults.drop": 2, "rpc.dropped_messages": 2,
        "rpc.faults.timeout": 2, "rpc.timeouts": 2,
        "rpc.faults.retry": 1, "rpc.retries": 1,
        "rpc.faults.giveup": 1, "rpc.giveups": 1}

    sched, ctx, rref = _deploy(runtime, 1)
    quiet = ctx.create_remote("s0", "quiet", Quiet)

    def served():
        assert (yield Wait(quiet.rpc_async("w", "nothing"))) is None

    _drive(sched, ctx, served())
    assert ctx.obs.metrics.counters() == {
        "rpc.calls": 1, "rpc.calls_remote": 1, "rpc.request_bytes": 0,
        "rpc.response_bytes": 0}
