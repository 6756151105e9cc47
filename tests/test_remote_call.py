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
from repro.simt import FaultPlan, NetworkModel, Scheduler, Wait, WaitAll
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
    if sched is not None:
        ctx.process_of("w").start(body)
        sched.run()
    else:
        ctx.spawn("w", body)
        try:
            ctx.join()
        finally:
            ctx.shutdown()


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
            with caller.measured("local_exec"):
                result = fn(*args, **kwargs)
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
            result, _start, end = server.serve(arrival, rref.key, method,
                                               args, kwargs)
            resp_bytes, resp_tensors = payload_sizes(result)
            metrics.inc("rpc.response_bytes", resp_bytes)
            server.pool.stage(result, metrics)
            fut.set_result(result, end + self.network.transfer_time(
                resp_bytes, resp_tensors))

        self.scheduler.call_at(arrival, deliver)
        return fut


class _Rows:
    """Stub storage: one array per call, sized by the request."""

    def rows(self, call_id, ids):
        return np.arange(len(ids), dtype=np.float64) + call_id


class _FixedStopwatch:
    """Every handler takes 100 virtual us, so whole timelines compare."""

    elapsed = 1e-4

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def _run_ring(ctx_cls, monkeypatch, n_machines=3, n_rounds=4):
    """One server + one worker per machine; every round each worker
    fetches from every *other* machine's server and waits for all."""
    import repro.rpc.worker as worker_mod

    monkeypatch.setattr(worker_mod, "Stopwatch", _FixedStopwatch)
    service_end = {}
    real_serve = worker_mod.RpcServer.serve

    def logging_serve(self, arrival, key, method, args, kwargs):
        result, start, end = real_serve(self, arrival, key, method, args,
                                        kwargs)
        service_end[args[0]] = end
        return result, start, end

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
