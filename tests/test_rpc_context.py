"""Integration tests for the simulated RPC layer (repro.rpc.api)."""

import numpy as np
import pytest

from repro.errors import RpcError
from repro.rpc import RpcContext
from repro.rpc.rref import check_rrefs
from repro.simt import (
    COMPUTE,
    NetworkModel,
    Scheduler,
    SimFuture,
    Wait,
    WaitAll,
)


class Counter:
    """Tiny remote object used as a test target."""

    def __init__(self, start=0):
        self.value = start

    def get(self):
        return self.value

    def add(self, k):
        self.value += k
        return self.value

    def echo_array(self, arr):
        return np.asarray(arr) * 2

    def fail(self):
        raise RuntimeError("handler exploded")


def make_ctx(network=None):
    sched = Scheduler()
    ctx = RpcContext(sched, network or NetworkModel())
    return sched, ctx


class TestRegistration:
    def test_duplicate_worker_rejected(self):
        sched, ctx = make_ctx()
        ctx.register_server("s0", machine_id=0)
        with pytest.raises(RpcError, match="already registered"):
            ctx.register_server("s0", machine_id=1)

    def test_unknown_worker(self):
        _, ctx = make_ctx()
        with pytest.raises(RpcError, match="unknown worker"):
            ctx.worker_info("nope")

    def test_non_server_lookup(self):
        sched, ctx = make_ctx()

        def body():
            yield Wait(SimFuture.resolved(None, ready_time=sched.now))

        proc = sched.spawn("w0", body())
        ctx.register_worker("w0", 0, proc)
        with pytest.raises(RpcError, match="not a server"):
            ctx.server_of("w0")
        sched.run()

    def test_create_remote_and_duplicate_key(self):
        _, ctx = make_ctx()
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter, 5)
        assert rref.local_value().value == 5
        with pytest.raises(RpcError, match="already exists"):
            ctx.create_remote("s0", "counter", Counter)


class TestLocalPath:
    def test_same_machine_call_is_synchronous(self):
        sched, ctx = make_ctx()
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter, 10)
        results = []

        def body():
            fut = rref.rpc_async("w0", "add", 7)
            assert fut.done  # local calls resolve immediately
            value = yield Wait(fut)
            results.append(value)

        proc = sched.spawn("w0", body())
        ctx.register_worker("w0", 0, proc)
        sched.run()
        assert results == [17]
        assert ctx.local_calls == 1
        assert ctx.remote_requests == 0

    def test_local_call_charges_only_binding_overhead(self):
        net = NetworkModel(local_call_overhead=1e-3, rpc_overhead=10.0)
        sched, ctx = make_ctx(net)
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter)

        def body():
            yield Wait(rref.rpc_async("w0", "get"))

        proc = sched.spawn("w0", body())
        ctx.register_worker("w0", 0, proc)
        sched.run()
        # far below the 10s rpc_overhead: the local path skipped the network
        assert proc.clock < 1.0


class TestRemotePath:
    def test_remote_call_returns_value(self):
        sched, ctx = make_ctx()
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter, 100)
        results = []

        def body():
            value = yield Wait(rref.rpc_async("w1", "add", 1))
            results.append(value)

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        assert results == [101]
        assert ctx.remote_requests == 1

    def test_remote_call_charges_round_trip(self):
        net = NetworkModel(rpc_overhead=1.0, tensor_wrap_cost=0.0,
                           bandwidth=1e18, latency=0.5,
                           local_call_overhead=0.0)
        sched, ctx = make_ctx(net)
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter)

        def body():
            yield Wait(rref.rpc_async("w1", "get"))

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        # issue overhead (1.0) + request transfer (1.5) + response (1.5)
        # = at least 4.0 modulo tiny payload terms; handler time ~ 0
        assert proc.clock >= 4.0 - 1e-6
        assert proc.clock < 4.1

    def test_remote_array_payload(self):
        sched, ctx = make_ctx()
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter)
        out = []

        def body():
            arr = np.arange(5)
            doubled = yield Wait(rref.rpc_async("w1", "echo_array", arr))
            out.append(doubled)

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        np.testing.assert_array_equal(out[0], [0, 2, 4, 6, 8])

    def test_handler_exception_propagates(self):
        sched, ctx = make_ctx()
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter)
        caught = []

        def body():
            try:
                yield Wait(rref.rpc_async("w1", "fail"))
            except RuntimeError as exc:
                caught.append(str(exc))

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        assert caught == ["handler exploded"]

    def test_missing_method(self):
        sched, ctx = make_ctx()
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "counter", Counter)
        caught = []

        def body():
            try:
                yield Wait(rref.rpc_async("w1", "nonexistent"))
            except RpcError as exc:
                caught.append(str(exc))

        proc = sched.spawn("w1", body())
        ctx.register_worker("w1", 1, proc)
        sched.run()
        assert len(caught) == 1


class TestServerContention:
    def test_fifo_service_serializes_requests(self):
        """Two simultaneous remote calls queue on the single server thread."""

        class Slow:
            def work(self):
                # a 2 MB reply: its modeled service is ~0.6 ms
                return np.zeros(2_000_000, dtype=np.uint8)

        net = NetworkModel(rpc_overhead=0.0, tensor_wrap_cost=0.0,
                           bandwidth=1e18, latency=0.0,
                           local_call_overhead=0.0)
        sched, ctx = make_ctx(net)
        ctx.register_server("s0", machine_id=0)
        rref = ctx.create_remote("s0", "slow", Slow)
        clocks = {}

        def mk(name):
            def body():
                yield Wait(rref.rpc_async(name, "work"))
                clocks[name] = sched.processes[name].clock
            return body

        for i, name in enumerate(["w1", "w2"]):
            proc = sched.spawn(name, mk(name)())
            ctx.register_worker(name, machine_id=1 + i, process=proc)
        sched.run()
        server = ctx.server_of("s0")
        assert server.requests_served == 2
        # One of the two waited for the other's service slot (the
        # "instant" wire still moves 2 MB in 2 ps).
        service = COMPUTE.serve(2_000_000, 1)
        assert sorted(clocks.values()) == pytest.approx(
            [service, 2 * service], rel=1e-6)


class TestAllReduce:
    def test_mean_across_members(self):
        sched, ctx = make_ctx(NetworkModel.instant())
        results = {}

        def mk(name, value):
            def body():
                fut = ctx.allreduce_mean("round0", name, 3,
                                         np.full(4, float(value)))
                mean = yield Wait(fut)
                results[name] = mean
            return body

        for i, value in enumerate([1.0, 2.0, 3.0]):
            name = f"w{i}"
            proc = sched.spawn(name, mk(name, value)())
            ctx.register_worker(name, machine_id=i, process=proc)
        sched.run()
        for arr in results.values():
            np.testing.assert_allclose(arr, 2.0)

    def test_group_size_mismatch_rejected(self):
        sched, ctx = make_ctx(NetworkModel.instant())
        fired = []

        def body():
            ctx.allreduce_mean("g", "w0", 2, np.zeros(2))
            with pytest.raises(RpcError, match="size mismatch"):
                ctx.allreduce_mean("g", "w0", 3, np.zeros(2))
            fired.append(True)
            yield Wait(SimFuture.resolved(None, ready_time=sched.now))

        proc = sched.spawn("w0", body())
        ctx.register_worker("w0", 0, proc)
        sched.run()
        assert fired == [True]

    def test_shape_mismatch_rejected(self):
        sched, ctx = make_ctx(NetworkModel.instant())
        errors = []

        def body0():
            ctx.allreduce_mean("g", "w0", 2, np.zeros(2))
            yield Wait(SimFuture.resolved(None, ready_time=sched.now))

        def body1():
            try:
                ctx.allreduce_mean("g", "w1", 2, np.zeros(3))
            except RpcError as exc:
                errors.append(str(exc))
            yield Wait(SimFuture.resolved(None, ready_time=sched.now))

        p0 = sched.spawn("w0", body0())
        ctx.register_worker("w0", 0, p0)
        p1 = sched.spawn("w1", body1())
        ctx.register_worker("w1", 1, p1)
        try:
            sched.run()
        except Exception:
            pass
        assert any("shape mismatch" in e for e in errors)


class TestCheckRrefs:
    def test_valid(self):
        _, ctx = make_ctx()
        ctx.register_server("s0", 0)
        rrefs = [ctx.create_remote("s0", f"o{i}", Counter) for i in range(3)]
        check_rrefs(rrefs, 3)

    def test_wrong_count(self):
        with pytest.raises(RpcError, match="expected 2"):
            check_rrefs([], 2)

    def test_wrong_type(self):
        with pytest.raises(RpcError, match="not an RRef"):
            check_rrefs(["nope"], 1)
