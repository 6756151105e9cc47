"""Focused tests for RPC server semantics and WorkerInfo validation."""

import numpy as np
import pytest

from repro.errors import RpcError
from repro.rpc import RpcContext
from repro.rpc.serialization import payload_sizes
from repro.rpc.worker import RpcServer, WorkerInfo
from repro.simt import COMPUTE, NetworkModel, Scheduler, Wait, WaitAll


class TestWorkerInfo:
    def test_valid(self):
        info = WorkerInfo("server:0", 0)
        assert info.name == "server:0"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            WorkerInfo("", 0)

    def test_negative_machine_rejected(self):
        with pytest.raises(ValueError):
            WorkerInfo("x", -1)

    def test_frozen(self):
        info = WorkerInfo("x", 0)
        with pytest.raises(Exception):
            info.name = "y"


class TestRpcServerDirect:
    def make_server(self):
        sched = Scheduler()
        proc = sched.add_passive("server")
        return RpcServer(WorkerInfo("server", 0), proc)

    def test_put_get_object(self):
        server = self.make_server()
        obj = object()
        server.put_object("thing", obj)
        assert server.get_object("thing") is obj

    def test_duplicate_key(self):
        server = self.make_server()
        server.put_object("k", 1)
        with pytest.raises(RpcError, match="already exists"):
            server.put_object("k", 2)

    def test_missing_object(self):
        server = self.make_server()
        with pytest.raises(RpcError, match="hosts no object"):
            server.get_object("ghost")

    def test_resolve_non_callable(self):
        class Obj:
            attr = 42

        server = self.make_server()
        server.put_object("o", Obj())
        with pytest.raises(RpcError, match="no method"):
            server.resolve_method("o", "attr")
        with pytest.raises(RpcError, match="no method"):
            server.resolve_method("o", "nothing")

    def test_fifo_horizon_advances(self):
        class Work:
            def rows(self):
                return np.zeros(4096)

        server = self.make_server()
        server.put_object("w", Work())
        service = COMPUTE.serve(*payload_sizes(np.zeros(4096)))
        _r1, _sz, s1, e1 = server.serve(0.0, "w", "rows", (), {},
                                        payload_sizes)
        assert (s1, e1) == (0.0, service)
        # arrival before the previous service end queues behind it
        _r2, _sz, s2, e2 = server.serve(e1 / 2, "w", "rows", (), {},
                                        payload_sizes)
        assert (s2, e2) == (e1, e1 + service)
        # arrival after an idle gap starts at its arrival time
        _r3, _sz, s3, _e3 = server.serve(100.0, "w", "rows", (), {},
                                         payload_sizes)
        assert s3 == 100.0
        assert server.requests_served == 3

    def test_serve_charges_server_clock(self):
        """The charge is the modeled service of the result's payload —
        ``(nbytes, n_tensors)``, returned for the reply transfer too."""
        class Work:
            def nop(self):
                return 1

        server = self.make_server()
        server.put_object("w", Work())
        result, sizes, _start, _end = server.serve(0.0, "w", "nop", (), {},
                                                   payload_sizes)
        assert (result, sizes) == (1, (8, 0))
        assert server.process.clock == COMPUTE.serve(8, 0) > 0.0
        assert server.process.breakdown.get("serve") == server.process.clock


class TestWaitAllOverRpc:
    def test_wait_all_gathers_multiple_servers(self):
        class Echo:
            def __init__(self, tag):
                self.tag = tag

            def get(self):
                return self.tag

        sched = Scheduler()
        ctx = RpcContext(sched, NetworkModel())
        rrefs = []
        for m in range(3):
            ctx.register_server(f"s{m}", m)
            rrefs.append(ctx.create_remote(f"s{m}", "echo", Echo, m))
        out = []

        def body():
            futs = [r.rpc_async("w", "get") for r in rrefs]
            values = yield WaitAll(futs)
            out.append(values)

        proc = sched.spawn("w", body())
        ctx.register_worker("w", 5, proc)
        sched.run()
        assert out == [[0, 1, 2]]

    def test_parallel_futures_cheaper_than_serial_waits(self):
        """Issuing all requests before waiting overlaps their latencies."""

        class Echo:
            def get(self):
                return 1

        net = NetworkModel(rpc_overhead=0.0, tensor_wrap_cost=0.0,
                           bandwidth=1e18, latency=1.0,
                           local_call_overhead=0.0)

        def run(mode):
            sched = Scheduler()
            ctx = RpcContext(sched, net)
            rrefs = []
            for m in range(3):
                ctx.register_server(f"s{m}", m)
                rrefs.append(ctx.create_remote(f"s{m}", "echo", Echo))

            def body():
                if mode == "parallel":
                    futs = [r.rpc_async("w", "get") for r in rrefs]
                    yield WaitAll(futs)
                else:
                    for r in rrefs:
                        yield Wait(r.rpc_async("w", "get"))

            proc = sched.spawn("w", body())
            ctx.register_worker("w", 9, proc)
            sched.run()
            return proc.clock

        serial = run("serial")
        parallel = run("parallel")
        # 3 round trips of 2s latency each: ~6s serial vs ~2s overlapped
        assert serial == pytest.approx(6.0, abs=0.2)
        assert parallel == pytest.approx(2.0, abs=0.2)
