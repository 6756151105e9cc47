"""The RPC context: worker registry, dispatch, and collectives.

:class:`RpcContext` is the simulated counterpart of a ``torch.distributed.rpc``
process group.  It routes :class:`~repro.rpc.rref.RRef` method calls either
through the zero-copy local path (same simulated machine — direct invocation
charged only the binding-layer overhead, mirroring the paper's shared-memory
``VertexProp`` pass-through) or through the network cost model + FIFO server
queue (remote machine).

It also provides an all-reduce collective used by the GNN case study's
DDP-style gradient synchronization.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import RpcError, RpcTimeoutError, WorkerCrashedError
from repro.obs import Obs
from repro.rpc.retry import RetryPolicy
from repro.rpc.rref import RRef
from repro.rpc.serialization import payload_sizes, request_payload_sizes
from repro.rpc.worker import RpcServer, WorkerRegistry
from repro.simt.faults import FaultPlan
from repro.simt.futures import MergedSimFuture, SimFuture
from repro.simt.network import NetworkModel
from repro.simt.process import SimProcess
from repro.simt.scheduler import Scheduler


class RpcContext(WorkerRegistry):
    """Registry + dispatcher for a simulated RPC group.

    With a :class:`~repro.simt.faults.FaultPlan` and/or
    :class:`~repro.rpc.retry.RetryPolicy` attached, remote dispatch runs
    through the fault-tolerant path: attempts can be dropped, delayed, or
    lost to crashed servers, per-call timeout timers fire on the scheduler,
    and retransmissions with deterministic backoff keep the call alive until
    it succeeds or the budget is exhausted.  Without either, dispatch takes
    the original zero-overhead path.
    """

    def __init__(self, scheduler: Scheduler, network: NetworkModel, *,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 obs: Obs | None = None) -> None:
        super().__init__(fault_plan=fault_plan, retry_policy=retry_policy,
                         obs=obs)
        self.scheduler = scheduler
        self.network = network
        self._collectives: dict[str, "_AllReduceRound"] = {}

    # -- registration -----------------------------------------------------
    def register_server(self, name: str, machine_id: int) -> RpcServer:
        """Create a storage-server worker backed by a passive process."""
        info = self._register(name, machine_id)
        process = self.scheduler.add_passive(name)
        server = RpcServer(info, process, fault_plan=self.fault_plan)
        self._processes[name] = process
        self._servers[name] = server
        return server

    def _new_process(self, name: str) -> SimProcess:
        return self.scheduler.add_passive(name)

    # -- futures ------------------------------------------------------------
    def resolved_future(self, value: Any, tag: str | None = None) -> SimFuture:
        """A future already resolved with ``value`` (no wire, no waiting)."""
        return SimFuture.resolved(value, 0.0, tag=tag)

    def merged_future(self, parts: list[SimFuture], finalize,
                      tag: str | None = None) -> MergedSimFuture:
        """One future over ``parts``; ``finalize`` runs at consumption."""
        return MergedSimFuture(parts, finalize, tag=tag)

    # -- dispatch -----------------------------------------------------------
    def rref_call(self, caller_name: str, rref: RRef, method: str,
                  args: tuple, kwargs: dict) -> SimFuture:
        """Dispatch a method call on an RRef; returns a virtual-time future."""
        caller = self.process_of(caller_name)
        caller_machine = self.worker_info(caller_name).machine_id
        owner_machine = self.worker_info(rref.owner_name).machine_id
        server = self.server_of(rref.owner_name)
        metrics = self.obs.metrics
        metrics.inc("rpc.calls")

        if caller_machine == owner_machine:
            # Shared-memory path: invoke directly on the caller's timeline.
            metrics.inc("rpc.calls_local")
            caller.charge_seconds(self.network.local_call_overhead, "local_call")
            fn = server.resolve_method(rref.key, method)
            with caller.measured("local_exec"):
                result = fn(*args, **kwargs)
            return SimFuture.resolved(result, ready_time=caller.clock,
                                      tag=f"local:{method}")

        # Remote path: async issue, modeled transfer, FIFO service, reply.
        req_bytes, req_tensors = request_payload_sizes(args, kwargs)
        metrics.inc("rpc.calls_remote")
        metrics.inc("rpc.request_bytes", req_bytes)
        issued_at = caller.clock
        caller.charge_seconds(self.network.send_overhead(), "rpc_issue")
        fut = SimFuture(tag=f"rpc:{rref.owner_name}.{method}")

        # Client span: reserved now so the server span can link to it, and
        # recorded when the future resolves (its virtual ready time is the
        # span's end).  The virtual round-trip also feeds the latency
        # histogram regardless of tracing.
        call = self._reserve_client_span(caller_name, rref.owner_name, method,
                                         req_bytes, req_tensors)
        if call is not None:
            fut.span_id = call["span_id"]
            fut.add_done_callback(lambda f: self._close_client_span(
                call, issued_at, f.ready_time, f.exception))
        fut.add_done_callback(
            lambda f: metrics.observe("rpc.latency", f.ready_time - issued_at)
        )

        if self.retry_policy is None and self.fault_plan is None:
            # Healthy fast path: identical to the pre-fault-layer engine.
            arrival = caller.clock + self.network.transfer_time(req_bytes,
                                                               req_tensors)

            def deliver() -> None:
                try:
                    result, start, end = server.serve(arrival, rref.key,
                                                      method, args, kwargs)
                # repro: allow=REP006 fault travels back via the future
                except BaseException as exc:
                    fut.set_exception(
                        exc, arrival + self.network.transfer_time(64, 0)
                    )
                    return
                self._record_server_span(call, start, end)
                resp_bytes, resp_tensors = payload_sizes(result)
                metrics.inc("rpc.response_bytes", resp_bytes)
                server.pool.stage(result, metrics)
                ready = end + self.network.transfer_time(resp_bytes,
                                                         resp_tensors)
                fut.set_result(result, ready)

            self.scheduler.call_at(arrival, deliver)
            return fut

        self._dispatch_with_retries(
            fut, caller_name, caller, rref, server, method, args, kwargs,
            caller_machine, owner_machine, req_bytes, req_tensors, call,
        )
        return fut

    def _dispatch_with_retries(self, fut: SimFuture, caller_name: str,
                               caller: SimProcess, rref: RRef,
                               server: RpcServer, method: str, args: tuple,
                               kwargs: dict, caller_machine: int,
                               owner_machine: int, req_bytes: int,
                               req_tensors: int, call) -> None:
        """Run one logical remote call through the timeout/retry machinery.

        Each attempt either delivers (request survives the network, the
        server is up, and the reply beats the deadline) or is written off by
        the attempt's timeout timer, which retransmits after a deterministic
        backoff or — once the budget is spent — resolves ``fut`` with a
        typed error.  Retransmissions happen on the RPC layer's background
        timeline: the caller paid its issue overhead once and is blocked in
        ``Wait`` until ``fut`` resolves.
        """
        plan = self.fault_plan if self.fault_plan is not None else FaultPlan()
        policy = (self.retry_policy if self.retry_policy is not None
                  else RetryPolicy())
        metrics = self.obs.metrics
        call_index = self._call_indices.get(caller_name, 0)
        self._call_indices[caller_name] = call_index + 1
        owner_name = rref.owner_name
        #: why the latest attempt failed ("drop" | "crash" | "late")
        last_failure = {"cause": "late"}

        def attempt(n: int, send_time: float) -> None:
            if fut.done:
                return
            if n > 1:
                self._fault("retry")
            deadline = send_time + policy.timeout
            if plan.roll_drop(caller_name, call_index, n):
                self._fault("drop")
                last_failure["cause"] = "drop"
                self.scheduler.call_at(deadline, lambda: on_timeout(n, deadline))
                return
            arrival = send_time + self.network.transfer_time_under(
                plan, req_bytes, req_tensors,
                src_machine=caller_machine, dst_machine=owner_machine,
                caller=caller_name, call_index=call_index, attempt=n,
            )

            def deliver() -> None:
                if fut.done:
                    return  # an earlier attempt already resolved the call
                if plan.is_crashed(owner_name, self.scheduler.now):
                    last_failure["cause"] = "crash"
                    self._fault("crash")
                    return  # message lost on a dead server; timer handles it
                try:
                    result, start, end = server.serve(arrival, rref.key,
                                                      method, args, kwargs)
                # repro: allow=REP006 fault travels back via the future
                except BaseException as exc:
                    fut.set_exception(
                        exc, arrival + self.network.transfer_time(64, 0)
                    )
                    return
                self._record_server_span(call, start, end)
                resp_bytes, resp_tensors = payload_sizes(result)
                metrics.inc("rpc.response_bytes", resp_bytes)
                server.pool.stage(result, metrics)
                ready = end + self.network.transfer_time_under(
                    plan, resp_bytes, resp_tensors,
                    src_machine=owner_machine, dst_machine=caller_machine,
                    caller=caller_name, call_index=call_index, attempt=n,
                )
                if ready <= deadline:
                    fut.set_result(result, ready)
                else:
                    # Reply lands after the caller gave up on this attempt;
                    # it is discarded (classic at-least-once semantics).
                    last_failure["cause"] = "late"

            self.scheduler.call_at(max(arrival, send_time), deliver)
            self.scheduler.call_at(deadline, lambda: on_timeout(n, deadline))

        def on_timeout(n: int, deadline: float) -> None:
            if fut.done:
                return
            self._fault("timeout")
            if n >= policy.max_attempts:
                cause = last_failure["cause"]
                detail = (f"{caller_name} -> {owner_name}.{method} failed "
                          f"after {n} attempt(s) "
                          f"(timeout={policy.timeout:g}s, last cause: {cause})")
                exc: RpcError
                if cause == "crash":
                    exc = WorkerCrashedError(detail)
                else:
                    exc = RpcTimeoutError(detail)
                self._fault("giveup")
                fut.set_exception(exc, deadline)
                return
            delay = policy.backoff_delay(n, seed=plan.seed,
                                         caller=caller_name,
                                         call_index=call_index)
            next_send = deadline + delay
            self.scheduler.call_at(next_send, lambda: attempt(n + 1, next_send))

        attempt(1, caller.clock)

    # -- collectives ----------------------------------------------------------
    def allreduce_mean(self, group: str, caller_name: str, n_members: int,
                       array: np.ndarray) -> SimFuture:
        """Average ``array`` across ``n_members`` callers (DDP-style).

        Every member calls once per round with the same ``group`` tag; all
        futures resolve when the last member contributes, at a time that
        accounts for gathering every contribution and broadcasting the
        result (parameter-server model).
        """
        if n_members <= 0:
            raise ValueError(f"n_members must be > 0, got {n_members}")
        self.obs.metrics.inc("rpc.allreduce.calls")
        caller = self.process_of(caller_name)
        round_ = self._collectives.get(group)
        if round_ is None:
            round_ = _AllReduceRound(n_members)
            self._collectives[group] = round_
        if round_.n_members != n_members:
            raise RpcError(
                f"allreduce group {group!r} size mismatch: "
                f"{round_.n_members} != {n_members}"
            )
        caller.charge_seconds(self.network.send_overhead(), "allreduce_issue")
        nbytes, n_tensors = payload_sizes(array)
        arrive = caller.clock + self.network.transfer_time(nbytes, n_tensors)
        fut = SimFuture(tag=f"allreduce:{group}:{caller_name}")
        round_.add(array, arrive, fut)
        if round_.complete:
            del self._collectives[group]
            mean = round_.mean()
            ready = round_.latest_arrival + self.network.transfer_time(
                nbytes, n_tensors
            )
            for member_fut in round_.futures:
                member_fut.set_result(mean, ready)
        return fut


class _AllReduceRound:
    """Accumulator for one in-flight all-reduce round."""

    def __init__(self, n_members: int) -> None:
        self.n_members = n_members
        self.total: np.ndarray | None = None
        self.latest_arrival = 0.0
        self.futures: list[SimFuture] = []

    def add(self, array: np.ndarray, arrival: float, fut: SimFuture) -> None:
        if len(self.futures) >= self.n_members:
            raise RpcError("allreduce round over-subscribed")
        arr = np.asarray(array, dtype=np.float64)
        if self.total is None:
            self.total = arr.copy()
        else:
            if arr.shape != self.total.shape:
                raise RpcError(
                    f"allreduce shape mismatch: {arr.shape} != {self.total.shape}"
                )
            self.total += arr
        self.latest_arrival = max(self.latest_arrival, arrival)
        self.futures.append(fut)

    @property
    def complete(self) -> bool:
        return len(self.futures) == self.n_members

    def mean(self) -> np.ndarray:
        assert self.total is not None
        return self.total / self.n_members
