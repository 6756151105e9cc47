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

import math
from functools import partial
from typing import Any

import numpy as np

from repro.errors import RpcError
from repro.obs import Obs
from repro.rpc.retry import RetryPolicy
from repro.rpc.rref import RRef
from repro.rpc.serialization import payload_sizes, request_payload_sizes
from repro.rpc.worker import RemoteCall, RpcServer, WorkerRegistry
from repro.simt.faults import FaultPlan
from repro.simt.futures import MergedSimFuture, SimFuture
from repro.simt.network import NetworkModel
from repro.simt.process import SimProcess
from repro.simt.scheduler import Scheduler


class RpcContext(WorkerRegistry):
    """Registry + dispatcher for a simulated RPC group.

    A :class:`~repro.simt.faults.FaultPlan` makes attempts of a remote
    call droppable or lost to crashed servers; a
    :class:`~repro.rpc.retry.RetryPolicy` arms a per-attempt timeout timer
    on the scheduler and retransmits with deterministic backoff until the
    call succeeds or the budget is exhausted.  Both are conditions inside
    the one dispatch machine of :meth:`rref_call`, not a second path: with
    neither (or with an empty plan) a call schedules one delivery event.
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
        server = RpcServer(info, process)
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
        """Dispatch a method call on an RRef; returns a virtual-time future.

        A remote call is one machine, ``_attempt`` → ``_deliver`` →
        ``_on_timeout``: each attempt either delivers (the request survives
        the network, the server is up and the reply beats the deadline) or
        is written off by the attempt's timeout timer, which retransmits
        after a deterministic backoff or — once the budget is spent —
        resolves the future with a typed error.  Without a fault plan
        nothing is rolled, and without a retry policy there is no deadline
        and no timer: a healthy call is exactly one ``_deliver`` event.
        Retransmissions happen on the RPC layer's background timeline: the
        caller paid its issue overhead once and is blocked in ``Wait``
        until the future resolves.
        """
        caller, server, call = self._begin_call(
            caller_name, rref, method, args, kwargs, request_payload_sizes)
        if call is None:
            # Shared-memory path: invoke directly on the caller's timeline.
            caller.charge_seconds(self.network.local_call_overhead,
                                  "local_call")
            fn = server.resolve_method(rref.key, method)
            with caller.measured("local_exec"):
                result = fn(*args, **kwargs)
            return SimFuture.resolved(result, ready_time=caller.clock,
                                      tag=f"local:{method}")

        # Remote path: async issue, modeled transfer, FIFO service, reply.
        issued_at = caller.clock
        caller.charge_seconds(self.network.send_overhead(), "rpc_issue")
        fut = SimFuture(tag=f"rpc:{call.owner_name}.{method}")
        # The client span's end is the future's virtual ready time; the
        # round-trip also feeds the latency histogram regardless of tracing.
        if call.span is not None:
            fut.span_id = call.span["span_id"]
            fut.add_done_callback(lambda f: self._close_client_span(
                call, issued_at, f.ready_time, f.exception))
        metrics = self.obs.metrics
        fut.add_done_callback(
            lambda f: metrics.observe("rpc.latency", f.ready_time - issued_at)
        )
        self._attempt(call, fut, 1, caller.clock)
        return fut

    def _attempt(self, call: RemoteCall, fut: SimFuture, n: int,
                 send_time: float) -> None:
        """Send attempt ``n`` of ``call`` at virtual ``send_time``."""
        if fut.done:
            return
        if n > 1:
            self._fault("retry")
        plan, policy = self.fault_plan, self.retry_policy
        deadline = math.inf if policy is None else send_time + policy.timeout
        if plan is not None and plan.roll_drop(call.caller_name, call.index,
                                               n):
            self._fault("drop")
            call.cause = "drop"
        else:
            arrival = send_time + self.network.transfer_time(*call.request)
            self.scheduler.call_at(
                arrival, partial(self._deliver, call, fut, arrival, deadline))
        if policy is not None:
            self.scheduler.call_at(
                deadline, partial(self._on_timeout, call, fut, n, deadline))

    def _deliver(self, call: RemoteCall, fut: SimFuture, arrival: float,
                 deadline: float) -> None:
        """The request reaches its server: serve it and send the reply."""
        if fut.done:
            return  # an earlier attempt already resolved the call
        plan = self.fault_plan
        if plan is not None and plan.is_crashed(call.owner_name, arrival):
            call.cause = "crash"
            self._fault("crash")
            return  # message lost on a dead server; the timer handles it
        network = self.network
        try:
            result, start, end = call.server.serve(
                arrival, call.key, call.method, call.args, call.kwargs)
        # repro: allow=REP006 fault travels back via the future
        except BaseException as exc:
            fut.set_exception(exc, arrival + network.transfer_time(64, 0))
            return
        resp_bytes, resp_tensors = payload_sizes(result)
        self._served(call, result, resp_bytes, start, end)
        ready = end + network.transfer_time(resp_bytes, resp_tensors)
        if ready <= deadline:
            fut.set_result(result, ready)
        else:
            # Reply lands after the caller gave up on this attempt; it is
            # discarded (classic at-least-once semantics).
            call.cause = "late"

    def _on_timeout(self, call: RemoteCall, fut: SimFuture, n: int,
                    deadline: float) -> None:
        """Attempt ``n``'s deadline: retransmit after backoff, or give up."""
        if fut.done:
            return
        self._fault("timeout")
        policy = self.retry_policy
        if n >= policy.max_attempts:
            fut.set_exception(self._give_up(call, n), deadline)
            return
        plan = self.fault_plan
        next_send = deadline + policy.backoff_delay(
            n, seed=0 if plan is None else plan.seed,
            caller=call.caller_name, call_index=call.index)
        self.scheduler.call_at(
            next_send, partial(self._attempt, call, fut, n + 1, next_send))

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
