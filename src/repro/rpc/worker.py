"""Workers and RPC servers.

A :class:`WorkerInfo` names an endpoint in the RPC group — in the paper's
setup, machine ``k`` registers one *Graph Storage server* worker plus ``P``
*computing process* workers.

An :class:`RpcServer` models the storage-server process: it owns named
objects (the Graph Storage of its shard) and serves requests FIFO on a
single virtual thread (``next_free`` bookkeeping) — a process of its own,
the paper's fix for the GIL contention of serving RPC target functions
inside a computing process (Section 3.2.3).

:class:`ObjectHost` and :class:`WorkerRegistry` are the runtime-independent
halves of a server and of an RPC group — object hosting, the worker
registry, remote-object creation, retry-policy resolution, and the
accounting of a remote call: its prologue (``_begin_call``: resolve,
count, size, reserve the client span), its epilogue (``_served``:
response bytes, buffer pool, linked server span) and its give-up
(``_give_up``: the typed error) — written once; the virtual-time
:class:`~repro.rpc.api.RpcContext` and the OS-thread
:class:`~repro.rpc.thread_runtime.ThreadRuntime` each add one attempt
loop between the three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RpcError, RpcTimeoutError, WorkerCrashedError
from repro.obs import Obs
from repro.rpc.handlers import check_dispatch
from repro.rpc.retry import RetryPolicy
from repro.rpc.rref import RRef
from repro.rpc.serialization import BufferPool
from repro.simt.process import SimProcess
from repro.utils.timer import Stopwatch


@dataclass(frozen=True)
class WorkerInfo:
    """Identity of an RPC endpoint.

    ``machine_id`` groups workers by simulated machine: calls between
    workers of the same machine use the zero-copy shared-memory path, calls
    across machines pay network costs.
    """

    name: str
    machine_id: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("worker name must be non-empty")
        if self.machine_id < 0:
            raise ValueError(f"machine_id must be >= 0, got {self.machine_id}")


class ObjectHost:
    """Named objects hosted on one server worker (targets of RRef calls)."""

    def __init__(self, info: WorkerInfo) -> None:
        self.info = info
        self.objects: dict[str, Any] = {}
        self.requests_served = 0
        #: size-class buffer pool for response serialization (cost model)
        self.pool = BufferPool()

    def put_object(self, key: str, obj: Any) -> None:
        """Host an object under ``key`` (target of RRef calls)."""
        if key in self.objects:
            raise RpcError(f"object key {key!r} already exists on {self.info.name!r}")
        self.objects[key] = obj
        attach = getattr(obj, "attach_pool", None)
        if attach is not None:
            attach(self.pool)  # memory accounting sees pooled buffers

    def get_object(self, key: str) -> Any:
        try:
            return self.objects[key]
        except KeyError:
            raise RpcError(
                f"worker {self.info.name!r} hosts no object {key!r}; "
                f"known: {sorted(self.objects)}"
            ) from None

    def resolve_method(self, key: str, method: str) -> Callable:
        obj = self.get_object(key)
        refused = check_dispatch(obj, method)
        if refused is not None:
            raise RpcError(f"on {self.info.name!r}: {refused}")
        fn = getattr(obj, method, None)
        if fn is None or not callable(fn):
            raise RpcError(
                f"object {key!r} on {self.info.name!r} has no method {method!r}"
            )
        return fn


class RpcServer(ObjectHost):
    """A FIFO single-threaded request server bound to one worker."""

    def __init__(self, info: WorkerInfo, process: SimProcess) -> None:
        super().__init__(info)
        self.process = process
        self.next_free = 0.0

    def serve(self, arrival: float, key: str, method: str,
              args: tuple, kwargs: dict) -> tuple[Any, float, float]:
        """Execute a request that arrived at virtual time ``arrival``.

        Returns ``(result, service_start, service_end)``.  The handler runs
        *now* in real time (handlers are read-only over shard data, so
        execution order does not affect results) and its measured duration
        becomes the virtual service time.
        """
        fn = self.resolve_method(key, method)
        start = max(arrival, self.next_free)
        with Stopwatch() as sw:
            result = fn(*args, **kwargs)
        handler_dt = sw.elapsed
        # Server clock accumulates busy time; the FIFO service horizon is
        # tracked by next_free (which also covers idle gaps between arrivals).
        self.process.charge_seconds(handler_dt, "serve")
        end = start + handler_dt
        self.next_free = end
        self.requests_served += 1
        return result, start, end


class RemoteCall:
    """One cross-machine call, from its prologue to its resolution."""

    __slots__ = ("caller_name", "owner_name", "server", "key", "method",
                 "args", "kwargs", "request", "span", "index", "cause")

    def __init__(self, caller_name: str, rref: RRef, server: ObjectHost,
                 method: str, args: tuple, kwargs: dict,
                 request: tuple[int, int]) -> None:
        self.caller_name = caller_name
        self.owner_name = rref.owner_name
        self.server = server
        self.key = rref.key
        self.method = method
        self.args = args
        self.kwargs = kwargs
        #: request payload ``(nbytes, n_tensors)``
        self.request = request
        #: the reserved client span (``SpanTracer.record`` kwargs) when traced
        self.span: dict | None = None
        #: per-caller logical call index — the time-independent key fault
        #: decisions are rolled on; 0 on a run that can roll none
        self.index = 0
        #: why the latest attempt failed: ``drop`` | ``crash`` | ``late``
        self.cause = "late"


class TransportCounters:
    """Read-only transport/fault counters over ``self.obs.metrics``.

    Both runtimes count every dispatched call and every injected fault in
    the run's metrics registry; these typed views are what results and
    tests read, so there is one set of books.
    """

    @property
    def remote_requests(self) -> int:
        """Cross-machine requests dispatched."""
        return self.obs.metrics.count("rpc.calls_remote")

    @property
    def local_calls(self) -> int:
        """Same-machine (shared-memory path) calls."""
        return self.obs.metrics.count("rpc.calls_local")

    @property
    def retries(self) -> int:
        """Re-sent attempts (attempt > 1)."""
        return self.obs.metrics.count("rpc.retries")

    @property
    def timeouts(self) -> int:
        """Attempts that hit their deadline."""
        return self.obs.metrics.count("rpc.timeouts")

    @property
    def dropped_messages(self) -> int:
        """Requests lost on the injected network."""
        return self.obs.metrics.count("rpc.dropped_messages")


#: fault kind -> the transport counter that moves with it (``crash`` has
#: none: a request lost on a dead server is written off by its timeout)
_FAULT_COUNTERS = {"retry": "rpc.retries", "drop": "rpc.dropped_messages",
                   "timeout": "rpc.timeouts", "giveup": "rpc.giveups"}


class WorkerRegistry(TransportCounters):
    """Worker registry and remote-object lifecycle of one RPC group.

    Subclasses supply the runtime: how a server is built
    (``register_server``), what a bare process handle is
    (``_new_process``), dispatch (``rref_call``) and the future types
    (``resolved_future`` / ``merged_future``).
    """

    def __init__(self, *, fault_plan=None,
                 retry_policy: RetryPolicy | None = None,
                 obs: Obs | None = None) -> None:
        #: observability bundle — the registry is always live (cheap), the
        #: span tracer only when the deployment asked for tracing
        self.obs = obs if obs is not None else Obs()
        self._workers: dict[str, WorkerInfo] = {}
        self._processes: dict[str, Any] = {}
        self._servers: dict[str, ObjectHost] = {}
        #: injected faults; a plan without a policy gets default retries so
        #: dropped messages resolve as timeouts instead of deadlocks — the
        #: one place this default-iff-faults rule lives
        self.fault_plan = fault_plan
        if fault_plan is not None and not fault_plan.is_empty() \
                and retry_policy is None:
            retry_policy = RetryPolicy()
        self.retry_policy = retry_policy
        #: next ``RemoteCall.index`` of each caller
        self._call_indices: dict[str, int] = {}

    # -- registration -----------------------------------------------------
    def register_worker(self, name: str, machine_id: int, process=None):
        """Register a computing-process worker; returns its process handle.

        Without ``process`` a bare handle is created, so a driver can be
        built around it before its body is spawned.
        """
        self._register(name, machine_id)
        if process is None:
            process = self._new_process(name)
        process.tracer = self.obs.tracer
        self._processes[name] = process
        return process

    def _register(self, name: str, machine_id: int) -> WorkerInfo:
        if name in self._workers:
            raise RpcError(f"worker {name!r} already registered")
        info = WorkerInfo(name, machine_id)
        self._workers[name] = info
        return info

    # -- lookups ------------------------------------------------------------
    def worker_info(self, name: str) -> WorkerInfo:
        try:
            return self._workers[name]
        except KeyError:
            raise RpcError(f"unknown worker {name!r}") from None

    def process_of(self, name: str):
        try:
            return self._processes[name]
        except KeyError:
            raise RpcError(f"worker {name!r} has no registered process") from None

    def server_of(self, name: str):
        try:
            return self._servers[name]
        except KeyError:
            raise RpcError(f"worker {name!r} is not a server") from None

    # -- the remote call, minus its attempt loop ---------------------------
    def _begin_call(self, caller_name: str, rref: RRef, method: str,
                    args: tuple, kwargs: dict, size_request):
        """Prologue of ``rref_call``: ``(caller process, server, call)``.

        Resolves both ends, counts the call and — across machines — sizes
        the request with the runtime's ``size_request``, reserves the
        client span and, when faults can be rolled, takes the caller's
        next call index.  ``call`` is None for a same-machine call, which
        never touches the network.
        """
        caller = self.process_of(caller_name)
        caller_machine = self.worker_info(caller_name).machine_id
        owner_name = rref.owner_name
        owner_machine = self.worker_info(owner_name).machine_id
        server = self.server_of(owner_name)
        metrics = self.obs.metrics
        metrics.inc("rpc.calls")
        if caller_machine == owner_machine:
            metrics.inc("rpc.calls_local")
            return caller, server, None
        request = size_request(args, kwargs)
        metrics.inc("rpc.calls_remote")
        metrics.inc("rpc.request_bytes", request[0])
        call = RemoteCall(caller_name, rref, server, method, args, kwargs,
                          request)
        tracer = self.obs.tracer
        if tracer is not None:
            # Reserved now so the server span can link to it; recorded by
            # ``_close_client_span`` when the call resolves.  The attrs are
            # the per-call facts no counter keeps — what
            # :func:`repro.obs.analysis.rpc_summary` aggregates.
            call.span = dict(
                name=f"rpc:{method}", process=caller_name, kind="client",
                span_id=tracer.next_id(),
                parent_id=tracer.current(caller_name),
                attrs={"owner": owner_name, "method": method,
                       "request_nbytes": request[0],
                       "request_tensors": request[1]})
        if self.fault_plan is not None or self.retry_policy is not None:
            call.index = self._next_call_index(caller_name)
        return caller, server, call

    def _next_call_index(self, caller_name: str) -> int:
        index = self._call_indices.get(caller_name, 0)
        self._call_indices[caller_name] = index + 1
        return index

    def _served(self, call: RemoteCall, result: Any, response_nbytes: int,
                start: float, end: float) -> None:
        """Epilogue of one served attempt: bytes, buffer pool, server span."""
        metrics = self.obs.metrics
        metrics.inc("rpc.response_bytes", response_nbytes)
        call.server.pool.stage(result, metrics)
        if call.span is not None:
            self.obs.tracer.record(
                f"serve:{call.method}", call.owner_name, start, end,
                kind="server", link=call.span["span_id"],
                attrs={"caller": call.caller_name, "method": call.method})

    def _close_client_span(self, call: RemoteCall, start: float,
                           end: float, exception: BaseException | None) -> None:
        """Record the reserved client span once the call has resolved."""
        if exception is not None:
            # the fault event fault_of_span / cli doctor attribute time to
            call.span["attrs"]["error"] = type(exception).__name__
        self.obs.tracer.record(start=start, end=end, **call.span)

    def _give_up(self, call: RemoteCall, attempts: int) -> RpcError:
        """The typed error of a call whose retry budget is spent."""
        self._fault("giveup")
        kind = WorkerCrashedError if call.cause == "crash" \
            else RpcTimeoutError
        return kind(
            f"{call.caller_name} -> {call.owner_name}.{call.method} failed "
            f"after {attempts} attempt(s) "
            f"(timeout={self.retry_policy.timeout:g}s, "
            f"last cause: {call.cause})")

    def _fault(self, kind: str) -> None:
        """Count one fault-layer event on a remote call.

        ``kind``: ``drop`` (request lost in the network), ``crash`` (it
        reached a dead server), ``timeout`` (an attempt's deadline fired;
        a late reply is folded in), ``retry`` (a retransmission) or
        ``giveup`` (budget exhausted; the caller sees a typed error).
        """
        paired = _FAULT_COUNTERS.get(kind)
        if paired is not None:
            self.obs.metrics.inc(paired)
        self.obs.metrics.inc(f"rpc.faults.{kind}")

    # -- remote object lifecycle ------------------------------------------
    def create_remote(self, owner_name: str, key: str,
                      factory: Callable[..., Any], *args, **kwargs) -> RRef:
        """Instantiate ``factory(*args, **kwargs)`` on ``owner_name``.

        Setup happens outside measured time: graph-shard construction is a
        preprocessing step whose cost the paper amortizes across queries.
        """
        server = self.server_of(owner_name)
        server.put_object(key, factory(*args, **kwargs))
        return RRef(self, owner_name, key)
