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
halves of a server and of an RPC group — object hosting and serving, the
worker registry, remote-object creation, retry-policy resolution, the
same-machine call (``_local_call``) and the accounting of a remote call:
its prologue (``_begin_call``: resolve, size, count, reserve the client
span), its epilogue (``_served``: response bytes, buffer pool, linked
server span), its fault events (``_fault``) and its give-up
(``_give_up``: the typed error) — written once; the virtual-time
:class:`~repro.rpc.api.RpcContext` and the OS-thread
:class:`~repro.rpc.thread_runtime.ThreadRuntime` each add one attempt
loop between them.  Each of those counts once, in the registry's
per-caller integer ledger (one row per writing thread, so a booking
takes no lock): :meth:`WorkerRegistry.traffic_seconds` prices it,
:class:`TransportCounters` reads it, and
:meth:`WorkerRegistry.publish_metrics` folds it into the ``rpc.*``
counters when the deployment has finished.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import RpcError, RpcTimeoutError, WorkerCrashedError
from repro.obs import Obs
from repro.rpc.handlers import check_dispatch
from repro.rpc.retry import RetryPolicy
from repro.rpc.rref import RRef
from repro.rpc.serialization import BufferPool, payload_sizes
from repro.simt.compute import COMPUTE
from repro.simt.network import NetworkModel
from repro.simt.process import SimProcess


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
        #: ``(key, method)`` pairs that passed :meth:`resolve_method`'s
        #: checks — an object is hosted once under its key, so they hold
        self._dispatchable: set[tuple[str, str]] = set()
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
        if (key, method) in self._dispatchable:
            return getattr(self.objects[key], method)
        obj = self.get_object(key)
        refused = check_dispatch(obj, method)
        if refused is not None:
            raise RpcError(f"on {self.info.name!r}: {refused}")
        fn = getattr(obj, method, None)
        if fn is None or not callable(fn):
            raise RpcError(
                f"object {key!r} on {self.info.name!r} has no method {method!r}"
            )
        self._dispatchable.add((key, method))
        return fn

    def execute(self, key: str, method: str, args: tuple, kwargs: dict,
                size) -> tuple[Any, tuple[int, int], float]:
        """Serve one remote request: ``(result, size(result), service
        seconds)``, modeled on the reply's ``(nbytes, n_tensors)``."""
        result = self.resolve_method(key, method)(*args, **kwargs)
        sizes = size(result)
        self.requests_served += 1
        return result, sizes, COMPUTE.serve(*sizes)


class RpcServer(ObjectHost):
    """A FIFO single-threaded request server bound to one worker."""

    def __init__(self, info: WorkerInfo, process: SimProcess) -> None:
        super().__init__(info)
        self.process = process
        self.next_free = 0.0

    def serve(self, arrival: float, key: str, method: str, args: tuple,
              kwargs: dict, size) -> tuple[Any, tuple[int, int], float, float]:
        """Execute a request that arrived at virtual time ``arrival``.

        Returns ``(result, (nbytes, n_tensors), service_start,
        service_end)``.  The handler runs *now* (handlers are read-only over
        shard data, so execution order does not affect results).
        """
        result, sizes, dt = self.execute(key, method, args, kwargs, size)
        start = max(arrival, self.next_free)
        # Server clock accumulates busy time; the FIFO service horizon is
        # tracked by next_free (which also covers idle gaps between arrivals).
        self.process.charge_seconds(dt, "serve")
        end = start + dt
        self.next_free = end
        return result, sizes, start, end


class RemoteCall:
    """One cross-machine call, from its prologue to its resolution."""

    __slots__ = ("caller_name", "owner_name", "server", "row", "key",
                 "method", "args", "kwargs", "request", "span", "index",
                 "cause", "issued_at")

    def __init__(self, caller_name: str, rref: RRef, server: ObjectHost,
                 row: dict[str, int], method: str, args: tuple, kwargs: dict,
                 request: tuple[int, int]) -> None:
        self.caller_name = caller_name
        self.owner_name = rref.owner_name
        self.server = server
        #: the ledger row its served attempts and fault events are booked
        #: in: the caller's row written by the owner's side
        self.row = row
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
        #: the caller's clock when it issued the call (before the issue
        #: overhead): the start of the round trip and of the client span
        self.issued_at = 0.0


#: the ledger's integer keys, as read by :func:`rpc_counters` and
#: :meth:`WorkerRegistry.traffic_seconds`
_LEDGER_KEYS = ("calls", "request_bytes", "request_tensors", "local_calls",
               "served", "response_bytes", "response_tensors",
               "pool_requests", "pool_hits", "pool_bytes_reused",
               "drop", "crash", "timeout", "retry", "giveup")


def _ledger_view(key: str, doc: str) -> property:
    return property(lambda self: self.ledger_total(key), doc=doc)


class TransportCounters:
    """Read-only transport/fault counters: typed views of an RPC group's
    ledger summed over callers (``ledger_total``), which both runtimes
    write once per call and per fault — what results and tests read."""

    remote_requests = _ledger_view("calls", "Cross-machine requests "
                                   "dispatched.")
    local_calls = _ledger_view("local_calls", "Same-machine "
                               "(shared-memory path) calls.")
    retries = _ledger_view("retry", "Re-sent attempts (attempt > 1).")
    timeouts = _ledger_view("timeout", "Attempts that hit their deadline.")
    dropped_messages = _ledger_view("drop", "Requests lost on the injected "
                                    "network.")


#: fault kind (a ledger key) -> the transport counter that moves with it
#: (``crash`` has none: a request lost on a dead server is written off by
#: its timeout)
_FAULT_COUNTERS = {"crash": None, "drop": "rpc.dropped_messages",
                   "giveup": "rpc.giveups", "retry": "rpc.retries",
                   "timeout": "rpc.timeouts"}


def rpc_counters(total: Callable[[str], int]) -> dict[str, int]:
    """The ``rpc.*`` counters of a finished deployment; ``total(key)`` is
    one ledger key summed over callers.

    The one place metric names meet the ledger.  A name is present iff
    the event that bumps it happened at least once (a served attempt for
    ``rpc.response_bytes``, a staged tensor for ``rpc.pool.*`` ...), so a
    value may be 0 while its key records that the event occurred.
    """
    out: dict[str, int] = {}
    remote, local = total("calls"), total("local_calls")
    if remote or local:
        out["rpc.calls"] = remote + local
    if local:
        out["rpc.calls_local"] = local
    if remote:
        out["rpc.calls_remote"] = remote
        out["rpc.request_bytes"] = total("request_bytes")
    if total("served"):
        out["rpc.response_bytes"] = total("response_bytes")
    requests, hits = total("pool_requests"), total("pool_hits")
    if requests:
        out["rpc.pool.requests"] = requests
        out["rpc.pool.hits"] = hits
        out["rpc.pool.misses"] = requests - hits
        out["rpc.pool.bytes_reused"] = total("pool_bytes_reused")
    for kind, paired in _FAULT_COUNTERS.items():
        n = total(kind)
        if n:
            out[f"rpc.faults.{kind}"] = n
            if paired is not None:
                out[paired] = n
    return out


class WorkerRegistry(TransportCounters):
    """Worker registry and remote-object lifecycle of one RPC group.

    Subclasses supply the runtime: how a server is built
    (``register_server``), what a bare process handle is
    (``_new_process``) and dispatch (``rref_call``).
    """

    def __init__(self, *, network: NetworkModel | None = None,
                 fault_plan=None, retry_policy: RetryPolicy | None = None,
                 obs: Obs | None = None) -> None:
        self.network = network if network is not None else NetworkModel()
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
        #: ``(caller, owner)`` -> ``(caller process, owner's server, same
        #: machine?, caller's own ledger row, the row the owner's side
        #: books in)``: the registry does not change once a pair resolves
        self._routes: dict[tuple[str, str], tuple] = {}
        #: caller -> writer -> integer totals of the caller's calls
        #: (:data:`_LEDGER_KEYS`).  The writer is the caller itself (its
        #: requests and local calls) or the server that served or lost
        #: them; each runs on one thread, so a row has one writer and a
        #: booking takes no lock.  The lock guards adding and reading rows.
        self._ledger: dict[str, dict[str, dict[str, int]]] = {}
        self._ledger_lock = threading.Lock()

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

        Resolves both ends and — across machines — sizes the request with
        the runtime's ``size_request``, counts the call, reserves the
        client span and, when faults can be rolled, takes the caller's
        next call index.  ``call`` is None for a same-machine call, which
        never touches the network (``_local_call`` runs it).
        """
        owner_name = rref.owner_name
        route = self._routes.get((caller_name, owner_name))
        if route is None:
            route = self._route(caller_name, owner_name)
        caller, server, same_machine, own_row, served_row = route
        if same_machine:
            own_row["local_calls"] += 1
            return caller, server, None
        request = size_request(args, kwargs)
        own_row["calls"] += 1
        own_row["request_bytes"] += request[0]
        own_row["request_tensors"] += request[1]
        call = RemoteCall(caller_name, rref, server, served_row, method,
                          args, kwargs, request)
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

    def _route(self, caller_name: str, owner_name: str) -> tuple:
        """Resolve and keep one ``(caller, owner)`` pair's route."""
        caller = self.process_of(caller_name)
        same_machine = (self.worker_info(caller_name).machine_id
                        == self.worker_info(owner_name).machine_id)
        route = self._routes[caller_name, owner_name] = (
            caller, self.server_of(owner_name), same_machine,
            self._ledger_row(caller_name, caller_name),
            None if same_machine else self._ledger_row(caller_name,
                                                       owner_name))
        return route

    def _ledger_row(self, caller_name: str, writer: str) -> dict[str, int]:
        with self._ledger_lock:
            rows = self._ledger.setdefault(caller_name, {})
            row = rows.get(writer)
            if row is None:
                row = rows[writer] = dict.fromkeys(_LEDGER_KEYS, 0)
            return row

    def _next_call_index(self, caller_name: str) -> int:
        index = self._call_indices.get(caller_name, 0)
        self._call_indices[caller_name] = index + 1
        return index

    def _local_call(self, caller, server: ObjectHost, key: str, method: str,
                    args: tuple, kwargs: dict) -> Any:
        """A same-machine call on the caller's timeline: ``local_call``
        overhead, then the handler, ``local_exec`` over its result."""
        caller.charge_seconds(self.network.local_call_overhead, "local_call")
        result = server.resolve_method(key, method)(*args, **kwargs)
        caller.compute("local_exec",
                       COMPUTE.local_exec(*payload_sizes(result)))
        return result

    def _served(self, call: RemoteCall, result: Any, sizes: tuple[int, int],
                start: float, end: float) -> None:
        """Epilogue of one served attempt: bytes, buffer pool, server span."""
        requests, hits, reused = call.server.pool.stage(result)
        row = call.row
        row["served"] += 1
        row["response_bytes"] += sizes[0]
        row["response_tensors"] += sizes[1]
        row["pool_requests"] += requests
        row["pool_hits"] += hits
        row["pool_bytes_reused"] += reused
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

    def ledger_total(self, key: str) -> int:
        """One ledger key summed over callers."""
        with self._ledger_lock:
            return sum(row[key] for rows in self._ledger.values()
                       for row in rows.values())

    def _ledger_totals(self, caller_name: str | None = None
                       ) -> dict[str, int]:
        """Every ledger key summed over one caller's rows (all rows when
        ``caller_name`` is None)."""
        with self._ledger_lock:
            groups = (self._ledger.values() if caller_name is None
                      else [self._ledger.get(caller_name, {})])
            rows = [row for by_writer in groups for row in by_writer.values()]
        totals = dict.fromkeys(_LEDGER_KEYS, 0)
        for row in rows:
            for key, n in row.items():
                totals[key] += n
        return totals

    def publish_metrics(self) -> None:
        """Fold the ledger into ``obs.metrics`` as the ``rpc.*`` counters:
        once, when the deployment has finished (they are totals)."""
        metrics = self.obs.metrics
        totals = self._ledger_totals()
        for name, n in rpc_counters(totals.__getitem__).items():
            metrics.inc(name, n)

    def traffic_seconds(self, caller_name: str) -> float:
        """Modeled seconds of one caller's remote calls.

        Each call pays its issue overhead, both transfers and the
        handler's ``COMPUTE.serve``; each timed-out attempt pays the
        policy's timeout.  The price is linear in the caller's integer
        totals, so the order in which server threads served cannot change
        it: both runtimes get the same float.
        """
        t = self._ledger_totals(caller_name)
        net, serve = self.network, COMPUTE.serve
        seconds = (
            t["calls"] * (net.send_overhead() + serve.call
                          + 2 * (net.rpc_overhead + net.latency))
            + (t["request_tensors"] + t["response_tensors"])
            * net.tensor_wrap_cost
            + (t["request_bytes"] + t["response_bytes"]) / net.bandwidth
            + serve.per_unit[0] * t["response_bytes"]
            + serve.per_unit[1] * t["response_tensors"])
        if t["timeout"]:
            seconds += t["timeout"] * self.retry_policy.timeout
        return seconds

    def _give_up(self, call: RemoteCall, attempts: int) -> RpcError:
        """The typed error of a call whose retry budget is spent."""
        self._fault(call, "giveup")
        kind = WorkerCrashedError if call.cause == "crash" \
            else RpcTimeoutError
        return kind(
            f"{call.caller_name} -> {call.owner_name}.{call.method} failed "
            f"after {attempts} attempt(s) "
            f"(timeout={self.retry_policy.timeout:g}s, "
            f"last cause: {call.cause})")

    def _fault(self, call: RemoteCall, kind: str) -> None:
        """Count one fault-layer event on ``call``, in its caller's row.

        ``kind``: ``drop`` (request lost in the network), ``crash`` (it
        reached a dead server), ``timeout`` (an attempt's deadline fired;
        a late reply is folded in), ``retry`` (a retransmission) or
        ``giveup`` (budget exhausted; the caller sees a typed error).
        """
        call.row[kind] += 1

    # -- remote object lifecycle ------------------------------------------
    def create_remote(self, owner_name: str, key: str,
                      factory: Callable[..., Any], *args, **kwargs) -> RRef:
        """Instantiate ``factory(*args, **kwargs)`` on ``owner_name``.

        Setup is charged to no clock: graph-shard construction is a
        preprocessing step whose cost the paper amortizes across queries.
        """
        server = self.server_of(owner_name)
        server.put_object(key, factory(*args, **kwargs))
        return RRef(self, owner_name, key)
