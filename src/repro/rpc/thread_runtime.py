"""Real-thread execution of the same coroutine drivers.

The engine's distributed algorithms (Figure 4) are written once as generator
coroutines yielding :mod:`repro.simt` effects.  Benchmarks drive them on the
deterministic virtual-time scheduler; this module drives the *identical*
code over real OS threads with blocking futures, providing an execution mode
with genuine concurrency.  Tests use it to demonstrate that results are
independent of the runtime (same PPR vectors, same walks) and that the
storage layer is safe under concurrent readers.

Timing semantics in thread mode: measured blocks accumulate real seconds on
the process breakdown as usual, modeled ``Charge``/``Sleep`` effects are
recorded but not slept (thread mode is for functional validation, not
timing).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future as _PyFuture
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Generator

from repro.errors import RpcError, SimulationError
from repro.obs import Obs
from repro.rpc.rref import RRef
from repro.rpc.serialization import payload_sizes, request_payload_sizes
from repro.rpc.worker import ObjectHost, WorkerInfo, WorkerRegistry
from repro.simt.events import Charge, Sleep, Wait, WaitAll
from repro.simt.process import ProcessClock
from repro.utils.timer import Stopwatch


class ThreadFuture:
    """Future resolved on a server thread; waiters block."""

    __slots__ = ("_inner", "span_id")

    def __init__(self, inner: _PyFuture) -> None:
        self._inner = inner
        #: client span id of the remote call behind this future, when traced
        self.span_id: int | None = None

    @property
    def done(self) -> bool:
        return self._inner.done()

    def value(self) -> Any:
        return self._inner.result()

    @classmethod
    def resolved(cls, value: Any) -> "ThreadFuture":
        inner: _PyFuture = _PyFuture()
        inner.set_result(value)
        return cls(inner)


class MergedThreadFuture:
    """Composite future: blocks on its parts at ``value()``.

    ``finalize(ok)`` builds the value from the parts (or cleans up after a
    failed part) exactly once, on the first consumer's thread.
    """

    __slots__ = ("_parts", "_finalize", "_lock", "_result", "_exception",
                 "_materialized")

    def __init__(self, parts: list[Any], finalize) -> None:
        self._parts = parts
        self._finalize = finalize
        self._lock = threading.Lock()
        self._result: Any = None
        self._exception: BaseException | None = None
        self._materialized = False

    @property
    def done(self) -> bool:
        return all(p.done for p in self._parts)

    def value(self) -> Any:
        with self._lock:
            if not self._materialized:
                self._materialized = True
                fin, self._finalize = self._finalize, None
                try:
                    for p in self._parts:
                        p.value()
                except BaseException as exc:
                    fin(False)
                    self._exception = exc
                    raise
                self._result = fin(True)
                return self._result
            if self._exception is not None:
                raise self._exception
            return self._result


class ThreadProcess(ProcessClock):
    """Per-thread worker state; the clock accumulates charged seconds
    (real, for reporting), so thread spans run on the charged-seconds
    timeline, not wall time."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.result: Any = None
        self.exception: BaseException | None = None


class _ThreadServer(ObjectHost):
    """Single-threaded FIFO server hosting remote objects.

    The response buffer pool is only touched on the single executor
    thread, so it needs no extra locking.
    """

    def __init__(self, info: WorkerInfo) -> None:
        super().__init__(info)
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"rpc-{info.name}"
        )
        self._lock = threading.Lock()

    def put_object(self, key: str, obj: Any) -> None:
        with self._lock:
            super().put_object(key, obj)

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True)


class ThreadRuntime(WorkerRegistry):
    """Thread-backed drop-in for ``(Scheduler, RpcContext)``.

    Implements the same registration/dispatch surface as
    :class:`~repro.rpc.api.RpcContext` so :class:`~repro.rpc.rref.RRef` and
    the storage layer work unchanged.  The counter names (and values, under
    a drop-only FaultPlan) match RpcContext's — asserted by
    tests/test_runtime_differential.py.

    Fault injection: the *same* FaultPlan drop decisions replay here as on
    the virtual-time scheduler, because decisions are keyed on (seed,
    caller, per-caller call index, attempt) — never on time.  Crash windows
    are virtual-time constructs and are ignored in thread mode.  The
    prologue, epilogue and give-up of a call are the registry's
    (``_begin_call`` / ``_served`` / ``_give_up``), shared with RpcContext;
    this class adds the blocking attempt loop.

    ``sanitizer`` is an optional lockset race detector
    (:class:`repro.analysis.race.RaceDetector`): the runtime's cross-thread
    state is then recorded under a detector-tracked lock.  Installing the
    detector's ShardedMap hook around the run is the deployment's job
    (``repro.engine.cluster``).
    """

    def __init__(self, *, fault_plan=None, retry_policy=None,
                 obs: Obs | None = None, sanitizer=None) -> None:
        super().__init__(fault_plan=fault_plan, retry_policy=retry_policy,
                         obs=obs)
        self._threads: list[threading.Thread] = []
        self.sanitizer = sanitizer
        #: guards the per-caller call indices, which many driver threads
        #: advance concurrently in rref_call
        self._fault_lock = (
            sanitizer.tracked_lock("ThreadRuntime._fault_lock")
            if sanitizer is not None else threading.Lock())

    # -- registration (RpcContext-compatible) ------------------------------
    def register_server(self, name: str, machine_id: int) -> _ThreadServer:
        server = _ThreadServer(self._register(name, machine_id))
        self._servers[name] = server
        return server

    def _new_process(self, name: str) -> ThreadProcess:
        return ThreadProcess(name)

    # -- futures ------------------------------------------------------------
    def resolved_future(self, value: Any, tag: str | None = None) -> ThreadFuture:
        """A future already resolved with ``value`` (no wire, no waiting)."""
        return ThreadFuture.resolved(value)

    def merged_future(self, parts: list[Any], finalize,
                      tag: str | None = None) -> MergedThreadFuture:
        """One future over ``parts``; ``finalize`` runs at consumption."""
        return MergedThreadFuture(parts, finalize)

    # -- dispatch -------------------------------------------------------------
    def _next_call_index(self, caller_name: str) -> int:
        with self._fault_lock:
            if self.sanitizer is not None:
                self.sanitizer.record("ThreadRuntime.call_indices",
                                      write=True)
            return super()._next_call_index(caller_name)

    def rref_call(self, caller_name: str, rref: RRef, method: str,
                  args: tuple, kwargs: dict) -> ThreadFuture:
        caller, server, call = self._begin_call(
            caller_name, rref, method, args, kwargs, request_payload_sizes)
        if call is None:
            fn = server.resolve_method(rref.key, method)
            return ThreadFuture.resolved(fn(*args, **kwargs))
        # Spans use the caller's charged clock at issue as the base and
        # real handler seconds as the extent — approximate, but enough to
        # see linked client/server pairs in a thread-mode trace.
        issue_clock = caller.clock
        handler_seconds = 0.0
        plan, policy = self.fault_plan, self.retry_policy

        def serve() -> Any:
            """One handler invocation, on the server's executor thread."""
            nonlocal handler_seconds
            fn = server.resolve_method(rref.key, method)
            server.requests_served += 1
            with Stopwatch() as sw:
                result = fn(*args, **kwargs)
            handler_seconds = sw.elapsed
            resp_bytes, _ = payload_sizes(result)
            self._served(call, result, resp_bytes, issue_clock,
                         issue_clock + handler_seconds)
            return result

        def attempt_loop() -> Any:
            """Serve the first attempt the plan does not drop."""
            budget = 1 if policy is None else policy.max_attempts
            for n in range(1, budget + 1):
                if n > 1:
                    self._fault("retry")
                if plan is not None and plan.roll_drop(caller_name,
                                                       call.index, n):
                    # Lost request: in thread mode the timeout elapses
                    # logically (no real sleeping) and we retransmit.
                    # Each drop implies one logical timeout firing — the
                    # same accounting the virtual-time timers produce.
                    self._fault("drop")
                    self._fault("timeout")
                    call.cause = "drop"
                    continue
                return serve()
            raise self._give_up(call, budget)

        inner = server.executor.submit(attempt_loop)
        fut = ThreadFuture(inner)
        if call.span is not None:
            # Recorded when the call resolves, as on the scheduler — so a
            # call that exhausted its retries still leaves its client span
            # (zero handler seconds, ``error`` attr).
            fut.span_id = call.span["span_id"]
            inner.add_done_callback(lambda f: self._close_client_span(
                call, issue_clock, issue_clock + handler_seconds,
                f.exception()))
        return fut

    # -- driving coroutines -------------------------------------------------
    def spawn(self, name: str, body: Generator) -> ThreadProcess:
        """Run a coroutine driver on its own thread."""
        proc = self._processes.get(name)
        if proc is None:
            raise RpcError(
                f"worker {name!r} must be registered (register_worker) "
                "before spawning its driver"
            )
        thread = threading.Thread(
            target=self._trampoline, args=(proc, body), name=name, daemon=True
        )
        self._threads.append(thread)
        thread.start()
        return proc

    @staticmethod
    def _trampoline(proc: ThreadProcess, body: Generator) -> None:
        """Drive ``body`` on this thread, performing each yielded effect.

        A failed ``Wait``/``WaitAll`` is thrown into the body at its yield
        point, exactly as ``SimProcess._throw`` does, so a driver's
        ``except TRANSPORT_ERRORS`` sees transport faults on both runtimes.
        """
        resume, arg = body.send, None
        while True:
            try:
                in_body = True
                effect = resume(arg)
                in_body = False
                resume, arg = body.send, _perform(proc, effect)
            except StopIteration as stop:
                proc.result = stop.value
                return
            # a body fault surfaces via join(); a failed wait goes to the body
            # repro: allow=REP006 forwarded into the coroutine or to join()
            except BaseException as exc:
                if in_body:
                    proc.exception = exc
                    return
                resume, arg = body.throw, exc

    def join(self, timeout: float = 60.0) -> None:
        """Wait for all spawned drivers; re-raise the first failure."""
        for thread in self._threads:
            thread.join(timeout=timeout)
            if thread.is_alive():
                raise SimulationError(f"thread {thread.name!r} did not finish")
        self._threads.clear()
        for proc in self._processes.values():
            if proc.exception is not None:
                raise proc.exception

    def result_of(self, name: str) -> Any:
        """Return value of a joined driver (re-raises its exception)."""
        proc = self.process_of(name)
        if proc.exception is not None:
            raise proc.exception
        return proc.result

    def shutdown(self) -> None:
        for server in self._servers.values():
            server.shutdown()


def _perform(proc: ThreadProcess, effect) -> Any:
    """Carry out one yielded effect; returns the value to send back."""
    if isinstance(effect, Wait):
        return effect.future.value()
    if isinstance(effect, WaitAll):
        return [f.value() for f in effect.futures]
    if isinstance(effect, Charge):
        proc.charge_seconds(effect.seconds, effect.category or "charged")
        return None
    if isinstance(effect, Sleep):
        return None  # modeled delays are not slept in thread mode
    raise SimulationError(f"unknown effect {effect!r}")
