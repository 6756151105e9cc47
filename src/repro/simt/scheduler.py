"""The discrete-event scheduler.

Maintains a priority queue of ``(virtual_time, sequence, fn, args)``
entries and executes each as ``fn(*args)``, in order.  Sequence numbers
break ties deterministically (and are unique, so ``fn`` is never
compared), so a given workload always produces the same interleaving and
the same virtual timings: every charge is modeled, none is read off the
host.  An event is a bound method and its arguments, so scheduling one
builds no closure: a process waking from a ``Sleep`` is ``(t, seq,
proc._step, (None,))``, one resuming from a ``Wait`` ``(t, seq,
proc._resume, (future, wait_seconds, category))``, a request reaching
its server ``(t, seq, ctx._deliver, (call, future, arrival, deadline))``.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator

from repro.errors import SimulationError
from repro.simt.process import SimProcess


class Scheduler:
    """Deterministic event loop over virtual time."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self._now = 0.0
        self.processes: dict[str, SimProcess] = {}
        self._running = False
        #: total events executed (diagnostics)
        self.events_executed = 0

    # -- time ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Virtual time of the event currently being processed."""
        return self._now

    # -- process management ---------------------------------------------------
    def spawn(self, name: str, body: Generator, *, start_at: float = 0.0) -> SimProcess:
        """Register a generator as a simulated process and schedule its start."""
        proc = self.add_passive(name)
        proc.clock = start_at
        proc.start(body)
        return proc

    def add_passive(self, name: str) -> SimProcess:
        """Register a process with no coroutine body (yet).

        An RPC server stays passive — its clock is advanced by the RPC
        layer when requests are served on it; a computing process is
        registered passive so its driver can be built around the handle,
        then given its body with :meth:`SimProcess.start`.
        """
        if name in self.processes:
            raise SimulationError(f"duplicate process name {name!r}")
        proc = SimProcess(name, self)
        self.processes[name] = proc
        return proc

    # -- event queue ------------------------------------------------------
    def _schedule(self, at: float, fn: Callable[..., None],
                  args: tuple = ()) -> None:
        """Queue the event ``fn(*args)`` at virtual time ``at``."""
        if at < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: at={at!r} < now={self._now!r}"
            )
        heapq.heappush(self._heap, (at, self._seq, fn, args))
        self._seq += 1

    def call_at(self, at: float, callback: Callable[[], None]) -> None:
        """Public timer: run ``callback()`` at virtual time ``at`` (>= now).

        Timers fire in deterministic (time, insertion) order like every
        other event; the simulated runtime's own events (process steps,
        RPC deliveries, timeouts, retries) queue through the same heap.
        """
        self._schedule(at, callback)

    def run(self, *, max_events: int | None = None) -> float:
        """Drain the event queue; return the final virtual time.

        Raises :class:`SimulationError` if any spawned process is left
        unfinished when the queue empties (a deadlock: someone waits on a
        future nobody will resolve).
        """
        if self._running:
            raise SimulationError("scheduler is already running")
        self._running = True
        heap, pop = self._heap, heapq.heappop
        limit = math.inf if max_events is None else max_events
        n = 0
        try:
            while heap:
                at, _seq, fn, args = pop(heap)
                self._now = at
                fn(*args)
                n += 1
                if n >= limit:
                    raise SimulationError(f"exceeded max_events={max_events}")
        finally:
            self.events_executed += n
            self._running = False
        stuck = [p.name for p in self.processes.values()
                 if p._body is not None and not p.finished]
        if stuck:
            # Localize the stall: the wait-for graph names each blocked
            # coroutine and the future it awaits (lazy import — the
            # analysis package depends on simt types, not vice versa).
            from repro.analysis.deadlock import diagnose

            report = diagnose(self)
            detail = "\n" + report.render() if report is not None else ""
            raise SimulationError(
                f"deadlock: processes never finished: {stuck}{detail}"
            )
        return self._now

    # -- results ------------------------------------------------------------
    def result_of(self, name: str) -> Any:
        """Return value of a finished process (re-raises its exception)."""
        proc = self.processes[name]
        if not proc.completion.done:
            raise SimulationError(f"process {name!r} has not finished")
        return proc.completion.value()
