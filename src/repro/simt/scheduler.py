"""The discrete-event scheduler.

Maintains a priority queue of ``(virtual_time, sequence, callback)`` entries
and executes them in order.  Sequence numbers break ties deterministically,
so a given workload always produces the same interleaving and the same
virtual timings for modeled costs (measured compute varies with the host, as
it does for the paper's wall-clock numbers).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

from repro.errors import SimulationError
from repro.simt.futures import SimFuture
from repro.simt.process import SimProcess


class Scheduler:
    """Deterministic event loop over virtual time."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
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
    def _schedule(self, at: float, callback: Callable[[], None]) -> None:
        if at < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule in the past: at={at!r} < now={self._now!r}"
            )
        heapq.heappush(self._heap, (at, self._seq, callback))
        self._seq += 1

    def call_at(self, at: float, callback: Callable[[], None]) -> None:
        """Public timer: run ``callback`` at virtual time ``at`` (>= now).

        This is what the RPC layer's per-call timeouts and retry backoffs
        are built on; timers fire in deterministic (time, insertion) order
        like every other event.
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
        try:
            n = 0
            while self._heap:
                at, _seq, callback = heapq.heappop(self._heap)
                self._now = at
                callback()
                self.events_executed += 1
                n += 1
                if max_events is not None and n >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
        finally:
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

    def makespan(self, names: list[str] | None = None) -> float:
        """Latest final clock among the given (default: all) processes.

        This is the paper's throughput denominator: total runtime of a batch
        of queries across all machines, including synchronization.
        """
        procs = (
            [self.processes[n] for n in names]
            if names is not None
            else list(self.processes.values())
        )
        if not procs:
            raise SimulationError("no processes to compute makespan over")
        return max(p.clock for p in procs)

    def resolved_future(self, value: Any, *, delay: float = 0.0,
                        tag: str | None = None) -> SimFuture:
        """A future that resolves ``delay`` after the current virtual time."""
        fut = SimFuture(tag=tag)
        if delay <= 0.0:
            fut.set_result(value, self._now)
        else:
            self._schedule(self._now + delay,
                           lambda: fut.set_result(value, self._now))
        return fut
