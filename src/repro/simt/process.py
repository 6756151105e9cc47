"""Simulated processes: generator coroutines with a virtual clock.

A :class:`SimProcess` wraps a generator.  Its virtual clock advances by
(a) modeled compute — ``proc.compute(category, seconds)`` with seconds
from :data:`~repro.simt.compute.COMPUTE`; (b) other modeled charges —
``proc.charge_seconds``; and (c) waits on futures.  Only effects that need
to *suspend* the coroutine (waits/sleeps) go through ``yield``; pure clock
charges are direct method calls, which keeps hot loops cheap.

The per-category :class:`~repro.utils.timer.TimeBreakdown` accumulated on
every process is what regenerates the paper's Figure 6 and Table 3
breakdowns.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Generator

from repro.errors import SimulationError, WorkerCrashedError
from repro.simt.events import Charge, Sleep, Wait, WaitAll
from repro.simt.futures import SimFuture
from repro.utils.timer import TimeBreakdown

#: what ``span`` opens without a tracer (a nullcontext is reusable)
_NO_SPAN = nullcontext()


class ProcessClock:
    """Name, clock and per-category time accounting of one process.

    The half of a process handle the drivers see (``compute``, ``span``,
    ``charge_seconds``, ``breakdown``), written once for both runtimes:
    :class:`SimProcess` adds the coroutine lifecycle on the virtual-time
    scheduler, :class:`~repro.rpc.thread_runtime.ThreadProcess` the
    result slot of an OS thread.

    This is the only place a second is charged: every charge — computed,
    transferred or waited — adds the same float to ``clock`` and to
    ``breakdown`` (an idle ``Sleep`` moves the clock alone).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.clock = 0.0
        #: per-category seconds accumulated so far
        self.breakdown = TimeBreakdown()
        #: optional SpanTracer; when set, compute() charges and span() open
        #: intervals on this process's timeline
        self.tracer = None

    def charge_seconds(self, dt: float, category: str = "other") -> None:
        """Charge a modeled duration to this process's clock + breakdown
        (:meth:`TimeBreakdown.charge <repro.utils.timer.TimeBreakdown.charge>`,
        inline: a remote call makes three charges)."""
        if dt < 0.0:
            raise ValueError(f"negative charge {dt!r} for category {category!r}")
        seconds = self.breakdown.seconds
        seconds[category] = seconds.get(category, 0.0) + dt
        self.clock += dt

    def compute(self, category: str, seconds: float) -> None:
        """Charge ``seconds`` of modeled compute to ``category`` — with a
        tracer, also as a span of that name over the clock advance (how
        the pop/push/local_exec spans reach the Chrome trace)."""
        start = self.clock
        self.charge_seconds(seconds, category)
        tracer = self.tracer
        if tracer is not None:
            tracer.record(category, self.name, start, self.clock,
                          parent_id=tracer.current(self.name))

    def span(self, name: str, **attrs):
        """Open a logical span (e.g. one query) on this process's timeline.

        A no-op context manager when no tracer is attached.  Safe to hold
        across ``yield`` suspensions: the span covers waits too, so a
        ``query`` span's duration is the query's virtual latency.
        """
        if self.tracer is None:
            return _NO_SPAN
        return self.tracer.span(self.name, name, lambda: self.clock,
                                attrs or None)


class SimProcess(ProcessClock):
    """One simulated OS process (computing process or storage server)."""

    def __init__(self, name: str, scheduler) -> None:
        super().__init__(name)
        self.scheduler = scheduler
        self.completion = SimFuture(tag=f"{name}.completion")
        #: the coroutine; None for passive processes (storage servers) and
        #: for a computing process between registration and start()
        self._body: Generator | None = None
        self._finished = False
        #: futures this process is currently suspended on — the wait-for
        #: graph edge set read by repro.analysis.deadlock when the
        #: scheduler drains with unfinished processes
        self.waiting_on: tuple[SimFuture, ...] = ()

    @property
    def finished(self) -> bool:
        """Whether the coroutine body has run to completion."""
        return self._finished

    # -- lifecycle (driven by the Scheduler) --------------------------------
    def start(self, body: Generator) -> None:
        """Attach the coroutine body and schedule its first step.

        A process exists (clock, timer, registry entry) before its body
        does, so a driver can be handed its own handle at construction.
        """
        if self._body is not None:
            raise SimulationError(f"process {self.name!r} already has a body")
        self._body = body
        self.scheduler._schedule(self.clock, self._step, (None,))

    def _throw(self, exc: BaseException) -> None:
        """Inject an exception (e.g. failed RPC) into the coroutine."""
        self._step(exc, self._body.throw)

    def _step(self, arg: Any, resume=None) -> None:
        """Resume the coroutine until the next suspension point.

        The one effect dispatcher: a step enters with ``body.send``,
        :meth:`_throw` with ``body.throw`` — if the coroutine catches the
        exception and yields a new effect, it is handled right here.
        """
        body = self._body
        if resume is None:
            resume = body.send
        if self._finished:
            raise SimulationError(f"process {self.name!r} stepped after finish")
        self.waiting_on = ()
        while True:
            # Virtual time advances only through explicit charges:
            # compute(), charge_seconds(), and yielded effects.
            # Un-instrumented coroutine glue is free, which keeps the model
            # predictable and avoids double counting.
            try:
                effect = resume(arg)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            # repro: allow=REP006 faults are re-raised via completion.value()
            except BaseException as exc:
                self._fail(exc)
                return
            resume, arg = body.send, None

            if isinstance(effect, Wait):
                fut = effect.future
                self.waiting_on = (fut,)
                fut.add_done_callback(self._on_ready)
                return
            if isinstance(effect, Charge):
                self.charge_seconds(effect.seconds, effect.category or "charged")
                continue
            if isinstance(effect, Sleep):
                self.clock += effect.seconds
                self.scheduler._schedule(self.clock, self._step, (None,))
                return
            if isinstance(effect, WaitAll):
                self._wait_all(tuple(effect.futures))
                return
            raise SimulationError(
                f"process {self.name!r} yielded unknown effect {effect!r}"
            )

    def _on_ready(self, fut: SimFuture) -> None:
        """A ``Wait``'s one future resolved: schedule the resume at
        ``max(clock, ready_time)``, charging the gap as ``wait`` (or
        ``crashed``, see :meth:`_wait_all`).

        This and :meth:`_resume` run once per fetch, so they read the
        resolved future's slots directly."""
        ready = fut._ready_time
        resume_at = ready if ready > self.clock else self.clock
        category = ("crashed"
                    if isinstance(fut._exception, WorkerCrashedError)
                    else "wait")
        self.scheduler._schedule(resume_at, self._resume,
                                 (fut, resume_at - self.clock, category))

    def _resume(self, fut: SimFuture, wait_dt: float, category: str) -> None:
        """Charge a ``Wait``'s gap, then send its value (or throw its
        exception) into the coroutine."""
        self.charge_seconds(wait_dt, category)
        exc = fut._exception
        if exc is not None:
            self._throw(exc)
        else:
            self._step(fut._value)

    def _wait_all(self, futs: tuple[SimFuture, ...]) -> None:
        """Suspend until every future resolves; resume at the latest one
        with the list of their values."""
        self.waiting_on = futs
        if not futs:
            self.scheduler._schedule(self.clock, self._step, ([],))
            return
        remaining = len(futs)

        def on_done(_f: SimFuture) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                return
            resume_at = max(self.clock, *(f.ready_time for f in futs))
            # Time blocked on a worker that turned out to be crashed is its
            # own breakdown category: lumping it into "wait" would silently
            # inflate the remote_fetch phase with outage time.
            category = ("crashed"
                        if any(isinstance(f.exception, WorkerCrashedError)
                               for f in futs)
                        else "wait")
            self.scheduler._schedule(resume_at, self._resume_all,
                                     (futs, resume_at - self.clock, category))

        for f in futs:
            f.add_done_callback(on_done)

    def _resume_all(self, futs: tuple[SimFuture, ...], wait_dt: float,
                    category: str) -> None:
        self.charge_seconds(wait_dt, category)
        try:
            values = [f.value() for f in futs]
        # repro: allow=REP006 fault is forwarded into the coroutine
        except BaseException as exc:
            self._throw(exc)
            return
        self._step(values)

    def _finish(self, value: Any) -> None:
        self._finished = True
        self.completion.set_result(value, self.clock)

    def _fail(self, exc: BaseException) -> None:
        self._finished = True
        self.completion.set_exception(exc, self.clock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else (
            "waiting" if self.waiting_on else "ready")
        return f"SimProcess({self.name!r}, clock={self.clock:.6g}, {state})"
