"""Simulated processes: generator coroutines with a virtual clock.

A :class:`SimProcess` wraps a generator.  Its virtual clock advances by
(a) *measured* real compute — wrap actual work in ``proc.measured(category)``;
(b) modeled charges — ``proc.charge_seconds``; and (c) waits on futures.
Only effects that need to *suspend* the coroutine (waits/sleeps) go through
``yield``; pure clock charges are direct method calls, which keeps hot loops
cheap.

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
from repro.utils.timer import Stopwatch, TimeBreakdown


class ProcessClock:
    """Name, clock and per-category time accounting of one process.

    The half of a process handle the drivers see (``measured``, ``span``,
    ``charge_seconds``, ``breakdown``), written once for both runtimes:
    :class:`SimProcess` adds the coroutine lifecycle on the virtual-time
    scheduler, :class:`~repro.rpc.thread_runtime.ThreadProcess` the
    result slot of an OS thread.

    This is the only place a second is charged: every charge — measured,
    modeled or waited — adds the same float to ``clock`` and to
    ``breakdown`` (an idle ``Sleep`` moves the clock alone).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.clock = 0.0
        #: per-category seconds accumulated so far
        self.breakdown = TimeBreakdown()
        #: optional SpanTracer; when set, measured() blocks and span() open
        #: intervals on this process's timeline
        self.tracer = None

    def charge_seconds(self, dt: float, category: str = "other") -> None:
        """Charge a modeled duration to this process's clock + breakdown."""
        self.breakdown.charge(category, dt)
        self.clock += dt

    def measured(self, category: str) -> "_Measured":
        """Context manager: run real work, charge its measured duration.

        With a tracer attached, the charged interval is also recorded as a
        span named after the category (nested under the innermost open
        span), which is how the pop/push/serve spans of the runtime
        breakdown reach the Chrome trace.

        >>> with proc.measured("push"):        # doctest: +SKIP
        ...     state.push(infos, ids)
        """
        return _Measured(self, category)

    def span(self, name: str, **attrs):
        """Open a logical span (e.g. one query) on this process's timeline.

        A no-op context manager when no tracer is attached.  Safe to hold
        across ``yield`` suspensions: the span covers waits too, so a
        ``query`` span's duration is the query's virtual latency.
        """
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(self.name, name, lambda: self.clock,
                                attrs or None)


class _Measured(Stopwatch):
    """``proc.measured(category)``: time the block, charge it, span it.

    The span's interval is the *clock advance* the charge caused, so
    breakdown categories and spans stay consistent by construction; it is
    recorded only when the process has a tracer.
    """

    __slots__ = ("_proc", "_category")

    def __init__(self, proc: ProcessClock, category: str) -> None:
        # the Stopwatch slots are written by __enter__ / __exit__
        self._proc = proc
        self._category = category

    def __exit__(self, *exc) -> None:
        Stopwatch.__exit__(self)
        proc = self._proc
        start = proc.clock
        proc.charge_seconds(self.elapsed, self._category)
        tracer = proc.tracer
        if tracer is not None:
            tracer.record(self._category, proc.name, start, proc.clock,
                          parent_id=tracer.current(proc.name))


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
        self._waiting = False
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
        self.scheduler._schedule(self.clock, lambda: self._step(None))

    def _throw(self, exc: BaseException) -> None:
        """Inject an exception (e.g. failed RPC) into the coroutine."""
        self._step(exc, self._body.throw)

    def _step(self, arg: Any, resume=None) -> None:
        """Resume the coroutine until the next suspension point.

        The one effect dispatcher: a step enters with ``body.send``,
        :meth:`_throw` with ``body.throw`` — if the coroutine catches the
        exception and yields a new effect, it is handled right here.
        """
        if resume is None:
            resume = self._body.send
        if self._finished:
            raise SimulationError(f"process {self.name!r} stepped after finish")
        self._waiting = False
        self.waiting_on = ()
        while True:
            # Virtual time advances only through explicit charges: nested
            # measured() blocks, charge_seconds(), and yielded effects.
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
            resume, arg = self._body.send, None

            if isinstance(effect, Charge):
                self.charge_seconds(effect.seconds, effect.category or "charged")
                continue
            if isinstance(effect, Sleep):
                self.clock += effect.seconds
                self.scheduler._schedule(self.clock, lambda: self._step(None))
                self._waiting = True
                return
            if isinstance(effect, Wait):
                self._wait((effect.future,), unwrap=True)
                return
            if isinstance(effect, WaitAll):
                self._wait(tuple(effect.futures), unwrap=False)
                return
            raise SimulationError(
                f"process {self.name!r} yielded unknown effect {effect!r}"
            )

    def _wait(self, futs: tuple[SimFuture, ...], unwrap: bool) -> None:
        """Suspend until every future resolves; resume at the latest one.

        ``unwrap`` sends back the bare value a ``Wait`` expects instead of
        the list a ``WaitAll`` receives.
        """
        self._waiting = True
        self.waiting_on = futs
        if not futs:
            self.scheduler._schedule(self.clock, lambda: self._step([]))
            return
        remaining = len(futs)

        def on_done(_f: SimFuture) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                return
            resume_at = max(self.clock, *(f.ready_time for f in futs))
            wait_dt = resume_at - self.clock
            # Time blocked on a worker that turned out to be crashed is its
            # own breakdown category: lumping it into "wait" would silently
            # inflate the remote_fetch phase with outage time.
            category = ("crashed"
                        if any(isinstance(f.exception, WorkerCrashedError)
                               for f in futs)
                        else "wait")

            def resume() -> None:
                self.charge_seconds(wait_dt, category)
                try:
                    values = [f.value() for f in futs]
                # repro: allow=REP006 fault is forwarded into the coroutine
                except BaseException as exc:
                    self._throw(exc)
                    return
                self._step(values[0] if unwrap else values)

            self.scheduler._schedule(resume_at, resume)

        for f in futs:
            f.add_done_callback(on_done)

    def _finish(self, value: Any) -> None:
        self._finished = True
        self.completion.set_result(value, self.clock)

    def _fail(self, exc: BaseException) -> None:
        self._finished = True
        self.completion.set_exception(exc, self.clock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else ("waiting" if self._waiting else "ready")
        return f"SimProcess({self.name!r}, clock={self.clock:.6g}, {state})"
