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

from typing import Any, Generator

from repro.errors import SimulationError, WorkerCrashedError
from repro.simt.futures import SimFuture
from repro.utils.timer import CategoryTimer


class ProcessClock:
    """Name, clock and per-category time accounting of one process.

    The half of a process handle the drivers see (``measured``, ``span``,
    ``charge_seconds``, ``breakdown``), written once for both runtimes:
    :class:`SimProcess` adds the coroutine lifecycle on the virtual-time
    scheduler, :class:`~repro.rpc.thread_runtime.ThreadProcess` the
    result slot of an OS thread.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.clock = 0.0
        self.timer = CategoryTimer(on_charge=self._advance_clock)
        #: optional SpanTracer; when set, measured() blocks and span() open
        #: intervals on this process's timeline
        self.tracer = None

    def _advance_clock(self, category: str, dt: float) -> None:
        self.clock += dt

    def charge_seconds(self, dt: float, category: str = "other") -> None:
        """Charge a modeled duration to this process's clock + breakdown."""
        self.timer.charge_seconds(category, dt)

    def measured(self, category: str):
        """Context manager: run real work, charge its measured duration.

        With a tracer attached, the charged interval is also recorded as a
        span named after the category (nested under the innermost open
        span), which is how the pop/push/serve spans of the runtime
        breakdown reach the Chrome trace.

        >>> with proc.measured("push"):        # doctest: +SKIP
        ...     state.push(infos, nodes, shards)
        """
        if self.tracer is None:
            return self.timer.charge(category)
        from repro.obs.spans import _TracedMeasure

        return _TracedMeasure(self, category)

    def span(self, name: str, **attrs):
        """Open a logical span (e.g. one query) on this process's timeline.

        A no-op context manager when no tracer is attached.  Safe to hold
        across ``yield`` suspensions: the span covers waits too, so a
        ``query`` span's duration is the query's virtual latency.
        """
        if self.tracer is None:
            from contextlib import nullcontext

            return nullcontext()
        return self.tracer.span(self.name, name, lambda: self.clock,
                                attrs or None)

    @property
    def breakdown(self):
        """Per-category seconds accumulated so far."""
        return self.timer.breakdown


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

    def _step(self, send_value: Any) -> None:
        """Resume the coroutine until the next suspension point."""
        from repro.simt.events import Charge, Sleep, Wait, WaitAll

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
                effect = self._body.send(send_value)
            except StopIteration as stop:
                self._finish(stop.value)
                return
            # repro: allow=REP006 faults are re-raised via completion.value()
            except BaseException as exc:
                self._fail(exc)
                return
            send_value = None

            if isinstance(effect, Charge):
                self.charge_seconds(effect.seconds, effect.category or "charged")
                continue
            if isinstance(effect, Sleep):
                self.clock += effect.seconds
                self.scheduler._schedule(self.clock, lambda: self._step(None))
                self._waiting = True
                return
            if isinstance(effect, Wait):
                self._wait_one(effect.future)
                return
            if isinstance(effect, WaitAll):
                self._wait_all(list(effect.futures))
                return
            raise SimulationError(
                f"process {self.name!r} yielded unknown effect {effect!r}"
            )

    def _wait_one(self, fut: SimFuture) -> None:
        self._waiting = True
        self.waiting_on = (fut,)

        def on_done(f: SimFuture) -> None:
            resume_at = max(self.clock, f.ready_time)
            wait_dt = resume_at - self.clock
            # Time blocked on a worker that turned out to be crashed is its
            # own breakdown category: lumping it into "wait" would silently
            # inflate the remote_fetch phase with outage time.
            category = ("crashed" if isinstance(f.exception, WorkerCrashedError)
                        else "wait")

            def resume() -> None:
                self.timer.charge_seconds(category, wait_dt)
                try:
                    value = f.value()
                # repro: allow=REP006 fault is forwarded into the coroutine
                except BaseException as exc:
                    self._throw(exc)
                    return
                self._step(value)

            self.scheduler._schedule(resume_at, resume)

        fut.add_done_callback(on_done)

    def _wait_all(self, futs: list[SimFuture]) -> None:
        self._waiting = True
        self.waiting_on = tuple(futs)
        remaining = len(futs)
        if remaining == 0:
            self.scheduler._schedule(self.clock, lambda: self._step([]))
            return
        pending = {"n": remaining}

        def on_done(_f: SimFuture) -> None:
            pending["n"] -= 1
            if pending["n"] > 0:
                return
            resume_at = max([self.clock] + [f.ready_time for f in futs])
            wait_dt = resume_at - self.clock
            category = ("crashed"
                        if any(isinstance(f.exception, WorkerCrashedError)
                               for f in futs)
                        else "wait")

            def resume() -> None:
                self.timer.charge_seconds(category, wait_dt)
                try:
                    values = [f.value() for f in futs]
                # repro: allow=REP006 fault is forwarded into the coroutine
                except BaseException as exc:
                    self._throw(exc)
                    return
                self._step(values)

            self.scheduler._schedule(resume_at, resume)

        for f in futs:
            f.add_done_callback(on_done)

    def _throw(self, exc: BaseException) -> None:
        """Inject an exception (e.g. failed RPC) into the coroutine."""
        try:
            effect = self._body.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        # repro: allow=REP006 faults are re-raised via completion.value()
        except BaseException as body_exc:
            self._fail(body_exc)
            return
        # The coroutine caught the exception and yielded a new effect;
        # re-enter the normal stepping path by handling that effect.
        self._handle_resumed_effect(effect)

    def _handle_resumed_effect(self, effect) -> None:
        from repro.simt.events import Charge, Sleep, Wait, WaitAll

        if isinstance(effect, Charge):
            self.charge_seconds(effect.seconds, effect.category or "charged")
            self.scheduler._schedule(self.clock, lambda: self._step(None))
        elif isinstance(effect, Sleep):
            self.clock += effect.seconds
            self.scheduler._schedule(self.clock, lambda: self._step(None))
        elif isinstance(effect, Wait):
            self._wait_one(effect.future)
        elif isinstance(effect, WaitAll):
            self._wait_all(list(effect.futures))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unknown effect {effect!r}"
            )

    def _finish(self, value: Any) -> None:
        self._finished = True
        self.completion.set_result(value, self.clock)

    def _fail(self, exc: BaseException) -> None:
        self._finished = True
        self.completion.set_exception(exc, self.clock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "finished" if self._finished else ("waiting" if self._waiting else "ready")
        return f"SimProcess({self.name!r}, clock={self.clock:.6g}, {state})"
