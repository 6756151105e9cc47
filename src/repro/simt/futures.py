"""Virtual-time futures.

A :class:`SimFuture` resolves at a specific *virtual* time (``ready_time``).
A process that waits on it resumes no earlier than that time, which is how
network round-trips and server queueing delays propagate into caller
timelines.  Mirrors the surface of ``torch.futures.Future`` (``wait`` is the
yield-based :class:`~repro.simt.events.Wait` effect instead of a blocking
call).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import SimulationError


class SimFuture:
    """A write-once container resolving at a known virtual time."""

    __slots__ = ("_value", "_exception", "_ready_time", "_done", "_callbacks",
                 "tag")

    def __init__(self, tag: str | None = None) -> None:
        self._value: Any = None
        self._exception: BaseException | None = None
        self._ready_time = 0.0
        self._done = False
        self._callbacks: list[Callable[["SimFuture"], None]] = []
        #: optional label for tracing/debugging
        self.tag = tag

    # -- state ----------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the future has been resolved (value or exception)."""
        return self._done

    @property
    def ready_time(self) -> float:
        """Virtual time at which the result becomes visible to waiters."""
        if not self._done:
            raise SimulationError(f"future {self.tag!r} not resolved yet")
        return self._ready_time

    @property
    def exception(self) -> BaseException | None:
        """The exception this future resolved with, or None."""
        return self._exception if self._done else None

    def value(self) -> Any:
        """The resolved value; re-raises if resolved with an exception."""
        if not self._done:
            raise SimulationError(f"future {self.tag!r} not resolved yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- resolution -----------------------------------------------------
    def set_result(self, value: Any, ready_time: float) -> None:
        """Resolve with ``value`` visible at virtual ``ready_time``."""
        self._resolve(value, None, ready_time)

    def set_exception(self, exc: BaseException, ready_time: float) -> None:
        """Resolve with an exception raised to waiters at ``ready_time``."""
        self._resolve(None, exc, ready_time)

    def _resolve(self, value, exc, ready_time: float) -> None:
        if self._done:
            raise SimulationError(f"future {self.tag!r} resolved twice")
        if ready_time < 0:
            raise ValueError(f"ready_time must be >= 0, got {ready_time}")
        self._value = value
        self._exception = exc
        self._ready_time = ready_time
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        """Invoke ``cb(self)`` on resolution (immediately if already done)."""
        if self._done:
            cb(self)
        else:
            self._callbacks.append(cb)

    # -- conveniences ----------------------------------------------------
    @classmethod
    def resolved(cls, value: Any, ready_time: float = 0.0,
                 tag: str | None = None) -> "SimFuture":
        """A future already resolved with ``value`` at ``ready_time``."""
        fut = cls(tag=tag)
        fut._resolve(value, None, ready_time)
        return fut

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"done@{self._ready_time:.6g}" if self._done else "pending"
        return f"SimFuture(tag={self.tag!r}, {state})"
