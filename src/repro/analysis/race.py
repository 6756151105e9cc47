"""Eraser-style lockset race detection for the thread runtime.

The classic lockset discipline: every shared location must be consistently
protected by at least one lock.  For each instrumented location the
detector intersects the set of locks held across all accesses; when the
candidate lockset goes empty while the location has been touched by more
than one thread with at least one write, a :class:`RaceViolation` is
recorded pairing the two conflicting accesses (thread, lockset, stack).
Unlike happens-before detection this flags the *discipline* violation even
when the racy interleaving did not occur on this run.

Instrumentation points:

* :class:`~repro.ppr.hashmap.ShardedMap` — ``lookup`` records a read,
  ``get_or_insert`` a write, keyed per map instance.  The hook is a class
  attribute (``_sanitizer``) that defaults to ``None``, so the off-path
  cost is one attribute check per *batched* call — zero overhead in
  practice.  :func:`installed` flips it.
* :class:`~repro.rpc.thread_runtime.ThreadRuntime` — constructed with
  ``sanitizer=detector``, its cross-thread call-index table is recorded
  under a detector-tracked lock (see :class:`TrackedLock`).

``RunRequest(sanitize=True)`` has the deployed cluster (either runtime)
own a detector, install it for the duration of the run, and hand it to
the obs bundle; violations surface on
``QueryRunResult.race_violations`` and the ``sanitizer.*`` metrics.
"""

from __future__ import annotations

import threading
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: stack frames retained per access record
STACK_DEPTH = 10


@dataclass(frozen=True)
class RaceAccess:
    """One instrumented access: who, what kind, under which locks.

    ``thread_id`` is a detector-assigned logical id, NOT the OS ident:
    ``threading.get_ident()`` is recycled as threads exit, so two
    short-lived threads can share an ident and mask a real race.
    """

    thread_id: int
    thread_name: str
    write: bool
    lockset: tuple[str, ...]
    stack: tuple[str, ...]

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        locks = ", ".join(self.lockset) if self.lockset else "no locks"
        site = self.stack[-1] if self.stack else "<unknown site>"
        return (f"{kind} by thread {self.thread_name!r} holding "
                f"[{locks}] at {site}")


@dataclass(frozen=True)
class RaceViolation:
    """Two accesses to one location with an empty shared lockset."""

    location: str
    first: RaceAccess
    second: RaceAccess

    def describe(self) -> str:
        return (f"race on {self.location}: "
                f"{self.first.describe()} vs {self.second.describe()}")


class _LocationState:
    """Per-location lockset-algorithm state."""

    __slots__ = ("lockset", "threads", "write_seen", "last_by_thread",
                 "reported")

    def __init__(self, lockset: frozenset[str]) -> None:
        self.lockset = lockset
        self.threads: set[int] = set()
        self.write_seen = False
        self.last_by_thread: dict[int, RaceAccess] = {}
        self.reported = False


class RaceDetector:
    """Collects accesses and reports lockset-discipline violations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._state: dict[str, _LocationState] = {}
        self._next_uid = 0
        self.violations: list[RaceViolation] = []
        self.accesses = 0

    # -- lock tracking ---------------------------------------------------
    def _held(self) -> set[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = set()
        return held

    def on_acquire(self, name: str) -> None:
        self._held().add(name)

    def on_release(self, name: str) -> None:
        self._held().discard(name)

    def tracked_lock(self, name: str) -> "TrackedLock":
        """A lock whose acquire/release updates this thread's lockset."""
        return TrackedLock(self, name)

    # -- access recording ------------------------------------------------
    def _stack(self) -> tuple[str, ...]:
        frames = traceback.extract_stack(limit=STACK_DEPTH + 4)
        out = [f"{f.filename}:{f.lineno} in {f.name}" for f in frames
               if not f.filename.endswith("analysis/race.py")]
        return tuple(out[-STACK_DEPTH:])

    def record(self, location: str, *, write: bool) -> None:
        """Record one access to ``location`` from the current thread."""
        held = frozenset(self._held())
        stack = self._stack()
        thread_name = threading.current_thread().name
        with self._lock:
            uid = getattr(self._tls, "uid", None)
            if uid is None:
                uid = self._tls.uid = self._next_uid
                self._next_uid += 1
            access = RaceAccess(
                thread_id=uid,
                thread_name=thread_name,
                write=write,
                lockset=tuple(sorted(held)),
                stack=stack,
            )
            self.accesses += 1
            st = self._state.get(location)
            if st is None:
                st = self._state[location] = _LocationState(held)
            else:
                st.lockset = st.lockset & held
            st.threads.add(access.thread_id)
            st.write_seen = st.write_seen or write
            if (not st.reported and len(st.threads) > 1 and st.write_seen
                    and not st.lockset):
                other = self._conflicting(st, access)
                if other is not None:
                    st.reported = True
                    self.violations.append(
                        RaceViolation(location, other, access)
                    )
            st.last_by_thread[access.thread_id] = access

    @staticmethod
    def _conflicting(st: _LocationState,
                     access: RaceAccess) -> RaceAccess | None:
        """The best prior access to pair with: another thread, prefer writes."""
        others = [a for tid, a in sorted(st.last_by_thread.items())
                  if tid != access.thread_id]
        if not others:
            return None
        writes = [a for a in others if a.write]
        return (writes or others)[0]

    # -- reporting -------------------------------------------------------
    def report(self) -> tuple[RaceViolation, ...]:
        with self._lock:
            return tuple(self.violations)

    def summary(self) -> dict:
        """Structured record for obs / JSON surfaces."""
        with self._lock:
            return {
                "accesses": self.accesses,
                "locations": len(self._state),
                "violations": [asdict(v) for v in self.violations],
            }


class TrackedLock:
    """A ``threading.Lock`` wrapper feeding the detector's lockset."""

    __slots__ = ("_detector", "name", "_inner")

    def __init__(self, detector: RaceDetector, name: str) -> None:
        self._detector = detector
        self.name = name
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._detector.on_acquire(self.name)
        return got

    def release(self) -> None:
        self._detector.on_release(self.name)
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# ---------------------------------------------------------------------------
# global instrumentation hooks
# ---------------------------------------------------------------------------

def uninstall(detector: RaceDetector | None = None) -> None:
    """Clear the ShardedMap hook (only if it is ``detector``, when given)."""
    from repro.ppr.hashmap import ShardedMap

    if detector is None or ShardedMap._sanitizer is detector:
        ShardedMap._sanitizer = None


@contextmanager
def installed(detector: RaceDetector):
    """Context manager: install for the block, restore the previous hook."""
    from repro.ppr.hashmap import ShardedMap

    previous = ShardedMap._sanitizer
    ShardedMap._sanitizer = detector
    try:
        yield detector
    finally:
        ShardedMap._sanitizer = previous
