"""The sanctioned wall-clock reads, and the per-category time ledger.

No virtual clock reads the host (:mod:`repro.simt.compute`).  Wall time
is read only here — bench report timestamps and the CLI's progress
timer — so the REP001 lint rule allowlists one module.
:class:`TimeBreakdown` is the per-category accumulator behind the
Figure 6 and Table 3 breakdowns, charged by
:class:`repro.simt.process.ProcessClock`; :data:`PHASES` maps its
categories onto those figures' phases, for the aggregate breakdown
(:mod:`repro.engine.breakdown`) and the per-span critical paths
(:mod:`repro.obs.analysis.causal`) alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def wall_unix() -> float:
    """Current Unix time — the sanctioned wall-clock read.

    Deterministic code charges virtual seconds instead of reading clocks;
    the few places that legitimately need wall time (bench report
    timestamps, CLI progress timing) go through this shim so the REP001
    lint rule can allowlist one module rather than scattered call sites.
    """
    return time.time()


class Stopwatch:
    """Context-manager measuring a wall-clock interval via ``perf_counter``.

    Example
    -------
    >>> with Stopwatch() as sw:
    ...     _ = sum(range(1000))
    >>> sw.elapsed >= 0.0
    True
    """

    __slots__ = ("_start", "elapsed")

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start

    def restart(self) -> None:
        """Reset the start point; the next :meth:`lap` measures from here."""
        self._start = time.perf_counter()

    def lap(self) -> float:
        """Return seconds since construction/:meth:`restart` and restart."""
        now = time.perf_counter()
        out = now - self._start
        self._start = now
        return out


#: phase -> contributing low-level categories
PHASES: dict[str, tuple[str, ...]] = {
    "local_fetch": ("local_call", "local_exec"),
    "remote_fetch": ("rpc_issue", "wait"),
    "push": ("push",),
    "pop": ("pop",),
    "crashed": ("crashed",),
}


@dataclass
class TimeBreakdown:
    """Accumulated seconds per named category (e.g. ``local_fetch``).

    Used to regenerate the paper's runtime breakdowns.  Categories are
    created lazily on first charge.
    """

    seconds: dict[str, float] = field(default_factory=dict)

    def charge(self, category: str, dt: float) -> None:
        """Add ``dt`` seconds to ``category`` (negative charges rejected)."""
        if dt < 0.0:
            raise ValueError(f"negative charge {dt!r} for category {category!r}")
        self.seconds[category] = self.seconds.get(category, 0.0) + dt

    def total(self) -> float:
        """Total seconds across all categories."""
        return sum(self.seconds.values())

    def get(self, category: str) -> float:
        """Seconds charged to ``category`` (0.0 if never charged)."""
        return self.seconds.get(category, 0.0)

    def merge(self, other: "TimeBreakdown") -> None:
        """Add every category of ``other`` into this breakdown."""
        for cat, dt in other.seconds.items():
            self.charge(cat, dt)

    def as_dict(self) -> dict[str, float]:
        """A plain-dict copy, for reporting."""
        return dict(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{k}={v:.4g}s" for k, v in sorted(self.seconds.items()))
        return f"TimeBreakdown({parts})"
