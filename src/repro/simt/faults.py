"""Deterministic fault injection for the simulated cluster.

A :class:`FaultPlan` describes what goes wrong on the wire and on the
machines: message loss and server crash/recover schedules — the two faults
any command, bench or example injects.  The RPC layer
(:class:`~repro.rpc.api.RpcContext`,
:class:`~repro.rpc.thread_runtime.ThreadRuntime`) consults the plan on
every attempt of a remote call.

Determinism is the design center.  Every stochastic decision (drop this
message?) is a pure function of ``(plan.seed, caller name, per-caller call
index, attempt number)`` — *not* of virtual time or arrival order.  Each
caller coroutine issues its calls in a fixed program order, so the decision
sequence is identical on the virtual-time
:class:`~repro.simt.scheduler.Scheduler` and on the real-thread
:class:`~repro.rpc.thread_runtime.ThreadRuntime`: the same plan replays the
same faults on both runtimes, and twice in a row on either.

Crash windows are expressed in *virtual* seconds and are only meaningful
under the virtual-time scheduler (thread mode has no virtual clock and
ignores them).  A message sent to a crashed server is silently lost, exactly
like a network drop — the caller observes it as a timeout.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.utils.validation import check_nonnegative


def fault_roll(seed: int, *key) -> float:
    """Deterministic uniform in ``[0, 1)`` keyed by ``(seed, *key)``.

    Stable across processes and platforms (BLAKE2b of the key's repr), so a
    seeded plan replays identically everywhere.
    """
    data = repr((int(seed),) + key).encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class CrashWindow:
    """One server outage: down during ``[crash_at, recover_at)`` virtual s."""

    server: str
    crash_at: float
    recover_at: float = math.inf

    def __post_init__(self) -> None:
        if not self.server:
            raise ValueError("CrashWindow.server must be a worker name")
        check_nonnegative("crash_at", self.crash_at)
        if self.recover_at <= self.crash_at:
            raise ValueError(
                f"recover_at ({self.recover_at}) must be > "
                f"crash_at ({self.crash_at})"
            )

    def covers(self, t: float) -> bool:
        return self.crash_at <= t < self.recover_at


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of injected faults.

    Parameters
    ----------
    seed:
        Seeds every stochastic decision; two runs with the same plan see the
        same faults.
    drop_prob:
        Probability that one request attempt is lost in the network (the
        caller sees a timeout and, with a retry policy, retransmits).
    crashes:
        Server outage windows (virtual time).  Messages to a crashed server
        vanish; with retries and a recovery inside the retry horizon the
        call eventually succeeds.
    """

    seed: int = 0
    drop_prob: float = 0.0
    crashes: tuple[CrashWindow, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(
                f"drop_prob must be in [0, 1], got {self.drop_prob}")
        object.__setattr__(self, "crashes", tuple(self.crashes))

    # -- queries ------------------------------------------------------------
    def is_empty(self) -> bool:
        """Whether the plan injects nothing (it then needs no retries)."""
        return self.drop_prob == 0.0 and not self.crashes

    def roll_drop(self, caller: str, call_index: int, attempt: int) -> bool:
        """Whether this attempt's request is lost in the network."""
        if self.drop_prob <= 0.0:
            return False
        return fault_roll(self.seed, "drop", caller, call_index,
                          attempt) < self.drop_prob

    def is_crashed(self, server: str, t: float) -> bool:
        """Whether ``server`` is down at virtual time ``t``."""
        return any(w.server == server and w.covers(t) for w in self.crashes)
