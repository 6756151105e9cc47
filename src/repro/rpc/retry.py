"""Timeout / retry / backoff policy for remote calls.

Real distributed GNN systems (DistDGL's RPC layer, TensorPipe transports)
retransmit on loss because remote calls fail or lag; this module gives the
simulated RPC layer the same semantics.  A :class:`RetryPolicy` attached to
an :class:`~repro.rpc.api.RpcContext` (or
:class:`~repro.rpc.thread_runtime.ThreadRuntime`) makes every remote call:

* expire after ``timeout`` seconds without a reply (backed by scheduler
  timers in virtual time);
* retransmit up to ``max_attempts`` times total, waiting an exponentially
  growing backoff (:meth:`RetryPolicy.backoff_delay`) between attempts;
* raise :class:`~repro.errors.RpcTimeoutError` (or
  :class:`~repro.errors.WorkerCrashedError` when the target was inside a
  crash window) to the waiting caller once the budget is exhausted.

Backoff jitter is *deterministic*: it is derived from the same seeded hash
as :mod:`repro.simt.faults` decisions, so a faulty run replays with
identical timings and counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simt.faults import fault_roll
from repro.utils.validation import check_positive

#: The backoff schedule.  After failed attempt ``n`` a call waits
#: ``min(MAX_BACKOFF, BACKOFF_BASE * BACKOFF_FACTOR**(n-1))`` seconds times
#: a deterministic factor in ``[1, 1 + JITTER]``.  Constants, not policy
#: fields: nothing ever set them.
BACKOFF_BASE = 0.002
BACKOFF_FACTOR = 2.0
MAX_BACKOFF = 0.1
JITTER = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Per-call timeout and retransmission budget.

    Parameters
    ----------
    max_attempts:
        Total tries per logical call (first send + retransmissions).
    timeout:
        Virtual seconds to wait for each attempt's reply.  The default is
        generous relative to the network model's round trips (~100 us), so
        a healthy cluster never times out spuriously.
    """

    max_attempts: int = 3
    timeout: float = 0.05

    def __post_init__(self) -> None:
        check_positive("max_attempts", self.max_attempts)
        check_positive("timeout", self.timeout)

    def backoff_delay(self, attempt: int, *, seed: int = 0,
                      caller: str = "", call_index: int = 0) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based).

        The jitter factor is keyed by (seed, caller, call, attempt).
        """
        raw = min(MAX_BACKOFF, BACKOFF_BASE * BACKOFF_FACTOR ** (attempt - 1))
        u = fault_roll(seed, "jitter", caller, call_index, attempt)
        return raw * (1.0 + JITTER * u)
