"""Multi-tenant admission control: quotas, priorities, a bounded queue.

The serving layer (docs/serving.md) fronts the engine with a single
bounded admission queue shared by every tenant.  Each tenant carries a
:class:`TenantSpec` — a scheduling priority, an optional pending-query
quota, and an arrival-mix weight used by the trace generators.  Every
``submit`` produces an :class:`AdmissionDecision`: admitted into the
queue, or rejected with a *typed* :class:`RejectReason` (the client can
distinguish back-pressure from quota enforcement and react differently).

Batch selection (:meth:`AdmissionController.take_batch`) is two-phase and
deterministic:

1. **guarantee round** — every tenant with queued work receives one slot,
   visited in ``(-priority, name)`` order, so priority admission can
   never starve an under-quota tenant as long as the batch capacity is at
   least the number of waiting tenants (the property pinned by
   ``tests/test_serving.py``);
2. **priority fill** — remaining capacity goes to queued entries in
   ``(-priority, submit sequence)`` order.

The returned batch is sorted by submit sequence, so the fused execution
order is the arrival order regardless of which phase selected an entry.
All state lives in plain insertion-ordered structures and all orderings
are explicit sorts: the same offer sequence always yields the same
decisions and the same batch compositions on either runtime.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ReproError


class RejectReason(enum.Enum):
    """Why an arrival was turned away at the front door."""

    #: the shared bounded queue is at capacity (global back-pressure)
    QUEUE_FULL = "queue_full"
    #: the tenant already has ``quota`` queries pending (per-tenant limit)
    QUOTA_EXCEEDED = "quota_exceeded"


class AdmissionRejected(ReproError):
    """Raised by ``QueryHandle.result()`` when the query was rejected."""

    def __init__(self, reason: RejectReason, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract.

    Parameters
    ----------
    name:
        Stable tenant identifier (metric labels, admission logs).
    priority:
        Scheduling priority — higher values are preferred in batch
        selection.  Priority never overrides the guarantee round: a
        low-priority tenant with queued work still gets one slot per
        batch.
    quota:
        Maximum *pending* (queued, not yet drained) queries for this
        tenant; further submissions are rejected with
        ``QUOTA_EXCEEDED``.  ``None`` = unlimited.
    weight:
        Relative arrival-mix weight used by the trace generators
        (:mod:`repro.serving.arrivals`); ignored by admission itself.
    """

    name: str
    priority: int = 0
    quota: int | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.quota is not None and self.quota <= 0:
            raise ValueError(
                f"tenant {self.name!r}: quota must be > 0 or None, "
                f"got {self.quota}"
            )
        if self.weight <= 0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be > 0, got {self.weight}"
            )


#: implicit spec for tenants never declared explicitly
DEFAULT_TENANT = TenantSpec("default")


@dataclass(frozen=True)
class AdmissionDecision:
    """The typed outcome of one ``offer`` — the serving layer's audit log.

    ``seq`` is the session-wide submit sequence number; the decision list
    is the unit compared by the sim-vs-threads differential test.
    """

    seq: int
    tenant: str
    admitted: bool
    reason: RejectReason | None = None

    def describe(self) -> str:
        verdict = "admit" if self.admitted else f"reject:{self.reason.value}"
        return f"#{self.seq} {self.tenant} {verdict}"


@dataclass
class _Entry:
    seq: int
    tenant: str
    item: object


@dataclass
class AdmissionController:
    """Bounded shared queue + per-tenant quotas + two-phase batch pick."""

    tenants: tuple[TenantSpec, ...] = ()
    queue_cap: int = 256
    batch_cap: int = 64
    _specs: dict[str, TenantSpec] = field(init=False)
    _queue: list[_Entry] = field(init=False, default_factory=list)
    _pending_per_tenant: dict[str, int] = field(init=False,
                                                default_factory=dict)

    def __post_init__(self) -> None:
        if self.queue_cap <= 0:
            raise ValueError(f"queue_cap must be > 0, got {self.queue_cap}")
        if self.batch_cap <= 0:
            raise ValueError(f"batch_cap must be > 0, got {self.batch_cap}")
        self._specs = {}
        for spec in self.tenants:
            if spec.name in self._specs:
                raise ValueError(f"duplicate tenant {spec.name!r}")
            self._specs[spec.name] = spec

    # -- tenancy ------------------------------------------------------------
    def spec(self, tenant: str) -> TenantSpec:
        """The tenant's spec; undeclared tenants get the default contract."""
        got = self._specs.get(tenant)
        if got is None:
            got = TenantSpec(tenant, priority=DEFAULT_TENANT.priority,
                             quota=DEFAULT_TENANT.quota,
                             weight=DEFAULT_TENANT.weight)
            self._specs[tenant] = got
        return got

    # -- queue --------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._queue)

    def offer(self, seq: int, tenant: str, item: object) -> AdmissionDecision:
        """Admit ``item`` into the bounded queue or reject it, typed."""
        spec = self.spec(tenant)
        if len(self._queue) >= self.queue_cap:
            return AdmissionDecision(seq, tenant, False,
                                     RejectReason.QUEUE_FULL)
        pending = self._pending_per_tenant.get(tenant, 0)
        if spec.quota is not None and pending >= spec.quota:
            return AdmissionDecision(seq, tenant, False,
                                     RejectReason.QUOTA_EXCEEDED)
        self._queue.append(_Entry(seq, tenant, item))
        self._pending_per_tenant[tenant] = pending + 1
        return AdmissionDecision(seq, tenant, True)

    def take_batch(self) -> list[object]:
        """Select up to ``batch_cap`` queued items for one fused batch.

        Guarantee round first (one slot per waiting tenant, highest
        priority visited first), then priority fill; the result is
        returned in submit-sequence order and removed from the queue.
        """
        if not self._queue:
            return []
        heads: dict[str, _Entry] = {}
        for entry in self._queue:  # FIFO per tenant: first hit is the head
            if entry.tenant not in heads:
                heads[entry.tenant] = entry
        order = sorted(heads,
                       key=lambda t: (-self.spec(t).priority, t))
        chosen: dict[int, _Entry] = {}
        for tenant in order:
            if len(chosen) >= self.batch_cap:
                break
            entry = heads[tenant]
            chosen[entry.seq] = entry
        if len(chosen) < self.batch_cap:
            rest = sorted(
                (e for e in self._queue if e.seq not in chosen),
                key=lambda e: (-self.spec(e.tenant).priority, e.seq),
            )
            for entry in rest[: self.batch_cap - len(chosen)]:
                chosen[entry.seq] = entry
        batch = sorted(chosen.values(), key=lambda e: e.seq)
        taken = set(chosen)
        self._queue = [e for e in self._queue if e.seq not in taken]
        for entry in batch:
            self._pending_per_tenant[entry.tenant] -= 1
        return [e.item for e in batch]
