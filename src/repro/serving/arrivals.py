"""Seeded open-loop arrival workloads for the serving layer.

Serving experiments need *open-loop* load: arrivals keep coming at their
scheduled virtual times whether or not the engine has kept up, which is
what exposes queueing, admission rejections, and SLO misses (a
closed-loop driver would politely self-throttle and hide all three).

Both generators are pure functions of their seed.  Every random draw
happens in a fixed per-arrival order from a single
:func:`~repro.utils.rng.rng_from_seed` stream — inter-arrival gap, then
tenant, then source vertex, then query kind — so one seed produces one
byte-for-byte identical :class:`ArrivalTrace` everywhere, which is what
lets the sim-vs-threads differential test compare admission decisions at
all.

* :func:`poisson_trace` — homogeneous Poisson process at ``rate``
  queries/virtual-second (exponential gaps).
* :func:`bursty_trace` — an on/off modulated Poisson process generated by
  Lewis–Shedler thinning: candidate arrivals are drawn at the burst-peak
  rate and accepted with probability ``intensity(t) / peak``, giving
  square-wave bursts that stress the bounded admission queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.serving.session import Query
from repro.serving.tenancy import TenantSpec
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_int, check_nonnegative


@dataclass(frozen=True)
class Arrival:
    """One scheduled query arrival on the virtual serving clock."""

    time: float
    tenant: str
    query: Query


@dataclass(frozen=True)
class ArrivalTrace:
    """An immutable, replayable open-loop workload."""

    name: str
    seed: int
    rate: float
    duration: float
    arrivals: tuple[Arrival, ...]

    def __len__(self) -> int:
        return len(self.arrivals)

    def __iter__(self):
        return iter(self.arrivals)

    def mix(self) -> dict[str, int]:
        """Arrival counts per tenant (workload sanity-checking)."""
        out: dict[str, int] = {}
        for a in self.arrivals:
            out[a.tenant] = out.get(a.tenant, 0) + 1
        return out


def _tenant_table(tenants: tuple[TenantSpec, ...]):
    """Names + cumulative arrival-mix weights for weighted tenant draws."""
    if not tenants:
        return ["default"], np.array([1.0])
    names = [t.name for t in tenants]
    w = np.array([t.weight for t in tenants], dtype=np.float64)
    return names, np.cumsum(w) / w.sum()


def _draw_arrival(rng, t, pool, names, cum, walk_frac, walk_length):
    """Tenant, source, and kind draws — one fixed order per arrival."""
    u = rng.random()
    tenant = names[min(int(np.searchsorted(cum, u, side="right")),
                       len(names) - 1)]
    source = int(pool[int(rng.integers(0, len(pool)))])
    kind = "walk" if (walk_frac > 0.0 and rng.random() < walk_frac) \
        else "sppr"
    return Arrival(time=t, tenant=tenant,
                   query=Query(source=source, kind=kind,
                               walk_length=walk_length))


def _check_workload(pool, rate, duration, walk_frac, seed) -> None:
    check_int("seed", seed)
    check_nonnegative("seed", seed)
    if len(pool) == 0:
        raise ValueError("source pool must be non-empty")
    # NaN and inf pass a bare sign test and then never end the draw loop
    for name, value in (("rate", rate), ("duration", duration)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if not 0.0 <= walk_frac <= 1.0:
        raise ValueError(f"walk_frac must be in [0, 1], got {walk_frac}")


def poisson_trace(pool, *, rate: float, duration: float, seed: int = 0,
                  tenants: tuple[TenantSpec, ...] = (),
                  walk_frac: float = 0.0,
                  walk_length: int = 8) -> ArrivalTrace:
    """Homogeneous Poisson arrivals at ``rate`` per virtual second.

    ``pool`` is the candidate source-vertex array (typically every global
    vertex id, or a hot subset); each arrival draws one uniformly.
    ``walk_frac`` of arrivals are random-walk queries, the rest SSPPR.
    """
    _check_workload(pool, rate, duration, walk_frac, seed)
    rng = rng_from_seed(seed)
    names, cum = _tenant_table(tenants)
    arrivals: list[Arrival] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            break
        arrivals.append(_draw_arrival(rng, t, pool, names, cum,
                                      walk_frac, walk_length))
    return ArrivalTrace(name="poisson", seed=seed, rate=rate,
                        duration=duration, arrivals=tuple(arrivals))


def bursty_trace(pool, *, rate: float, duration: float, seed: int = 0,
                 burst_factor: float = 8.0, period: float = 0.2,
                 duty: float = 0.25,
                 tenants: tuple[TenantSpec, ...] = (),
                 walk_frac: float = 0.0,
                 walk_length: int = 8) -> ArrivalTrace:
    """On/off modulated Poisson arrivals (square-wave bursts).

    During the first ``duty`` fraction of every ``period`` the intensity
    is ``rate * burst_factor``; outside it, ``rate``.  Generated by
    thinning a Poisson process at the peak intensity, so the draw order
    stays fixed (gap, accept, tenant, source, kind) and the trace is a
    pure function of the seed.
    """
    _check_workload(pool, rate, duration, walk_frac, seed)
    if not (math.isfinite(burst_factor) and burst_factor >= 1.0):
        raise ValueError(
            f"burst_factor must be finite and >= 1, got {burst_factor}")
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and > 0, got {period}")
    if not 0.0 < duty < 1.0:
        raise ValueError(f"duty must be in (0, 1), got {duty}")
    rng = rng_from_seed(seed)
    names, cum = _tenant_table(tenants)
    peak = rate * burst_factor
    arrivals: list[Arrival] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / peak))
        if t >= duration:
            break
        in_burst = (t % period) < duty * period
        intensity = peak if in_burst else rate
        if rng.random() >= intensity / peak:
            continue  # thinned away; candidate never becomes an arrival
        arrivals.append(_draw_arrival(rng, t, pool, names, cum,
                                      walk_frac, walk_length))
    return ArrivalTrace(name="bursty", seed=seed, rate=rate,
                        duration=duration, arrivals=tuple(arrivals))


#: CLI-facing registry of trace generators
TRACES = {"poisson": poisson_trace, "bursty": bursty_trace}
