"""Process-safe metrics: counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` exists per engine run (created by the
cluster :func:`~repro.engine.cluster.deploy` brings up, on either
runtime).  Every layer — drivers, the engine facade, and the RPC layer,
which publishes its per-call ledger as ``rpc.*`` once the run ends — writes
the *same* named instruments, so a run's counters are identical whether it
executed on the virtual-time scheduler or on real threads: the registry is
what the differential tests compare.

All instruments share one lock (``ThreadRuntime`` updates them from many OS
threads); on the single-threaded virtual-time scheduler the lock is
uncontended and costs one acquire per update.

Histograms use fixed bucket upper bounds so that merging registries and
computing percentiles is exact with respect to the bucket grid: a reported
``p99`` is the linear interpolation inside the bucket holding the rank-0.99
sample, clamped to the observed maximum.
"""

from __future__ import annotations

import bisect
import math
import threading

#: default histogram bucket upper bounds — a 1/2/5 ladder from 1 us to 10 s,
#: sized for virtual-time latencies (seconds)
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(-6, 1) for m in (1.0, 2.0, 5.0)
) + (10.0,)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative inc {n}")
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A last-write-wins float (e.g. a queue depth or makespan)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, v: float) -> None:
        with self._lock:
            self._value = float(v)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram with interpolated percentiles.

    ``buckets`` are increasing upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "overflow", "count", "sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, lock: threading.Lock,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or any(b <= a for a, b in zip(buckets, buckets[1:])):
            raise ValueError("buckets must be non-empty and increasing")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._lock = lock

    def observe(self, v: float) -> None:
        v = float(v)
        with self._lock:
            idx = bisect.bisect_left(self.buckets, v)
            if idx == len(self.buckets):
                self.overflow += 1
            else:
                self.counts[idx] += 1
            if self.count == 0:
                self._min = self._max = v
            else:
                self._min = min(self._min, v)
                self._max = max(self._max, v)
            self.count += 1
            self.sum += v

    @property
    def min(self) -> float:
        return self._min

    @property
    def max(self) -> float:
        return self._max

    def percentile(self, q: float) -> float:
        """The value at percentile ``q`` (0-100), bucket-interpolated."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count / 100))
        cum = 0
        for i, upper in enumerate(self.buckets):
            c = self.counts[i]
            cum += c
            if cum >= rank:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                frac = (rank - (cum - c)) / c
                return min(lower + frac * (upper - lower), self._max)
        return self._max  # rank falls into the overflow bucket

    def percentiles(self, q=(50, 95, 99)) -> dict[float, float]:
        return {float(p): self.percentile(p) for p in q}

    def merge(self, other: "Histogram") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bucket mismatch"
            )
        with self._lock:
            for i, c in enumerate(other.counts):
                self.counts[i] += c
            self.overflow += other.overflow
            if other.count:
                if self.count == 0:
                    self._min, self._max = other._min, other._max
                else:
                    self._min = min(self._min, other._min)
                    self._max = max(self._max, other._max)
            self.count += other.count
            self.sum += other.sum


class MetricsRegistry:
    """Named instruments, created lazily, updated under one shared lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._create_lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, name: str, kind: type, *args):
        # Instruments are only ever added, and one dict read is atomic, so
        # an existing one is found without the lock; only creation takes
        # it, re-checking so two racing creators build one instrument.
        inst = self._instruments.get(name)
        if inst is None:
            with self._create_lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = kind(name, self._lock, *args)
                    self._instruments[name] = inst
        if not isinstance(inst, kind):
            raise TypeError(
                f"metric {name!r} is a {type(inst).__name__}, "
                f"not a {kind.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(name, Histogram, buckets)

    # -- conveniences (the hot-path API) ------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, v: float) -> None:
        self.gauge(name).set(v)

    def observe(self, name: str, v: float) -> None:
        self.histogram(name).observe(v)

    def get(self, name: str):
        """The instrument registered under ``name`` (KeyError if absent)."""
        return self._instruments[name]

    def counters(self) -> dict[str, int]:
        """All counter values — the differential tests' comparison unit."""
        return {n: i.value for n, i in sorted(self._instruments.items())
                if isinstance(i, Counter)}

    def snapshot(self) -> dict[str, float | int]:
        """Flat stats dict: one scalar per counter/gauge, five per histogram."""
        out: dict[str, float | int] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if isinstance(inst, Counter):
                out[name] = inst.value
            elif isinstance(inst, Gauge):
                out[name] = inst.value
            else:
                assert isinstance(inst, Histogram)
                out[f"{name}.count"] = inst.count
                out[f"{name}.sum"] = inst.sum
                out[f"{name}.p50"] = inst.percentile(50)
                out[f"{name}.p95"] = inst.percentile(95)
                out[f"{name}.p99"] = inst.percentile(99)
                out[f"{name}.max"] = inst.max
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters add, gauges overwrite,
        histograms merge bucket-wise)."""
        for name, inst in other._instruments.items():
            if isinstance(inst, Counter):
                self.counter(name).inc(inst.value)
            elif isinstance(inst, Gauge):
                self.gauge(name).set(inst.value)
            else:
                assert isinstance(inst, Histogram)
                self.histogram(name, inst.buckets).merge(inst)
