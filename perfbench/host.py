"""Host-speed calibration for the end-to-end timings.

The sizing box is a 2-core VM whose speed drifts: a fixed memory-bound
NumPy kernel takes +-13% between 3-second windows on an otherwise idle
machine, and whole minutes run 20-30% slow.  Two sets of ten identical
``perfbench`` runs taken half an hour apart had ``batch_ms_p50`` medians
36% apart on ``serve_mixed`` - more than any bound the contract allows.

So every end-to-end pass interleaves a small fixed kernel with the work it
times and divides its wall seconds by the host factor

    median(kernel seconds during the timed window) / REFERENCE_S

i.e. timings are reported in seconds of the quiet sizing box.  The kernel
has a NumPy half (random gather, scatter-add and sort over a few MB, like
the push operators) and a cache-resident interpreter half (a keyed ``min``
over a 3k-row dict, like the fetch cache's eviction), so that it slows
down the way the program does whether the host is short of memory
bandwidth or of cycles.  It touches nothing of the program, so no change
under ``src/`` can move it.  Measured with a memory-hungry neighbour
process switched on and off at random, six same-seed runs per workload,
the spread of ``ops_per_s`` fell from 4.3/11.8/11.4/5.9/16.5% raw to
3.8/6.3/4.3/4.3/10.9% calibrated (workloads in manifest order), and that
of ``batch_ms_p50`` from 4.6/18.9/13.8/5.1/10.4% to 3.6/13.7/2.4/2.6/12.7%.

The factor is reported in every run's ``info.host_factor``: multiply a
reported duration by it to get the raw wall seconds back.  In a process
with a large heap the kernel itself runs colder (about 1.2 on
``stream_updates``); that is a constant of the workload, not drift.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

#: kernel seconds between batches on the sizing box when it is quiet
REFERENCE_S = 0.022
#: wall seconds of timed work between two kernel samples (~4% overhead)
SAMPLE_EVERY_S = 0.4

_ARRAY_LEN = 400_000
_INDEX_LEN = 60_000
_TABLE_LEN = 3_000
_TABLE_SCANS = 30


def _row_key(item):
    return item[1], item[0]


class HostMeter:
    """Runs the calibration kernel on demand and remembers its timings."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(_ARRAY_LEN)
        self._index = rng.integers(0, _ARRAY_LEN, _INDEX_LEN)
        self._table = {i: float(i % 977) for i in range(_TABLE_LEN)}
        self.samples: list[float] = []

    def sample(self) -> float:
        """One kernel run; returns (and records) its wall seconds."""
        # the interpreter half allocates tuples; a collection triggered
        # here would cost in proportion to the *program's* heap
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            np.bincount(self._index, weights=self._values[self._index],
                        minlength=_ARRAY_LEN)
            np.unique(self._index)
            for _ in range(_TABLE_SCANS):
                min(self._table.items(), key=_row_key)
            seconds = perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(seconds)
        return seconds

    def factor(self, since: int = 0) -> float:
        """Host slowness over ``samples[since:]``; 1.0 = the quiet box."""
        return statistics.median(self.samples[since:]) / REFERENCE_S
