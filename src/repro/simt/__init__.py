"""``repro.simt`` — deterministic discrete-event virtual-time runtime.

This package is the distributed substrate of the reproduction.  The paper
evaluates its engine by *simulating* a K-machine cluster on one large host
(Section 4.1: ``K x (P + 1)`` processes).  On a single-core box, real OS
processes cannot exhibit parallel speedup, so we go one step further and
account time virtually:

* every simulated process (SSPPR computing process, graph-storage server)
  owns a **virtual clock**;
* real compute (NumPy work on real shard data) is charged through one
  :class:`~repro.simt.compute.ComputeCostModel` over its counts, never timed on the host;
* network transfers are charged through an explicit :class:`NetworkModel`
  (per-request overhead + per-tensor wrapping cost + bytes/bandwidth +
  latency), calibrated to the TensorPipe behaviour the paper describes;
* a scheduler interleaves process coroutines in event order, so server
  contention, asynchronous overlap, and multi-machine parallelism all emerge
  with the correct shape.

Processes are plain Python generators that ``yield`` effects
(:class:`Charge`, :class:`Sleep`, :class:`Wait`, :class:`WaitAll`) and call
non-suspending methods (``charge_seconds``, ``compute``) directly on their
:class:`SimProcess` handle.
"""

from repro.simt.compute import COMPUTE
from repro.simt.events import Charge, Sleep, Wait, WaitAll
from repro.simt.faults import CrashWindow, FaultPlan
from repro.simt.futures import SimFuture
from repro.simt.network import NetworkModel
from repro.simt.process import SimProcess
from repro.simt.scheduler import Scheduler

__all__ = [
    "COMPUTE",
    "Charge",
    "CrashWindow",
    "FaultPlan",
    "NetworkModel",
    "Scheduler",
    "SimFuture",
    "SimProcess",
    "Sleep",
    "Wait",
    "WaitAll",
]
