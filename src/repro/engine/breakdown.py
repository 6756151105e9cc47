"""Mapping raw timing categories onto the paper's breakdown phases.

Processes accumulate low-level categories while running (``local_call``,
``local_exec``, ``rpc_issue``, ``wait``, ``pop``, ``push``); Figure 6
and Table 3 report four phases:

* **local_fetch**  = binding-layer overhead + local handler execution;
* **remote_fetch** = request issue overhead + time blocked on remote
  futures (with overlap on, the blocked time shrinks because local work
  happens while requests are in flight);
* **push**         = the PPR operators' update time;
* **pop**          = activated-set retrieval (negligible for the hashmap
  engine, |V|-proportional for the tensor baseline).

Runs against a faulty deployment add a fifth phase, **crashed** — time a
computing process spent blocked on a call that ultimately failed with
:class:`~repro.errors.WorkerCrashedError`.  Before this category existed,
that time was silently folded into ``wait`` (inflating ``remote_fetch``
with outage time); the total is conserved either way, which
``tests/test_obs.py`` asserts.
"""

from __future__ import annotations

from repro.utils.timer import PHASES, TimeBreakdown


def phase_seconds(breakdown: TimeBreakdown) -> dict[str, float]:
    """Collapse a raw breakdown into the paper's four phases."""
    out = {}
    for phase, categories in PHASES.items():
        out[phase] = sum(breakdown.get(c) for c in categories)
    accounted = {c for cats in PHASES.values() for c in cats}
    out["other"] = sum(
        dt for cat, dt in breakdown.seconds.items() if cat not in accounted
    )
    return out


def aggregate_breakdowns(breakdowns: list[TimeBreakdown]) -> dict[str, float]:
    """Sum phase seconds across processes (the per-run totals the paper plots)."""
    total = TimeBreakdown()
    for bd in breakdowns:
        total.merge(bd)
    return phase_seconds(total)
