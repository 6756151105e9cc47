"""``perfbench compare A.json B.json``: base vs new, one row per pairing.

Both files are ``perfbench run --out`` documents.  Every (workload,
end-to-end metric) gets a verdict against the metric's own bound:

* ``regressed``  — the new median is worse than the base median by more
  than the bound;
* ``unresolved`` — the spread across reps (interquartile range over the
  median, either side) is wider than the bound, so the medians cannot
  settle it — unless every new rep reads better than every base rep;
* ``ok``         — otherwise.

Counts declared exact are compared bit-for-bit and a difference is flagged
(between two runs of one commit it is a defect, between two commits it is
the change's work showing); noisy counts are only printed.  The exit code
is 1 when a metric regressed or more operations failed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from perfbench.spec import END_TO_END, EXACT_COUNTS, PER_LAYER


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(metric, base: dict, new: dict) -> tuple[float, str]:
    """``(new / base, verdict)`` for one end-to-end metric."""
    b, n = base["value"], new["value"]
    ratio = n / b if b else float("inf")
    higher = metric.better == "higher"
    worse_by = (b - n) / b if higher else (n - b) / b
    b_reps, n_reps = base.get("reps", [b]), new.get("reps", [n])
    if max(spread(b_reps), spread(n_reps)) > metric.bound:
        all_better = (min(n_reps) > max(b_reps) if higher
                      else max(n_reps) < min(b_reps))
        return ratio, "ok" if all_better else "unresolved"
    return ratio, "regressed" if worse_by > metric.bound else "ok"


def main(args) -> int:
    base_doc = json.loads(Path(args.base).read_text())
    new_doc = json.loads(Path(args.new).read_text())
    shared = [w for w in base_doc["workloads"] if w in new_doc["workloads"]]
    bad = 0
    print(f"{'workload':<16} {'metric':<20} {'base':>12} {'new':>12} "
          f"{'new/base':>9} {'bound':>6}  verdict")
    for workload in shared:
        base = base_doc["workloads"][workload].get("end_to_end")
        new = new_doc["workloads"][workload].get("end_to_end")
        if not (base and new):
            continue
        for metric in END_TO_END:
            b, n = base["metrics"][metric.name], new["metrics"][metric.name]
            ratio, word = verdict(metric, b, n)
            bad += word == "regressed"
            print(f"{workload:<16} {metric.name:<20} {b['value']:>12.5g} "
                  f"{n['value']:>12.5g} {ratio:>9.3f} {metric.bound:>6.2f}  "
                  f"{word}")
        if new["failed"] > base["failed"]:
            bad += 1
            print(f"{workload:<16} failed ops rose: {base['failed']} -> "
                  f"{new['failed']}")
    for workload in shared:
        base = base_doc["workloads"][workload].get("traced")
        new = new_doc["workloads"][workload].get("traced")
        if not (base and new):
            continue
        print(f"-- {workload}: counts (base -> new)")
        for metric in PER_LAYER:
            if metric.clock == "wall":
                continue
            b = base["metrics"][metric.name]["value"]
            n = new["metrics"][metric.name]["value"]
            if not (b or n):
                continue
            exact = metric.name in EXACT_COUNTS
            note = "noisy"
            if exact:
                note = "exact, equal" if b == n else "exact, DIFFERS"
            print(f"  {metric.name:<36} {b:>14.8g} -> {n:<14.8g} {note}")
    return 1 if bad else 0
