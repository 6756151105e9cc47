"""One workload, one pass, one fresh process.

``python -m perfbench.worker '<json args>'`` is what ``perfbench run``
spawns (with the thread-count variables pinned to 1 and
``REPRO_CACHE_DIR`` pointing at ``perfbench/.cache``).  It prints one JSON
document as the last line of its standard output.

* End-to-end pass (``trace=0``): builds the deployment ``SETUP_REPS`` times
  (``setup_s`` is the median), runs the closed loop for ``seconds`` of wall
  time with tracing off, then the untimed output checks.
* Traced pass (``trace=1``): fixed work, so that counts repeat exactly.
  Runs the workload's ``trace_batches`` on a fresh deployment untraced,
  then the same batches on another fresh deployment with the wrappers of
  :mod:`perfbench.trace` installed; the median ratio of paired batch times
  is the tracing overhead.  Spans are written when the pass ends.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from repro import load_dataset

from perfbench import workloads
from perfbench.host import SAMPLE_EVERY_S, HostMeter
from perfbench.spec import END_TO_END, PER_LAYER, QUICK_BATCHES, \
    SETUP_PHASES, SETUP_REPS, WORKLOAD_BY_NAME
from perfbench.trace import ROOT_SPAN, SPAN_NAMES, Tracer

RESULTS_DIR = Path(__file__).resolve().parent / "results"
QUICK_SCALE = 0.04


def run_region(driver, dep, inputs, *, seconds, n_batches, tracer=None,
               meter=None) -> workloads.Tally:
    """The timed closed loop: batches until ``seconds`` or ``n_batches``.

    With a ``meter`` the host-calibration kernel runs between batches,
    every ``SAMPLE_EVERY_S`` of work; its own time is not part of the
    region's wall seconds.
    """
    tally = workloads.Tally()
    before = driver.snapshot(dep)
    first_sample = len(meter.samples) if meter is not None else 0

    def loop() -> None:
        start = perf_counter()
        kernel_s = 0.0
        sampled_at = -SAMPLE_EVERY_S
        i = 0
        while n_batches is None or i < n_batches:
            worked = perf_counter() - start - kernel_s
            if seconds is not None and worked >= seconds:
                break
            if meter is not None and worked - sampled_at >= SAMPLE_EVERY_S:
                kernel_s += meter.sample()
                sampled_at = worked
            if tracer is not None:
                tracer.mark_batch(i)
            if not driver.step(dep, inputs, i, tally):
                break
            i += 1
        tally.wall_s = perf_counter() - start - kernel_s

    gc.collect()
    cpu_start = process_time()
    if tracer is not None:
        with tracer:
            tracer.region(loop)
    else:
        loop()
    tally.cpu_s = process_time() - cpu_start
    if meter is not None:
        tally.host_factor = meter.factor(first_sample)
    driver.finish(dep, before, tally)
    return tally


def _deploy(driver, graph, inputs, seed, meter=None):
    """One fresh, warmed deployment; returns ``(dep, inputs, phases)``.

    With a ``meter`` the calibration kernel runs around both set-up steps
    (outside the phase timers).
    """
    def calibrate() -> None:
        if meter is not None:
            for _ in range(3):
                meter.sample()

    phases: dict[str, float] = {}
    calibrate()
    dep = driver.deploy(graph, phases)
    calibrate()
    if inputs is None:
        inputs = driver.make_inputs(graph, dep, seed)
    driver.warm(dep, inputs, phases)
    calibrate()
    return dep, inputs, phases


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _throughput(tally: workloads.Tally) -> float:
    return _ratio(tally.ops, tally.wall_s)


def end_to_end(driver, graph, args: dict):
    """Metrics of the untraced pass, plus the tally they came from."""
    quick = args["quick"]
    meter = HostMeter()
    dep = inputs = None
    setups: list[float] = []
    for _ in range(1 if quick else SETUP_REPS):
        dep = None
        gc.collect()  # the previous deployment must not inflate peak RSS
        first_sample = len(meter.samples)
        dep, inputs, phases = _deploy(driver, graph, inputs, args["seed"],
                                      meter)
        setups.append(sum(phases.values()) / meter.factor(first_sample))
    tally = run_region(
        driver, dep, inputs,
        seconds=None if quick else args["seconds"],
        n_batches=QUICK_BATCHES if quick else None,
        meter=meter,
    )
    driver.verify(dep, inputs, tally)
    # wall durations below are in seconds of the quiet sizing box
    host = tally.host_factor
    batch_ms = np.asarray(tally.batch_s) * 1e3 / host
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": _throughput(tally) * host,
        "batch_ms_p50": float(np.percentile(batch_ms, 50)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {m.name: {"value": values[m.name], "unit": m.unit}
               for m in END_TO_END}
    info = {"batches": len(batch_ms), "host_factor": host,
            "host_samples": len(meter.samples)}
    if len(batch_ms) >= 100:  # ten samples beyond the percentile
        info["batch_ms_p90"] = float(np.percentile(batch_ms, 90))
    return metrics, tally, info


def per_layer_values(tally, ledger: dict, phases: dict,
                     overhead_pct: float) -> dict[str, float]:
    """Every declared per-layer metric of one traced region."""
    sums = tally.sums
    queries = tally.sppr_queries
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        row = ledger.get(span, {"self_s": 0.0, "calls": 0})
        values[f"{span}.self_s"] = row["self_s"]
        values[f"{span}.calls"] = row["calls"]
    for phase in SETUP_PHASES:
        values[f"setup.{phase}_s"] = phases.get(phase, 0.0)
    for short, key in (("pushes", "ppr.pushes"), ("entries", "ppr.entries"),
                       ("iterations", "ppr.iterations"),
                       ("touched", "ppr.touched")):
        values[f"ppr.{short}_per_query"] = _ratio(sums[key], queries)
    values["hashmap.probe_rounds_per_query"] = _ratio(
        sums["hashmap.probe_rounds"], queries)
    values["hashmap.rehashes_per_query"] = _ratio(
        sums["hashmap.rehashes"], queries)
    values["ppr.l1_err_over_bound"] = tally.l1_over_bound
    for key in ("rpc.calls_local", "rpc.calls_remote", "rpc.response_bytes",
                "fetch.requests", "fetch.coalesced", "fetch.misses",
                "fetch.evictions", "fetch.bytes_saved", "serve.batches",
                "serve.rejected", "serve.slo_missed", "stream.staged_rows",
                "stream.refresh_pushes", "stream.refresh_corrections"):
        values[key] = sums[key]
    values["rpc.pool_hit_ratio"] = _ratio(sums["rpc.pool.hits"],
                                          sums["rpc.pool.requests"])
    rows = (sums["fetch.cache_hits"] + sums["fetch.halo_hits"]
            + sums["fetch.coalesced"] + sums["fetch.misses"])
    values["fetch.cache_hit_ratio"] = _ratio(sums["fetch.cache_hits"], rows)
    values["virtual.ops_per_s"] = _ratio(tally.ops, tally.virtual_s)
    for phase in ("push", "pop", "remote_fetch", "local_fetch"):
        values[f"virtual.{phase}_s"] = sums[f"virtual.{phase}_s"]
    values["serve.mean_batch_size"] = _ratio(sums["serve.batch_queries"],
                                             sums["serve.batches"])
    served = sums["serve.completed"] - sums["serve.slo_missed"]
    values["serve.virtual_goodput"] = _ratio(served, tally.virtual_s)
    values["stream.virtual_clock_s"] = (
        tally.virtual_s if sums["stream.staged_rows"] else 0.0)
    root = ledger[ROOT_SPAN]
    values["harness.trace_overhead_pct"] = overhead_pct
    values["harness.unattributed_s"] = root["self_s"]
    values["harness.cpu_over_wall"] = _ratio(tally.cpu_s, tally.wall_s)
    values["harness.spans"] = sum(r["calls"] for r in ledger.values())
    return values


def traced(driver, graph, args: dict):
    """Metrics of the fixed-work traced pass, plus its tally."""
    spec = driver.spec
    n_batches = QUICK_BATCHES if args["quick"] else spec.trace_batches
    dep, inputs, _ = _deploy(driver, graph, None, args["seed"])
    plain = run_region(driver, dep, inputs, seconds=None, n_batches=n_batches)
    dep = None
    gc.collect()
    dep, inputs, phases = _deploy(driver, graph, inputs, args["seed"])
    phases["load_dataset"] = args["load_dataset_s"]
    tracer = Tracer()
    tally = run_region(driver, dep, inputs, seconds=None,
                       n_batches=n_batches, tracer=tracer)
    driver.verify(dep, inputs, tally)
    tally.attempted += plain.attempted
    tally.fail(plain.failed, plain.failures)
    RESULTS_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(RESULTS_DIR / f"trace_{spec.name}.jsonl")
    ledger = tracer.ledger()
    # Both regions ran the same batches from the same fresh state, so the
    # batch times pair up; the median ratio shrugs off a slow host episode
    # that hits one region and not the other.
    overhead_pct = 100.0 * (float(np.median(
        np.asarray(tally.batch_s) / np.asarray(plain.batch_s))) - 1.0)
    values = per_layer_values(tally, ledger, phases, overhead_pct)
    metrics = {m.name: {"value": values[m.name], "unit": m.unit}
               for m in PER_LAYER}
    info = {
        "batches": len(tally.batch_s),
        "root_s": ledger[ROOT_SPAN]["total_s"],
        "ops_per_s_untraced": _throughput(plain),
        "ops_per_s_traced": _throughput(tally),
    }
    return metrics, tally, info


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    driver = workloads.make(WORKLOAD_BY_NAME[args["workload"]])
    start = perf_counter()
    graph = load_dataset(driver.spec.dataset,
                         scale=QUICK_SCALE if args["quick"] else 1.0)
    args["load_dataset_s"] = perf_counter() - start
    run_pass = traced if args["trace"] else end_to_end
    metrics, tally, info = run_pass(driver, graph, args)
    print(json.dumps({
        "workload": args["workload"], "seed": args["seed"],
        "trace": args["trace"], "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.failures[:5], "metrics": metrics, "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
