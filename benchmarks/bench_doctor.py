"""Trace analytics cost and verdicts (docs/observability.md).

Runs traced query batches of growing size, with the adaptive fetch
layer on and bypassed, and times ``diagnose(run)`` — the full causal
critical-path extraction plus report assembly — against each trace.

Two things are gated:

* **accounting** — every extracted path must be total-conserving
  (segments partition the query span exactly) and fit inside the run's
  makespan, at every trace size and fetch configuration;
* **the fetch-layer story read off the path** — the share of critical
  seconds spent waiting on remote fetches (network + server execution)
  must *shrink* when the fetch layer is enabled: cached and coalesced
  rows never reach the wire, so the path re-attributes that time to
  local compute.

Analyze wall time is reported per trace size (the doctor is pure
post-processing — its cost must stay far below the run it explains)
but not gated: it is host-measured, not virtual.
"""

import dataclasses
import time

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine import GraphEngine, RunRequest
from repro.engine.query import sample_sources
from repro.obs.analysis import diagnose
from repro.ppr import PPRParams

PARAMS = PPRParams(alpha=0.462, epsilon=1e-5)
N_MACHINES = 2


def run_case(engine, sources, *, label) -> dict:
    run = engine.run(RunRequest(
        sources=sources, params=PARAMS, trace=True, timeline=0.05,
    ))
    t0 = time.perf_counter()
    report = diagnose(run)
    analyze_ms = (time.perf_counter() - t0) * 1e3
    remote_s = (report.phase_totals.get("remote_fetch", 0.0)
                + report.phase_totals.get("serve", 0.0))
    share = remote_s / report.path_total_s if report.path_total_s else 0.0
    return {
        "Case": label,
        "Queries": len(sources),
        "Spans": len(run.obs.tracer),
        "Analyze (ms)": round(analyze_ms, 2),
        "Paths": report.n_paths,
        "Path total (s)": round(report.path_total_s, 4),
        "Remote share %": round(share * 100, 2),
        "Conserving": report.conservation_error <= 1e-9,
        "Within makespan": report.paths_within_makespan,
        "Complete": not report.trace_incomplete,
    }


EXPECTATIONS = [
    {"kind": "all_true", "label": "paths are total-conserving everywhere",
     "col": "Conserving", "scales": "all"},
    {"kind": "all_true", "label": "every path fits inside the makespan",
     "col": "Within makespan", "scales": "all"},
    {"kind": "all_true", "label": "no trace hit the span cap",
     "col": "Complete", "scales": "all"},
    {"kind": "per_row", "label": "one critical path per query",
     "left_col": "Paths", "op": "eq", "right_col": "Queries",
     "scales": "all"},
    {"kind": "cmp",
     "label": "fetch layer shrinks the remote-fetch path share",
     "left": {"col": "Remote share %", "where": {"Case": "fetch-on"}},
     "op": "lt",
     "right": {"col": "Remote share %", "where": {"Case": "fetch-off"}},
     "scales": "all"},
    {"kind": "cmp", "label": "bigger batches record bigger traces",
     "left": {"col": "Spans", "where": {"Case": "fetch-on 2x"}},
     "op": "gt",
     "right": {"col": "Spans", "where": {"Case": "fetch-on"}},
     "scales": "all"},
]


def test_doctor_analytics(benchmark):
    scale = bench_scale()
    sharded = get_sharded("products", N_MACHINES)
    engine = GraphEngine(sharded.graph, engine_config(N_MACHINES),
                         sharded=sharded)
    # the fetch layer bypassed: same shards, a sibling engine's config
    bypassed = GraphEngine(sharded.graph, dataclasses.replace(
        engine.config, fetch_split=False, fetch_cache_bytes=0),
        sharded=sharded)
    sources = sample_sources(sharded, scale.queries, seed=29)
    sources_2x = sample_sources(sharded, 2 * scale.queries, seed=29)

    def run_all():
        return [
            run_case(engine, sources, label="fetch-on"),
            run_case(bypassed, sources, label="fetch-off"),
            run_case(engine, sources_2x, label="fetch-on 2x"),
        ]

    rows, wall = common.timed(benchmark, run_all)
    common.publish(
        "doctor",
        "Critical-path analytics: analyze cost and fetch-layer path share "
        f"(ogbn-products, {N_MACHINES} machines)",
        rows, key=("Case",),
        deterministic=("Queries", "Paths", "Conserving", "Within makespan",
                       "Complete"),
        lower_is_better=("Analyze (ms)", "Remote share %"),
        expectations=EXPECTATIONS, wall_s=wall,
        virtual_cols=("Path total (s)",),
    )
    for row in rows:
        benchmark.extra_info[row["Case"]] = (
            f"spans={row['Spans']} analyze_ms={row['Analyze (ms)']}"
        )
