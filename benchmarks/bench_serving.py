"""Serving under open-loop load: SLO attainment and goodput curves.

A rate sweep of seeded Poisson arrivals is replayed through a
multi-tenant session (docs/serving.md) on a 2-machine deployment, once
clean and once with chaos (injected message drops + retries) layered on
top.  Each drain advances the serving clock by what its deployments
cost — the engine's compute counts, its remote calls priced by the
network model, its timed-out attempts by the retry policy — and the
sweep crosses the capacity that sets, so the top loads saturate: the
bounded queue fills, typed rejections appear, latency climbs against
the SLO, and goodput flattens then falls — the overload curve the
ROADMAP north star asks for.

Every reported number is virtual-clock output — admission counts,
latency percentiles, attainment, goodput all derive from the trace seed
and the counts each deployment charges — so the whole table is exactly
reproducible and gated as deterministic.  A chaos row pays the policy's
full timeout for every dropped attempt, which is why its goodput trails
the clean series at the same load without ever changing a query result.
"""

import numpy as np

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine import GraphEngine
from repro.ppr import PPRParams
from repro.rpc import RetryPolicy
from repro.serving import (
    SessionConfig,
    TenantSpec,
    poisson_trace,
    serve_trace,
)
from repro.simt import FaultPlan

N_MACHINES = 2
DURATION = 0.2          # virtual seconds of arrivals per cell
SLO = 0.05              # virtual seconds per query
TRACE_SEED = 31
#: arrivals per virtual second; capacity is ~850 q/s at tiny scale and
#: ~1 200 q/s at small, so the last two loads sit past saturation
RATES = (100, 400, 3200, 12800)
SATURATED = (3200, 12800)
TENANTS = (TenantSpec("gold", priority=2, quota=24, weight=2.0),
           TenantSpec("free", priority=0, quota=6, weight=1.0))
PARAMS = PPRParams(alpha=0.462, epsilon=1e-5)
CHAOS_PLAN = FaultPlan(seed=13, drop_prob=0.05)
CHAOS_POLICY = RetryPolicy(max_attempts=6, timeout=5.0)


def run_cell(engine, rate: float, series: str) -> dict:
    trace = poisson_trace(np.arange(engine.graph.n_nodes), rate=rate,
                          duration=DURATION, seed=TRACE_SEED,
                          tenants=TENANTS, walk_frac=0.1)
    chaos = series == "chaos"
    config = SessionConfig(
        tenants=TENANTS, queue_cap=16, batch_cap=8, slo=SLO,
        params=PARAMS,
        fault_plan=CHAOS_PLAN if chaos else None,
        retry_policy=CHAOS_POLICY if chaos else None,
    )
    r = serve_trace(engine, trace, config)
    return {
        "Load (q/s)": rate,
        "Series": series,
        "Saturated": rate in SATURATED,
        "Arrivals": r.arrivals,
        "Admitted": r.admitted,
        "Rejected": r.rejected,
        "Queue full": r.rejected_queue_full,
        "Quota": r.rejected_quota,
        "Completed": r.completed,
        "Missed": r.missed,
        "p50 (ms)": round(r.p50 * 1e3, 4),
        "p95 (ms)": round(r.p95 * 1e3, 4),
        "p99 (ms)": round(r.p99 * 1e3, 4),
        "Attainment": round(r.attainment, 6),
        "Goodput (q/s)": round(r.goodput, 3),
        "Throughput (q/s)": round(r.throughput, 3),
    }


EXPECTATIONS = [
    # conservation: every arrival is admitted or rejected, and the open
    # loop drains everything it admits
    {"kind": "all_true", "label": "admitted + rejected == arrivals",
     "col": "Conserved", "scales": "all"},
    # the overload story: past saturation the bounded queue pushes back
    {"kind": "per_row", "label": "overload produces rejections",
     "left_col": "Rejected", "op": "gt", "right": 0,
     "where": {"Saturated": True}, "scales": "all"},
    {"kind": "per_row", "label": "light load admits everything",
     "left_col": "Rejected", "op": "eq", "right": 0,
     "where": {"Load (q/s)": RATES[0]}, "scales": "all"},
    # goodput rises to saturation then is monotone-nonincreasing past it
    {"kind": "monotone", "label": "goodput nonincreasing past saturation",
     "col": "Goodput (q/s)", "direction": "decreasing", "strict": False,
     "order_col": "Load (q/s)", "group_by": "Series",
     "where": {"Saturated": True}, "scales": "all"},
    {"kind": "cmp", "label": "saturated goodput beats light-load goodput",
     "left": {"col": "Goodput (q/s)",
              "where": {"Load (q/s)": SATURATED[0], "Series": "clean"}},
     "op": "gt",
     "right": {"col": "Goodput (q/s)",
               "where": {"Load (q/s)": RATES[0], "Series": "clean"}},
     "scales": "all"},
    # SLO pressure: attainment never improves as load grows
    {"kind": "monotone", "label": "attainment nonincreasing with load",
     "col": "Attainment", "direction": "decreasing", "strict": False,
     "order_col": "Load (q/s)", "group_by": "Series", "scales": "all"},
    {"kind": "per_row", "label": "attainment is a fraction",
     "left_col": "Attainment", "op": "le", "right": 1, "scales": "all"},
    # chaos pays a modeled retry cost, never a correctness cost
    {"kind": "cmp", "label": "chaos goodput <= clean at top load",
     "left": {"col": "Goodput (q/s)",
              "where": {"Load (q/s)": RATES[-1], "Series": "chaos"}},
     "op": "le",
     "right": {"col": "Goodput (q/s)",
               "where": {"Load (q/s)": RATES[-1], "Series": "clean"}},
     "scales": "all"},
    {"kind": "cmp", "label": "chaos p95 >= clean p95 at top load",
     "left": {"col": "p95 (ms)",
              "where": {"Load (q/s)": RATES[-1], "Series": "chaos"}},
     "op": "ge",
     "right": {"col": "p95 (ms)",
               "where": {"Load (q/s)": RATES[-1], "Series": "clean"}},
     "scales": "all"},
]


def test_serving_overload_curves(benchmark):
    bench_scale()  # scale shapes the graph only; load levels are fixed
    sharded = get_sharded("products", N_MACHINES)
    engine = GraphEngine(sharded.graph, engine_config(N_MACHINES),
                         sharded=sharded)

    def run_all():
        return [run_cell(engine, rate, series)
                for series in ("clean", "chaos") for rate in RATES]

    rows = common.run_once(benchmark, run_all)
    for row in rows:
        row["Conserved"] = (row["Admitted"] + row["Rejected"]
                            == row["Arrivals"]
                            and row["Admitted"] == row["Completed"])
    common.publish(
        "serving",
        "Multi-tenant serving under open-loop Poisson load on "
        f"ogbn-products ({N_MACHINES} machines, batched mode, "
        f"SLO {SLO * 1e3:g} ms)",
        rows, key=("Load (q/s)", "Series"),
        expectations=EXPECTATIONS,
    )
    top = rows[len(RATES) - 1]
    benchmark.extra_info["top_load"] = (
        f"goodput={top['Goodput (q/s)']} rejected={top['Rejected']} "
        f"attainment={top['Attainment']}"
    )
