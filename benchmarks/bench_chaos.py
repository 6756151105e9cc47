"""Chaos smoke benchmark — fault-injection overhead and resilience.

Three runs of the same query batch:

* ``clean``       — no fault plan; exercises the zero-overhead fast path
  (an empty plan must cost nothing: same dispatch code as pre-fault
  builds);
* ``drop 5%``     — 5% message loss with retries; throughput dips but
  every query completes exactly;
* ``crash+skip``  — one storage server down for the whole run under
  ``skip_remote`` degradation; the batch survives with bounded accuracy
  loss instead of failing.

Shape expectations: the clean run's counters are all zero; the lossy run
retries (retries == dropped messages when every drop is retransmitted and
eventually lands); the crashed run degrades some queries and writes off a
small residual mass.
"""

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine import GraphEngine, RunRequest
from repro.engine.query import sample_sources
from repro.ppr import DegradationMode, PPRParams
from repro.rpc import RetryPolicy
from repro.simt import CrashWindow, FaultPlan

CHAOS_PARAMS = PPRParams(alpha=0.462, epsilon=1e-5)
N_MACHINES = 2

# Fault counters are replayable (FaultPlan decisions are order-
# independent — the differential tests prove it, and virtual time is
# modeled, so which attempts a crash window swallows replays too): every
# claim gates at every scale.
EXPECTATIONS = [
    {"kind": "per_row", "label": "absent plan means zero fault-layer work",
     "left_col": "Retries", "op": "eq", "right": 0,
     "where": {"Case": "clean"}, "scales": "all"},
    {"kind": "per_row", "label": "clean run drops nothing",
     "left_col": "Dropped", "op": "eq", "right": 0,
     "where": {"Case": "clean"}, "scales": "all"},
    {"kind": "per_row", "label": "5% loss causes retransmissions",
     "left_col": "Retries", "op": "gt", "right": 0,
     "where": {"Case": "drop 5%"}, "scales": "all"},
    {"kind": "per_row", "label": "lossy run still completes every query",
     "left_col": "Degraded", "op": "eq", "right": 0,
     "where": {"Case": "drop 5%"}, "scales": "all"},
    {"kind": "per_row", "label": "dead server degrades instead of killing",
     "left_col": "Degraded", "op": "gt", "right": 0,
     "where": {"Case": "crash+skip"}, "scales": "all"},
    {"kind": "per_row", "label": "degradation writes off residual mass",
     "left_col": "Abandoned mass", "op": "gt", "right": 0,
     "where": {"Case": "crash+skip"}, "scales": "all"},
]


def run_case(engine, sources, label: str, request: RunRequest) -> dict:
    run = engine.run(request)
    return {
        "Case": label,
        "q/s": round(run.throughput, 1),
        "Total (s)": round(run.makespan, 4),
        "Retries": run.retries,
        "Timeouts": run.timeouts,
        "Dropped": run.dropped_messages,
        "Degraded": run.degraded_queries,
        "Abandoned mass": round(run.abandoned_mass, 6),
    }


def test_chaos_smoke(benchmark):
    scale = bench_scale()
    sharded = get_sharded("friendster", N_MACHINES)
    engine = GraphEngine(sharded.graph, engine_config(N_MACHINES),
                         sharded=sharded)
    sources = sample_sources(sharded, scale.queries_small, seed=13)
    policy = RetryPolicy(max_attempts=6, timeout=0.05)
    cases = (
        ("clean", RunRequest(sources=sources, params=CHAOS_PARAMS)),
        ("drop 5%", RunRequest(
            sources=sources, params=CHAOS_PARAMS,
            fault_plan=FaultPlan(seed=7, drop_prob=0.05),
            retry_policy=policy,
        )),
        ("crash+skip", RunRequest(
            sources=sources, params=CHAOS_PARAMS,
            fault_plan=FaultPlan(seed=7, crashes=(
                CrashWindow(server="server:1", crash_at=0.0),
            )),
            retry_policy=RetryPolicy(max_attempts=2, timeout=0.01),
            degradation=DegradationMode.SKIP_REMOTE,
        )),
    )

    def run_all():
        return [run_case(engine, sources, label, req)
                for label, req in cases]

    rows = common.run_once(benchmark, run_all)
    common.publish(
        "chaos",
        "Chaos smoke: fault injection on Friendster "
        f"({N_MACHINES} machines, eps={CHAOS_PARAMS.epsilon:g})",
        rows, key=("Case",),
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Case"]] = (
            f"qps={row['q/s']} retries={row['Retries']} "
            f"degraded={row['Degraded']}"
        )
