"""Table 2 — SSPPR throughput of the three implementations.

Paper setup: 4 simulated machines, 3 computing processes each,
alpha = 0.462, epsilon = 1e-6; power iteration ("DGL SpMM") runs single-
machine at tol = 1e-10 and its throughput is multiplied by 4 (the paper's
idealized distribution).  Paper results (queries/second):

    dataset      DGL SpMM   PyTorch Tensor   PPR Engine
    products     1.676      11.92            981.7
    twitter      0.364      2.617            905.2
    friendster   0.236      1.202            1304.1
    papers       0.148      0.879            726.1

Shape expectations at reproduction scale: the implementation *ordering*
versus the tensor baseline is scale-dependent — on stand-ins ~1000x smaller
than the paper's graphs the dense tensor method's |V|-proportional terms
cost microseconds instead of milliseconds, so the hashmap engine's lead
over it only emerges as |V| grows (measured directly by
``bench_fig_scaling_crossover.py``; crossover lands around |V| ~ 2e5 and
the ratio widens with size toward the paper's 83-1085x at 2.5M-111M
nodes).  What must hold at any scale, and is asserted here: Forward Push
beats exact power iteration (the paper's 7.2x algorithmic claim), for both
Forward Push implementations.
"""

import time

from benchmarks import common
from benchmarks.common import (
    DATASET_NAMES,
    bench_scale,
    engine_config,
    get_sharded,
)
from repro.engine import GraphEngine, RunRequest
from repro.engine.query import sample_sources
from repro.ppr import PPRParams, power_iteration_ssppr
from repro.ppr.power_iteration import build_transition

PARAMS = PPRParams(alpha=0.462, epsilon=1e-6)
N_MACHINES = 4
PROCS = 3


def power_iteration_throughput(graph, sources) -> float:
    """Single-machine power iteration, idealized x4 (the paper's protocol)."""
    pt = build_transition(graph)
    start = time.perf_counter()
    for s in sources:
        power_iteration_ssppr(graph, int(s), alpha=PARAMS.alpha, pt=pt)
    elapsed = time.perf_counter() - start
    return len(sources) / elapsed * N_MACHINES


def run_dataset(name: str) -> dict:
    scale = bench_scale()
    sharded = get_sharded(name, N_MACHINES)
    engine = GraphEngine(sharded.graph, engine_config(N_MACHINES, PROCS),
                         sharded=sharded)
    sources = sample_sources(sharded, scale.queries, seed=11)
    # warm-up (the paper does 4 warm-up runs)
    engine.run(RunRequest(sources=sources[: max(2, len(sources) // 4)],
                       params=PARAMS))
    run_engine = engine.run(RunRequest(sources=sources, params=PARAMS))
    run_tensor = engine.run(RunRequest(
        sources=sources[: scale.queries_small], params=PARAMS, mode="tensor"
    ))
    pi_sources = sources[: max(2, scale.queries_small // 2)]
    thpt_pi = power_iteration_throughput(sharded.graph, pi_sources)
    return {
        "Dataset": name,
        "DGL SpMM": round(thpt_pi, 2),
        "PyTorch Tensor": round(run_tensor.throughput, 2),
        "PPR Engine": round(run_engine.throughput, 2),
        "Engine/SpMM": round(run_engine.throughput / thpt_pi, 1),
        "Tensor/SpMM": round(run_tensor.throughput / thpt_pi, 1),
    }


# The part of Table 2's ordering that holds at stand-in scale: both
# Forward Push implementations beat exact power iteration.
EXPECTATIONS = [
    {"kind": "per_row", "label": "engine beats power iteration",
     "left_col": "PPR Engine", "op": "gt", "right_col": "DGL SpMM",
     "scales": ["full"]},
    {"kind": "per_row", "label": "tensor beats power iteration",
     "left_col": "PyTorch Tensor", "op": "gt", "right_col": "DGL SpMM",
     "scales": ["full"]},
]


def test_table2_throughput(benchmark):
    rows = common.run_once(
        benchmark, lambda: [run_dataset(name) for name in DATASET_NAMES]
    )
    common.publish(
        "table2",
        "Table 2: SSPPR throughput (queries/s), 4 machines x 3 processes",
        rows, key=("Dataset",),
        ungated={
            "DGL SpMM": "power iteration is host-timed with perf_counter",
            "Engine/SpMM": "divides by the host-timed DGL SpMM",
            "Tensor/SpMM": "divides by the host-timed DGL SpMM",
        },
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Dataset"]] = (
            f"spmm={row['DGL SpMM']} tensor={row['PyTorch Tensor']} "
            f"engine={row['PPR Engine']}"
        )
