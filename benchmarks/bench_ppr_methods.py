"""The three PPR method families (Section 2.2.1) head to head.

Matrix-based (power iteration), local-update (Forward Push), and
Monte-Carlo (random walk with restart) on one graph: per-query time, L1
error, and top-50 precision against the power-iteration ground truth.
Reproduces the related-work narrative quantitatively: power iteration is
exact but pays O(|E|) per iteration; Forward Push terminates early with a
bounded error; Monte-Carlo is cheap per walk but noisy.
"""

import time

import numpy as np

from benchmarks import common
from benchmarks.common import get_graph
from repro.ppr import (
    PPRParams,
    forward_push_parallel,
    l1_error,
    monte_carlo_ssppr,
    power_iteration_ssppr,
    topk_precision,
)
from repro.ppr.power_iteration import build_transition

DATASET = "products"
N_SOURCES = 3
N_WALKS = 20_000


def run_methods() -> list[dict]:
    graph = get_graph(DATASET)
    pt = build_transition(graph)
    rng = np.random.default_rng(67)
    sources = rng.choice(np.flatnonzero(graph.out_degree() > 0),
                         size=N_SOURCES, replace=False)
    params = PPRParams()
    rows = []
    agg = {"power_iteration": [], "forward_push": [], "monte_carlo": []}
    exact_by_source = {}
    for s in sources:
        start = time.perf_counter()
        exact = power_iteration_ssppr(graph, int(s), alpha=params.alpha,
                                      pt=pt)
        agg["power_iteration"].append(
            (time.perf_counter() - start, 0.0, 1.0)
        )
        exact_by_source[int(s)] = exact

        start = time.perf_counter()
        push, _, _ = forward_push_parallel(graph, int(s), params)
        dt = time.perf_counter() - start
        agg["forward_push"].append(
            (dt, l1_error(push, exact), topk_precision(push, exact, 50))
        )

        start = time.perf_counter()
        mc = monte_carlo_ssppr(graph, int(s), alpha=params.alpha,
                               n_walks=N_WALKS, seed=int(s))
        dt = time.perf_counter() - start
        agg["monte_carlo"].append(
            (dt, l1_error(mc, exact), topk_precision(mc, exact, 50))
        )

    for method, triples in agg.items():
        times, errs, precs = zip(*triples)
        rows.append({
            "Method": method,
            "Time/query (ms)": round(1e3 * float(np.mean(times)), 1),
            "L1 error": float(f"{np.mean(errs):.3e}"),
            "Top-50 precision": round(float(np.mean(precs)), 3),
        })
    return rows


# Forward Push: faster than exact power iteration, near-exact top-k.
# Monte-Carlo: noticeably noisier than Forward Push at this budget.
EXPECTATIONS = [
    {"kind": "cmp", "label": "forward push beats power iteration",
     "left": {"col": "Time/query (ms)",
              "where": {"Method": "forward_push"}},
     "op": "lt",
     "right": {"col": "Time/query (ms)",
               "where": {"Method": "power_iteration"}},
     "scales": ["full"]},
    {"kind": "per_row", "label": "forward push near-exact top-k",
     "left_col": "Top-50 precision", "op": "ge", "right": 0.9,
     "where": {"Method": "forward_push"}, "scales": ["full"]},
    {"kind": "cmp", "label": "monte carlo noisier than push",
     "left": {"col": "L1 error", "where": {"Method": "monte_carlo"}},
     "op": "gt",
     "right": {"col": "L1 error", "where": {"Method": "forward_push"}},
     "scales": "all"},
]


def test_ppr_method_families(benchmark):
    rows = common.run_once(benchmark, run_methods)
    common.publish(
        "ppr_methods",
        f"PPR method families on {DATASET} (alpha=0.462; "
        f"MC = {N_WALKS} walks)",
        rows, key=("Method",),
        ungated={"Time/query (ms)": "host-timed with perf_counter"},
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Method"]] = (
            f"t={row['Time/query (ms)']}ms p@50={row['Top-50 precision']}"
        )
