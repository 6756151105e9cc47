"""Engine generality — BFS, node2vec, FORA on the same storage layer.

Section 3.1: "our proposed PPR engine can be easily extended to other graph
processing algorithms, enabling efficient distributed computing for
localized C++ graph operators."  This bench exercises that claim with three
algorithms sharing the identical storage/RPC substrate:

* level-synchronous distributed BFS (the paper's other named frontier
  algorithm);
* second-order node2vec walks (the harder random-walk workload);
* FORA hybrid SSPPR (push + Monte-Carlo, the paper's reference [25]).
"""

import time

import numpy as np

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine.cluster import SimCluster
from repro.ppr import fora_ssppr, power_iteration_ssppr, topk_precision
from repro.storage import DistGraphStorage
from repro.walk import distributed_bfs, distributed_node2vec_walk, single_machine_bfs

DATASET = "products"
N_MACHINES = 4


def run_bfs(sharded) -> dict:
    cluster = SimCluster(sharded, engine_config(N_MACHINES))
    name = "compute:0.0"
    g = DistGraphStorage(cluster.rrefs, 0, name)
    source_id = int(sharded.base[0])  # the first core node of shard 0

    def driver():
        proc = cluster.scheduler.processes[name]
        state = yield from distributed_bfs(g, proc, source_id)
        return state

    cluster.spawn_compute(0, 0, driver())
    makespan = cluster.run()
    state = cluster.scheduler.result_of(name)
    source = int(sharded.shards[0].core_global[0])
    expected = single_machine_bfs(sharded.graph, source)
    got = state.dense_depths(sharded, sharded.graph.n_nodes)
    return {
        "Algorithm": "distributed BFS",
        "Work": f"{len(state.map)} nodes reached",
        "Virtual time (s)": round(makespan, 4),
        "Correct": bool(np.array_equal(got, expected)),
    }


def run_node2vec(sharded) -> dict:
    scale = bench_scale()
    cluster = SimCluster(sharded, engine_config(N_MACHINES))
    name = "compute:0.0"
    g = DistGraphStorage(cluster.rrefs, 0, name)
    roots = np.arange(sharded.base[0],
                      sharded.base[0] + scale.walk_roots // 2)

    def driver():
        proc = cluster.scheduler.processes[name]
        summary = yield from distributed_node2vec_walk(
            g, proc, roots, sharded, 8, p=0.5, q=2.0, seed=71
        )
        return summary

    cluster.spawn_compute(0, 0, driver())
    makespan = cluster.run()
    summary = cluster.scheduler.result_of(name)
    valid = all(
        summary[i, s] == summary[i, s + 1]
        or sharded.graph.has_arc(int(summary[i, s]), int(summary[i, s + 1]))
        for i in range(min(8, len(summary))) for s in range(8)
    )
    return {
        "Algorithm": "node2vec (p=0.5,q=2)",
        "Work": f"{len(roots)} walks x 8 steps",
        "Virtual time (s)": round(makespan, 4),
        "Correct": valid,
    }


def run_fora(sharded) -> dict:
    graph = sharded.graph
    source = int(sharded.shards[0].core_global[0])
    start = time.perf_counter()
    est = fora_ssppr(graph, source, push_epsilon=1e-3,
                     walks_per_unit=20_000, seed=73)
    elapsed = time.perf_counter() - start
    exact = power_iteration_ssppr(graph, source, alpha=0.462)
    return {
        "Algorithm": "FORA (push+MC)",
        "Work": "1 query",
        "Virtual time (s)": round(elapsed, 4),
        "Correct": bool(topk_precision(est, exact, 50) >= 0.8),
    }


# correctness against single-machine references holds at every scale
EXPECTATIONS = [
    {"kind": "all_true", "label": "all algorithms correct",
     "col": "Correct", "scales": "all"},
]


def test_engine_generality(benchmark):
    sharded = get_sharded(DATASET, N_MACHINES)
    rows, wall = common.timed(
        benchmark,
        lambda: [run_bfs(sharded), run_node2vec(sharded), run_fora(sharded)],
    )
    common.publish(
        "generality",
        f"Engine generality on {DATASET}: other algorithms on the same "
        "storage/RPC substrate",
        rows, key=("Algorithm",),
        deterministic=("Correct",),
        lower_is_better=("Virtual time (s)",),
        expectations=EXPECTATIONS, wall_s=wall,
        virtual_cols=("Virtual time (s)",),
    )
    for row in rows:
        benchmark.extra_info[row["Algorithm"]] = (
            f"t={row['Virtual time (s)']}s ok={row['Correct']}"
        )
