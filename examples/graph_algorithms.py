"""Beyond PPR — other graph algorithms on the same engine.

The paper positions its engine as general infrastructure: "our proposed PPR
engine can be easily extended to other graph processing algorithms".  This
example runs three of them on one deployed cluster:

1. distributed BFS (hop distances from a source),
2. node2vec second-order biased walks,
3. FORA hybrid SSPPR (coarse Forward Push + Monte-Carlo refinement),

and cross-checks each against a single-machine reference.

Run:  python examples/graph_algorithms.py
"""

import numpy as np

from repro import EngineConfig, load_dataset
from repro.engine.cluster import SimCluster
from repro.partition import MetisLitePartitioner
from repro.ppr import fora_ssppr, power_iteration_ssppr, topk_precision
from repro.storage import DistGraphStorage, build_shards
from repro.walk import (
    distributed_bfs,
    distributed_node2vec_walk,
    single_machine_bfs,
)


def main() -> None:
    graph = load_dataset("friendster", scale=0.02)
    n_machines = 3
    print(f"friendster stand-in: {graph.n_nodes} nodes, "
          f"{graph.n_arcs // 2} edges, {n_machines} machines\n")
    sharded = build_shards(
        graph, MetisLitePartitioner(seed=0).partition(graph, n_machines)
    )

    # --- distributed BFS -------------------------------------------------
    cluster = SimCluster(sharded, EngineConfig(n_machines=n_machines))
    proc = cluster.worker(0, 0)
    g = DistGraphStorage(cluster.rrefs, 0, proc.name)
    source = int(sharded.shards[0].core_global[0])
    # drivers speak node ids; nodes_of / globals_of are the way in and out
    name = cluster.spawn_compute(
        0, 0, distributed_bfs(g, proc, int(sharded.nodes_of(source))))
    makespan = cluster.run()
    state = cluster.result_of(name)
    depths = state.dense_depths(sharded, graph.n_nodes)
    reference = single_machine_bfs(graph, source)
    reached = int((depths >= 0).sum())
    print(f"BFS from node {source}: reached {reached} nodes, "
          f"eccentricity {depths.max()}, {makespan * 1e3:.2f} ms virtual")
    print(f"  matches single-machine reference: "
          f"{np.array_equal(depths, reference)}")
    hist = np.bincount(depths[depths >= 0])
    print("  nodes per hop:", hist.tolist()[:8], "...")

    # --- node2vec walks ----------------------------------------------------
    cluster2 = SimCluster(sharded, EngineConfig(n_machines=n_machines))
    proc2 = cluster2.worker(0, 0)
    g2 = DistGraphStorage(cluster2.rrefs, 0, proc2.name)
    roots = sharded.nodes_of(sharded.shards[0].core_global[:6])
    cluster2.spawn_compute(0, 0, distributed_node2vec_walk(
        g2, proc2, roots, sharded, 8, p=0.25, q=4.0, seed=5))
    cluster2.run()
    walks = cluster2.result_of(name)
    print(f"\nnode2vec walks (p=0.25, q=4.0 — homophily-leaning):")
    for row in walks[:3]:
        print("  " + " -> ".join(str(int(v)) for v in row))

    # --- FORA hybrid SSPPR ----------------------------------------------------
    print("\nFORA hybrid SSPPR (coarse push eps=1e-3 + Monte-Carlo):")
    est = fora_ssppr(graph, source, push_epsilon=1e-3,
                     walks_per_unit=20_000, seed=7)
    exact = power_iteration_ssppr(graph, source, alpha=0.462)
    print(f"  mass: {est.sum():.6f}  "
          f"L1 vs exact: {np.abs(est - exact).sum():.4f}  "
          f"top-50 precision: {topk_precision(est, exact, 50):.2f}")


if __name__ == "__main__":
    main()
