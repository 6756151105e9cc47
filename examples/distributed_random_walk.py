"""Distributed random walks — the Figure 4 (right) workload.

Shows the storage layer's second primitive, ``sample_one_neighbor``:
walkers hop across shards, each step grouped into one batched RPC per
destination shard; the walk summary records global node IDs.

Also demonstrates dropping below the engine facade: building the cluster
by hand with the RPC layer (``SimCluster``-free), exactly like the paper's
code snippet — useful as a template for implementing *other* distributed
graph algorithms on this engine.

Run:  python examples/distributed_random_walk.py
"""

import numpy as np

from repro import EngineConfig, GraphEngine, load_dataset
from repro.engine.cluster import SimCluster
from repro.partition import MetisLitePartitioner
from repro.storage import DistGraphStorage, build_shards
from repro.walk import distributed_random_walk


def facade_walks() -> None:
    print("=== via the GraphEngine facade ===")
    graph = load_dataset("twitter", scale=0.03)
    engine = GraphEngine(graph, EngineConfig(n_machines=3))
    run = engine.run_random_walks(n_roots=12, walk_length=8)
    print(f"{len(run.roots)} walks of length 8: "
          f"{run.throughput:.0f} walks/s (virtual)")
    for row in run.walks[:4]:
        print("  walk:", " -> ".join(str(int(v)) for v in row))


def handmade_cluster_walks() -> None:
    print("\n=== hand-built cluster (Figure 4 style) ===")
    graph = load_dataset("twitter", scale=0.03)
    n_machines = 2
    sharded = build_shards(
        graph, MetisLitePartitioner(seed=0).partition(graph, n_machines)
    )
    cluster = SimCluster(sharded, EngineConfig(n_machines=n_machines))

    # one walker driver per machine, walking its own core nodes
    for m in range(n_machines):
        proc = cluster.worker(m, 0)
        g = DistGraphStorage(cluster.rrefs, m, proc.name)
        # drivers speak node ids: machine m owns [base[m], base[m + 1])
        roots = np.arange(sharded.base[m], sharded.base[m] + 6)
        cluster.spawn_compute(m, 0, distributed_random_walk(
            g, proc, roots, sharded, walk_length=5))

    makespan = cluster.run()
    print(f"makespan: {makespan * 1e3:.2f} ms virtual; "
          f"{cluster.remote_requests} cross-machine RPCs")
    for m, proc in enumerate(cluster.compute_processes()):
        summary = cluster.result_of(proc.name)
        hops_crossed = 0
        for row in summary:
            shards = sharded.owner_of(sharded.nodes_of(row))
            hops_crossed += int(np.count_nonzero(np.diff(shards) != 0))
        print(f"machine {m}: {summary.shape[0]} walks, "
              f"{hops_crossed} shard-crossing hops")


if __name__ == "__main__":
    facade_walks()
    handmade_cluster_walks()
