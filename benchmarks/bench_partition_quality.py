"""Ablation — partitioner quality and its effect on remote traffic.

The paper attributes much of the engine's efficiency to METIS min-cut
partitioning plus halo caching: "most of the nodes visited by the Forward
Push algorithm are locally available via shared memory".  This bench
quantifies that design choice: edge-cut fraction and the engine's measured
remote-call share under our multilevel partitioner vs. the random / hash /
BFS baselines.
"""

from benchmarks import common
from benchmarks.common import bench_scale, get_graph
from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.partition import (
    BfsPartitioner,
    HashPartitioner,
    MetisLitePartitioner,
    RandomPartitioner,
    edge_cut_fraction,
)
from repro.ppr import PPRParams
from repro.storage import build_shards

DATASET = "products"
N_MACHINES = 4

PARTITIONERS = (
    ("metis_lite", lambda: MetisLitePartitioner(seed=0)),
    ("bfs", lambda: BfsPartitioner(seed=0)),
    ("hash", lambda: HashPartitioner()),
    ("random", lambda: RandomPartitioner(seed=0)),
)


def run_partitioner(name: str, factory) -> dict:
    scale = bench_scale()
    graph = get_graph(DATASET)
    result = factory().partition(graph, N_MACHINES)
    sharded = build_shards(graph, result, seed=0)
    cfg = EngineConfig(n_machines=N_MACHINES, partitioner=factory())
    engine = GraphEngine(graph, cfg, sharded=sharded)
    run = engine.run(RunRequest(n_queries=scale.queries_small, seed=37,
                             params=PPRParams()))
    remote_share = run.remote_requests / max(
        run.remote_requests + run.local_calls, 1
    )
    return {
        "Partitioner": name,
        "Edge cut": round(edge_cut_fraction(graph, result), 3),
        "Remote call share": round(remote_share, 3),
        "Throughput (q/s)": round(run.throughput, 1),
    }


# min-cut partitioning slashes both the static cut and the dynamic
# remote traffic relative to random placement, and the BFS baseline sits
# in between on cut quality — all deterministic (seeded partitioners,
# RPC counters), but the margins assume full-size stand-ins
EXPECTATIONS = [
    {"kind": "cmp", "label": "min-cut slashes the edge cut",
     "left": {"col": "Edge cut", "where": {"Partitioner": "metis_lite"}},
     "op": "lt",
     "right": {"col": "Edge cut", "where": {"Partitioner": "random"}},
     "factor": 0.3, "scales": ["full"]},
    {"kind": "cmp", "label": "min-cut cuts dynamic remote traffic",
     "left": {"col": "Remote call share",
              "where": {"Partitioner": "metis_lite"}},
     "op": "lt",
     "right": {"col": "Remote call share",
               "where": {"Partitioner": "random"}},
     "scales": ["full"]},
    {"kind": "cmp", "label": "BFS baseline sits in between",
     "left": {"col": "Edge cut", "where": {"Partitioner": "metis_lite"}},
     "op": "le",
     "right": {"col": "Edge cut", "where": {"Partitioner": "bfs"}},
     "factor": 1.05, "scales": ["full"]},
]


def test_partition_quality(benchmark):
    rows = common.run_once(
        benchmark, lambda: [run_partitioner(n, f) for n, f in PARTITIONERS]
    )
    common.publish(
        "partition_quality",
        f"Partitioner ablation on {DATASET} ({N_MACHINES} shards)",
        rows, key=("Partitioner",),
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Partitioner"]] = (
            f"cut={row['Edge cut']} remote={row['Remote call share']}"
        )
