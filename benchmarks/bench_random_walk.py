"""Distributed random walk throughput (the Figure 4 right-panel workload).

The paper's introduction measures Random Walk as the contrast case: a
fixed-frontier algorithm that tensor operations already serve well (its
engine gained only 1.7x there, vs 83x+ for Forward Push).  This bench
reports the distributed walk throughput of our storage layer across
machine counts — the workload stresses ``sample_one_neighbor`` batching
rather than PPR operators.
"""

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine import GraphEngine

DATASET = "products"
WALK_LENGTH = 16
MACHINE_COUNTS = (2, 4)


def run_walks() -> list[dict]:
    scale = bench_scale()
    rows = []
    for k in MACHINE_COUNTS:
        sharded = get_sharded(DATASET, k)
        engine = GraphEngine(sharded.graph, engine_config(k),
                             sharded=sharded)
        run = engine.run_random_walks(n_roots=scale.walk_roots,
                                      walk_length=WALK_LENGTH, seed=59)
        rows.append({
            "Dataset": DATASET,
            "Machines": k,
            "Roots": len(run.roots),
            "Walk length": WALK_LENGTH,
            "Walks/s": round(run.throughput, 1),
            "Steps/s": round(run.throughput * WALK_LENGTH, 1),
        })
    return rows


# Walks are communication-bound: each step is one batched RPC round per
# machine pair, so adding machines adds server-side contention instead of
# useful parallelism (the compute per step is trivial).  Assert the runs
# stay within the same order of magnitude rather than a scaling win the
# workload cannot give.
EXPECTATIONS = [
    {"kind": "per_row", "label": "walks complete",
     "left_col": "Walks/s", "op": "gt", "right": 0, "scales": "all"},
    {"kind": "cmp", "label": "machine counts stay in one magnitude",
     "left": {"col": "Walks/s", "where": {"Machines": MACHINE_COUNTS[-1]}},
     "op": "gt",
     "right": {"col": "Walks/s", "where": {"Machines": MACHINE_COUNTS[0]}},
     "factor": 0.25, "scales": ["full"]},
]


def test_random_walk_throughput(benchmark):
    rows = common.run_once(benchmark, run_walks)
    common.publish(
        "random_walk",
        f"Distributed random walks on {DATASET} (length {WALK_LENGTH})",
        rows, key=("Dataset", "Machines"),
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[f"{row['Machines']}m"] = f"{row['Walks/s']} walks/s"
