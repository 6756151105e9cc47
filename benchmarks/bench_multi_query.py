"""Extension ablation — inter-query RPC batching (MultiSSPPR).

The paper batches RPCs within one query's iteration; this extension shares
each iteration's per-shard fetch across a whole batch of queries advanced
in lockstep (Section 3.1's production setting).  Measures throughput and
RPC counts for the sequential engine vs the multi-query engine on identical
query sets.
"""

import numpy as np

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine import GraphEngine, RunRequest
from repro.engine.query import sample_sources
from repro.ppr import PPRParams

DATASETS = ("products", "twitter")
N_MACHINES = 4
PARAMS = PPRParams()


def run_dataset(name: str) -> dict:
    scale = bench_scale()
    sharded = get_sharded(name, N_MACHINES)
    engine = GraphEngine(sharded.graph, engine_config(N_MACHINES),
                         sharded=sharded)
    sources = sample_sources(sharded, scale.queries, seed=61)
    seq = engine.run(RunRequest(sources=sources, params=PARAMS))
    bat = engine.run(RunRequest(sources=sources, params=PARAMS,
                                mode="batched"))
    return {
        "Dataset": name,
        "Queries": len(sources),
        "Seq (q/s)": round(seq.throughput, 1),
        "Batched (q/s)": round(bat.throughput, 1),
        "Speedup": round(bat.throughput / seq.throughput, 2),
        "Seq RPCs": seq.remote_requests,
        "Batched RPCs": bat.remote_requests,
        "RPC reduction":
            round(seq.remote_requests / max(bat.remote_requests, 1), 1),
    }


# lockstep advancement shares per-shard fetches across the batch: the RPC
# count must fall without giving back the throughput win.  At tiny scale
# a 4-query batch can already be fetch-minimal (counts tie), so tiny runs
# only require "never more".
EXPECTATIONS = [
    {"kind": "per_row", "label": "batching never adds RPCs",
     "left_col": "Batched RPCs", "op": "le", "right_col": "Seq RPCs",
     "scales": "all"},
    {"kind": "per_row", "label": "batching reduces RPC count",
     "left_col": "Batched RPCs", "op": "lt", "right_col": "Seq RPCs",
     "scales": ["small", "full"]},
    {"kind": "per_row", "label": "batching keeps throughput",
     "left_col": "Batched (q/s)", "op": "gt", "right_col": "Seq (q/s)",
     "factor": 0.8, "scales": "all"},
]


def test_multi_query_batching(benchmark):
    rows = common.run_once(
        benchmark, lambda: [run_dataset(name) for name in DATASETS]
    )
    common.publish(
        "multi_query",
        "Inter-query batching: sequential vs lockstep MultiSSPPR",
        rows, key=("Dataset",),
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Dataset"]] = (
            f"speedup={row['Speedup']}x rpc_reduction={row['RPC reduction']}x"
        )
