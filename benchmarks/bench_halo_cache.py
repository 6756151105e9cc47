"""Ablation — what the 1-hop halo cache saves.

Section 3.2.2: storing neighbors' weighted degrees inline ("halo caching")
lets the push operator threshold-check remotely-owned nodes without issuing
extra RPCs, "eliminating the need to aggregate edge weights on the fly".

Without the cache, *every remote node receiving residual mass* would need
its weighted degree fetched before the activation check — one extra remote
round-trip's worth of data per touched remote node per iteration.  This
bench counts those avoided lookups directly from engine counters and prices
them with the engine's own network model.
"""

import numpy as np

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine import GraphEngine, RunRequest
from repro.engine.query import sample_sources
from repro.ppr import PPRParams
from repro.simt.network import NetworkModel

DATASETS = ("products", "twitter")
N_MACHINES = 4


def run_dataset(name: str) -> dict:
    scale_cfg = engine_config(N_MACHINES)
    sharded = get_sharded(name, N_MACHINES)
    engine = GraphEngine(sharded.graph, scale_cfg, sharded=sharded)
    from benchmarks.common import bench_scale as _bs
    sources = sample_sources(sharded, _bs().queries_small, seed=47)
    run = engine.run(RunRequest(sources=sources, params=PPRParams(),
                             keep_states=True))

    # Measured counterpart: the engine with halo_hops=2 actually serves
    # cached halo rows locally.
    from repro.storage import build_shards
    sharded2 = build_shards(sharded.graph, sharded.result, seed=0,
                            halo_hops=2)
    cfg2 = engine_config(N_MACHINES, halo_hops=2)
    engine2 = GraphEngine(sharded2.graph, cfg2, sharded=sharded2)
    run2 = engine2.run(RunRequest(sources=sources, params=PPRParams()))
    mem1 = sharded.total_memory_nbytes()
    mem2 = sharded2.total_memory_nbytes()

    # Count touched nodes that live on a different shard than the querying
    # machine: each would need a wdeg fetch per activation check without
    # the halo cache.
    extra_lookups = 0
    for gid, state in run.states.items():
        owner = sharded.result.assignment[gid]
        # engine mode: one query per state, so its keys are node ids
        touched_owner = sharded.owner_of(state.multi.map.keys())
        extra_lookups += int(np.count_nonzero(touched_owner != owner))

    net = NetworkModel()
    # one batched wdeg-fetch round per iteration is the cheapest possible
    # no-cache protocol; price it per avoided remote entry (8B values)
    extra_seconds = extra_lookups * 8 / net.bandwidth \
        + sum(s.n_iterations for s in run.states.values()) \
        * (net.rpc_overhead * 2 + net.latency * 2)
    return {
        "Dataset": name,
        "Queries": len(run.states),
        "Avoided wdeg lookups": extra_lookups,
        "Modeled extra time (s)": round(extra_seconds, 4),
        "Uncached overhead (%)": round(100 * extra_seconds / run.makespan),
        "RPCs @1hop": run.remote_requests,
        "RPCs @2hop": run2.remote_requests,
        "Mem @1hop (MB)": round(mem1 / 1e6, 1),
        "Mem @2hop (MB)": round(mem2 / 1e6, 1),
    }


# the 1-hop metadata cache is load-bearing, and deepening to 2 hops
# trades memory for fewer RPCs, exactly the direction Section 3.2.1
# describes
EXPECTATIONS = [
    {"kind": "per_row", "label": "halo cache avoids many wdeg lookups",
     "left_col": "Avoided wdeg lookups", "op": "gt", "right": 100,
     "scales": ["full"]},
    {"kind": "per_row", "label": "modeled no-cache cost is positive",
     "left_col": "Modeled extra time (s)", "op": "gt", "right": 0,
     "scales": ["full"]},
    {"kind": "per_row", "label": "2-hop halo needs fewer RPCs",
     "left_col": "RPCs @2hop", "op": "le", "right_col": "RPCs @1hop",
     "scales": "all"},
    {"kind": "per_row", "label": "2-hop halo costs more memory",
     "left_col": "Mem @2hop (MB)", "op": "gt", "right_col": "Mem @1hop (MB)",
     "scales": "all"},
]


def test_halo_cache_savings(benchmark):
    rows = common.run_once(
        benchmark, lambda: [run_dataset(name) for name in DATASETS]
    )
    common.publish(
        "halo_cache",
        "Halo-cache ablation: remote wdeg lookups avoided by 1-hop caching",
        rows, key=("Dataset",),
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Dataset"]] = (
            f"avoided={row['Avoided wdeg lookups']} "
            f"overhead=+{row['Uncached overhead (%)']}%"
        )
