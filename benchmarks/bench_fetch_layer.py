"""Ablation of the adaptive neighbor-fetch layer (docs/fetch-layer.md).

Cumulative levels on a 2-hop-halo deployment with two worker processes
per machine (so coalescing has concurrent flights to dedup):

    off        fetch layer bypassed — the pre-layer RPC pattern
    +split     partial halo-cache hits: only uncovered rows cross the wire
    +cache     byte-budgeted hot-vertex cache absorbs repeated hub fetches
    +coalesce  overlapping in-flight requests share one response

Every level answers bit-for-bit identically (asserted by the tier-1
differential tests); what changes is how many bytes travel.  Response
bytes must fall at every step, remote request counts must never rise,
and the full layer must beat the bypassed engine on virtual throughput.

Determinism note: with two procs per machine, hot-cache and coalescing
counters depend on how the procs' virtual timelines interleave, and
those timelines incorporate *measured* handler time — so only the
split classification is exactly reproducible ("Halo hits": halo-covered
rows never enter the hot cache or the pending table, and each driver's
request content is interleaving-independent).  Everything else is gated
by inequality expectations with comfortable margins, not exact replay.
"""

import dataclasses

from benchmarks import common
from benchmarks.common import bench_scale, engine_config, get_sharded
from repro.engine import GraphEngine, RunRequest
from repro.engine.query import sample_sources
from repro.ppr import PPRParams
from repro.storage import build_shards

PARAMS = PPRParams(alpha=0.462, epsilon=1e-5)
N_MACHINES = 2
PROCS = 2

#: cumulative (label, fetch_split, fetch_cache_bytes, fetch_coalesce)
LEVELS = (
    ("off", False, 0, False),
    ("+split", True, 0, False),
    ("+cache", True, 1 << 22, False),
    ("+coalesce", True, 1 << 22, True),
)


def run_level(engine, sources, level) -> dict:
    label, split, cache_bytes, coalesce = level
    # a level is a deployment setting: a sibling engine over the same shards
    at_level = GraphEngine(engine.graph, dataclasses.replace(
        engine.config, fetch_split=split, fetch_cache_bytes=cache_bytes,
        fetch_coalesce=coalesce), sharded=engine.sharded)
    run = at_level.run(RunRequest(sources=sources, params=PARAMS))
    m = run.metrics
    return {
        "Level": label,
        "q/s": round(run.throughput, 1),
        "Total (s)": round(run.makespan, 4),
        "Remote RPCs": run.remote_requests,
        "Response bytes": int(m.get("rpc.response_bytes", 0)),
        "Hot hits": int(m.get("fetch.cache_hits", 0)),
        "Halo hits": int(m.get("fetch.halo_hits", 0)),
        "Coalesced": int(m.get("fetch.coalesced", 0)),
        "Bytes saved": int(m.get("fetch.bytes_saved", 0)),
    }


EXPECTATIONS = [
    {"kind": "cmp", "label": "splitting cuts bytes on the wire",
     "left": {"col": "Response bytes", "where": {"Level": "+split"}},
     "op": "lt",
     "right": {"col": "Response bytes", "where": {"Level": "off"}},
     "scales": "all"},
    {"kind": "cmp", "label": "hot cache cuts bytes further",
     "left": {"col": "Response bytes", "where": {"Level": "+cache"}},
     "op": "lt",
     "right": {"col": "Response bytes", "where": {"Level": "+split"}},
     "scales": "all"},
    {"kind": "cmp", "label": "coalescing cuts bytes further still",
     "left": {"col": "Response bytes", "where": {"Level": "+coalesce"}},
     "op": "lt",
     "right": {"col": "Response bytes", "where": {"Level": "+cache"}},
     "scales": "all"},
    {"kind": "cmp", "label": "hot cache cuts remote request count",
     "left": {"col": "Remote RPCs", "where": {"Level": "+cache"}},
     "op": "lt",
     "right": {"col": "Remote RPCs", "where": {"Level": "off"}},
     "scales": "all"},
    {"kind": "cmp", "label": "full layer cuts remote request count",
     "left": {"col": "Remote RPCs", "where": {"Level": "+coalesce"}},
     "op": "lt",
     "right": {"col": "Remote RPCs", "where": {"Level": "off"}},
     "scales": "all"},
    {"kind": "per_row", "label": "the layer reports saved bytes",
     "left_col": "Bytes saved", "op": "gt", "right": 0,
     "scales": "all", "where": {"Level": "+coalesce"}},
    {"kind": "cmp", "label": "full layer beats the bypassed engine",
     "left": {"col": "q/s", "where": {"Level": "+coalesce"}},
     "op": "gt",
     "right": {"col": "q/s", "where": {"Level": "off"}},
     "scales": ["full"]},
]


def test_fetch_layer_ablation(benchmark):
    scale = bench_scale()
    base = get_sharded("products", N_MACHINES)
    sharded = build_shards(base.graph, base.result, seed=0, halo_hops=2)
    engine = GraphEngine(
        sharded.graph,
        engine_config(N_MACHINES, procs=PROCS, halo_hops=2),
        sharded=sharded,
    )
    sources = sample_sources(sharded, scale.queries, seed=29)

    def run_all():
        return [run_level(engine, sources, level) for level in LEVELS]

    rows, wall = common.timed(benchmark, run_all)
    common.publish(
        "fetch_layer",
        "Adaptive fetch-layer ablation on ogbn-products "
        f"({N_MACHINES} machines x {PROCS} procs, 2-hop halo)",
        rows, key=("Level",),
        deterministic=("Halo hits",),
        higher_is_better=("q/s",),
        lower_is_better=("Total (s)", "Response bytes"),
        expectations=EXPECTATIONS, wall_s=wall,
        virtual_cols=("Total (s)",),
    )
    for row in rows:
        benchmark.extra_info[row["Level"]] = (
            f"bytes={row['Response bytes']} rpcs={row['Remote RPCs']}"
        )
