"""Micro-bench of the zero-copy local fetch path and the RPC buffer pool.

For each batch size, a contiguous id run (the arena-slice fast path)
and an equally-sized strided id set (the ``np.repeat`` gather fallback)
fetch the same shard and read the rows (``to_arrays()``, where the
consumer's one gather happens); the table reports per-row latency for
both, the modeled bytes of the row-selection response vs a materialized
copy of its rows (these must be *equal* — the zero-copy path may not
move a single modeled byte), the number of tensors each backing actually
owns (the allocation count: 3 for the view path — the rebased indptr
and the two degree columns, resolved from the shard's node-indexed
degree table — vs 5 for a full copy), and the buffer pool's hit rate as the per-row
staged request count grows (must be monotone increasing: inventory
converges to one response's demand, after which every borrow hits).

Wall columns (``ns/row``) move with the interpreter and are named
``ungated``; everything the regression gate diffs exactly is derived from
shapes and dtypes alone.
"""

import time

import numpy as np

from benchmarks import common
from benchmarks.common import bench_scale, get_sharded
from repro.rpc.serialization import BufferPool, payload_sizes
from repro.storage.neighbor_batch import NeighborBatch

N_MACHINES = 2

#: (batch size, pool responses staged) per row — requests grow with batch
CASES = ((16, 1), (64, 4), (256, 16), (1024, 64))


def _time_per_row(shard, ids, reps) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        shard.get_neighbor_batch(ids).to_arrays()
    dt = time.perf_counter() - t0
    return dt / (reps * len(ids)) * 1e9


def _owned_tensors(batch) -> int:
    return sum(1 for a in batch.to_arrays() if a.base is None)


def run_case(shard, batch, n_responses) -> dict:
    n_core = shard.n_core
    b = min(batch, n_core // 2)
    reps = max(1, 20000 // b)
    contiguous = np.arange(b, dtype=np.int64)
    strided = np.arange(b, dtype=np.int64) * 2  # sorted, never contiguous
    view = shard.get_neighbor_batch(contiguous)
    copy = NeighborBatch(*view.to_arrays(), check=False).materialize()
    pool = BufferPool()
    requests = hits = 0
    for _ in range(n_responses):
        n, h, _reused = pool.stage(view)
        requests, hits = requests + n, hits + h
    return {
        "Batch": b,
        "View ns/row": round(_time_per_row(shard, contiguous, reps), 1),
        "Gather ns/row": round(_time_per_row(shard, strided, reps), 1),
        "View bytes": payload_sizes(view)[0],
        "Copy bytes": payload_sizes(copy)[0],
        "View-owned tensors": _owned_tensors(view),
        "Copy-owned tensors": _owned_tensors(copy),
        "Pool reqs": requests,
        "Pool hit %": round(100.0 * hits / requests, 2),
        "Pool bytes": pool.nbytes(),
    }


EXPECTATIONS = [
    {"kind": "per_row", "label": "zero-copy moves zero modeled bytes",
     "left_col": "View bytes", "op": "eq", "right_col": "Copy bytes",
     "scales": "all"},
    {"kind": "per_row", "label": "the view path owns almost nothing",
     "left_col": "View-owned tensors", "op": "lt",
     "right_col": "Copy-owned tensors", "scales": "all"},
    {"kind": "monotone", "label": "pool hit rate monotone in request count",
     "col": "Pool hit %", "order_col": "Pool reqs",
     "direction": "increasing", "strict": True, "scales": "all"},
    {"kind": "per_row", "label": "pool converges past 80% hits",
     "left_col": "Pool hit %", "op": "gt", "right": 80.0,
     "scales": "all", "where": {"Pool reqs": {"ge": 100}}},
    {"kind": "cmp", "label": "slicing beats gathering on big batches",
     "left": {"col": "View ns/row", "where": {"Batch": 1024}},
     "op": "lt",
     "right": {"col": "Gather ns/row", "where": {"Batch": 1024}},
     "scales": ["full"]},
]


def test_hot_path(benchmark):
    bench_scale()  # validate REPRO_BENCH_SCALE before any work
    shard = get_sharded("products", N_MACHINES).shards[0]

    def run_all():
        return [run_case(shard, batch, n_resp) for batch, n_resp in CASES]

    rows = common.run_once(benchmark, run_all)
    common.publish(
        "hot_path",
        "Zero-copy local fetch + RPC buffer pool "
        f"(ogbn-products shard 0 of {N_MACHINES})",
        rows, key=("Batch",),
        ungated={"View ns/row": "host-timed with perf_counter",
                 "Gather ns/row": "host-timed with perf_counter"},
        expectations=EXPECTATIONS,
    )
