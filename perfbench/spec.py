"""What the benchmark measures: workloads, metrics, bounds.

This module is the harness's source of truth; ``BENCHMARK.json`` at the
repository root is :func:`manifest` written out (``python -m perfbench
manifest``), and ``perfbench/tests`` fails when the two drift apart.
Names, units, bounds and workloads are fixed here so that later PRs are
judged by the same yardstick.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.trace import SPAN_NAMES

#: default ``--seconds`` of the end-to-end pass (``run_seconds`` in the
#: manifest).  Sized so that the driver's 114 runs (about 2450 s on the
#: sizing box, set-up included) fit the contract's 3420 s cap.
RUN_SECONDS = 12
#: deployments built per end-to-end run; ``setup_s`` is their median
SETUP_REPS = 3
DEFAULT_SEED = 11
#: batches per pass under ``--quick``
QUICK_BATCHES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    procs_per_machine: int
    #: ops issued per batch call (queries per ``engine.run`` / arcs per
    #: ``ingest``); the serving workload's batch size is set by its trace
    batch_size: int
    #: batches of the fixed-work traced pass (a quarter of the issue's
    #: full-size runs)
    trace_batches: int


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "ssppr_products",
        "Table 2 protocol on the well-partitioned graph: compute-bound in "
        "SSPPR.push/pop + ShardedMap and the fetch cache fits, so a hashmap "
        "or push optimisation shows here",
        dataset="products", procs_per_machine=3, batch_size=12,
        trace_batches=25,
    ),
    Workload(
        "ssppr_twitter",
        "Same protocol on the 55%-mixing hub graph: remote-heavy and the "
        "per-run FetchCache overflows, so fetch/cache/RPC work shows here "
        "and push work must not",
        dataset="twitter", procs_per_machine=3, batch_size=12,
        trace_batches=4,
    ),
    Workload(
        "tensor_products",
        "Same batches as ssppr_products on the dense tensor baseline: "
        "bypasses SSPPR + ShardedMap, shares simt/rpc/storage, and is the "
        "throughput the engine has to overtake",
        dataset="products", procs_per_machine=3, batch_size=12,
        trace_batches=25,
    ),
    Workload(
        "serve_mixed",
        "Bursty two-tenant sppr+walk trace through Session.submit/drain: "
        "many tiny fused batches, so per-call cost of MultiSSPPR/ShardedMap "
        "on small arrays dominates rather than kernel throughput",
        dataset="products", procs_per_machine=1, batch_size=0,
        trace_batches=300,
    ),
    Workload(
        "stream_updates",
        "Edge-stream ingest beside queries on a StreamingSession: two-phase "
        "shard staging, DynamicGraph and incremental refresh, so a read-path "
        "gain that costs the write path shows here",
        dataset="products", procs_per_machine=1, batch_size=64,
        trace_batches=10,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                 # "higher" | "lower"
    clock: str                  # "wall" | "virtual" | "count"
    bound: float | None = None  # end-to-end only
    #: a count that must repeat bit-for-bit between runs of one commit
    exact: bool = False


#: Wall timings are host-calibrated (``perfbench.host``).  Even so the
#: 2-core sizing box leaves spreads (interquartile range over the median,
#: ten seeds) of 3-12% on them, so their bounds are the contract's maximum;
#: the README has the measured table.  Three of the issue's seven are not
#: here, because the contract wants every end-to-end metric on every
#: workload, never 0, and steadier than its bound:
#:
#: * ``failed_share`` must be 0 - it is the result line's failed/attempted;
#: * ``batch_ms_p90`` needs >=100 batches, which only ``serve_mixed`` issues
#:   in a 12 s region - it is in that run's ``info``;
#: * ``virtual_ops_per_s`` spreads 16-29% on ``ssppr_twitter`` (the makespan
#:   is the slowest of 12 processes charged host-measured compute) - it is
#:   the per-layer metric ``virtual.ops_per_s``.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "wall", 0.25),
    Metric("ops_per_s", "1/s", "higher", "wall", 0.25),
    Metric("batch_ms_p50", "ms", "lower", "wall", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "wall", 0.20),
)

SETUP_PHASES = ("load_dataset", "partition", "build_shards", "engine_init",
                "warmup", "publish")


def _counts() -> list[Metric]:
    def exact(name, unit="count", better="lower"):
        return Metric(name, unit, better, "count", exact=True)

    def noisy(name, unit="count", better="lower", clock="count"):
        return Metric(name, unit, better, clock)

    return [
        exact("ppr.pushes_per_query"),
        exact("ppr.entries_per_query"),
        exact("ppr.iterations_per_query"),
        exact("ppr.touched_per_query"),
        exact("hashmap.probe_rounds_per_query"),
        exact("hashmap.rehashes_per_query"),
        exact("ppr.l1_err_over_bound", "ratio"),
        exact("rpc.calls_local"),
        noisy("rpc.calls_remote"),
        noisy("rpc.response_bytes", "B"),
        noisy("rpc.pool_hit_ratio", "ratio", "higher"),
        noisy("fetch.requests"),
        noisy("fetch.cache_hit_ratio", "ratio", "higher"),
        noisy("fetch.coalesced", better="higher"),
        noisy("fetch.misses"),
        noisy("fetch.evictions"),
        noisy("fetch.bytes_saved", "B", "higher"),
        Metric("virtual.ops_per_s", "1/s", "higher", "virtual"),
        noisy("virtual.push_s", "s", clock="virtual"),
        noisy("virtual.pop_s", "s", clock="virtual"),
        noisy("virtual.remote_fetch_s", "s", clock="virtual"),
        noisy("virtual.local_fetch_s", "s", clock="virtual"),
        exact("serve.batches"),
        exact("serve.mean_batch_size", better="higher"),
        exact("serve.rejected"),
        exact("serve.slo_missed"),
        Metric("serve.virtual_goodput", "1/s", "higher", "virtual",
               exact=True),
        exact("stream.staged_rows"),
        exact("stream.refresh_pushes"),
        exact("stream.refresh_corrections"),
        Metric("stream.virtual_clock_s", "s", "lower", "virtual", exact=True),
        Metric("harness.trace_overhead_pct", "%", "lower", "wall"),
        Metric("harness.unattributed_s", "s", "lower", "wall"),
        Metric("harness.cpu_over_wall", "ratio", "higher", "wall"),
        noisy("harness.spans"),
    ]


PER_LAYER: tuple[Metric, ...] = tuple(
    [m for span in SPAN_NAMES for m in (
        Metric(f"{span}.self_s", "s", "lower", "wall"),
        Metric(f"{span}.calls", "count", "lower", "count"),
    )]
    + [Metric(f"setup.{p}_s", "s", "lower", "wall") for p in SETUP_PHASES]
    + _counts()
)

EXACT_COUNTS = tuple(m.name for m in PER_LAYER if m.exact)


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "-m", "perfbench", "run"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
