"""Shared benchmark infrastructure.

Scale policy
------------
``REPRO_BENCH_SCALE`` selects how close each run is to the paper's setup:

* ``tiny``  — CI smoke: ~4% of stand-in sizes, few queries (seconds);
* ``small`` — 25% of stand-in sizes (quick iteration);
* ``full``  — default: the full stand-in sizes and larger query batches.

The default is ``full`` because several of the paper's orderings (Forward
Push vs. power iteration, tensor |V|-proportional costs) only separate from
interpreter noise once graphs reach the stand-in sizes; each bench declares
*which* of its expectations hold at which scales.

Dataset generation and partitioning are cached per process **keyed on the
resolved scale** (so flipping ``REPRO_BENCH_SCALE`` between calls in one
process can never serve a stale-scale graph), and graphs are disk-cached.

Every bench publishes two artifacts via :func:`publish`:

* ``benchmarks/results/<name>.txt`` — the human-readable table (as before);
* ``benchmarks/results/<name>.json`` — a schema-valid
  :class:`repro.obs.bench.BenchReport` with typed rows, the run's scale /
  git revision / environment fingerprint, the columns the bench names
  ``ungated`` (with their reasons) and declarative expectations.
  ``repro.cli bench`` aggregates the gated fields into
  ``BENCH_<scale>.json`` trajectories and diffs them against committed
  baselines — see ``docs/benchmarking.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.engine import EngineConfig
from repro.graph import load_dataset
from repro.graph.stats import format_table
from repro.obs.bench import BenchReport, evaluate_expectations, write_report
from repro.partition import MetisLitePartitioner
from repro.storage import build_shards

DATASET_NAMES = ("products", "twitter", "friendster", "papers")

RESULTS_DIR = Path(__file__).resolve().parent / "results"


@dataclass(frozen=True)
class BenchScale:
    name: str
    graph_scale: float     # multiplier on stand-in node counts
    queries: int           # main query batch size
    queries_small: int     # for expensive modes (Single ablation, tensor)
    walk_roots: int


_SCALES = {
    "tiny": BenchScale("tiny", 0.04, 4, 2, 16),
    "small": BenchScale("small", 0.25, 8, 4, 32),
    "full": BenchScale("full", 1.0, 16, 8, 128),
}


def bench_scale() -> BenchScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "full").lower()
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {name!r}"
        )
    return _SCALES[name]


def get_graph(name: str):
    """Dataset stand-in at the current bench scale (disk-cached)."""
    return _get_graph(name, bench_scale())


@lru_cache(maxsize=None)
def _get_graph(name: str, scale: BenchScale):
    return load_dataset(name, scale=scale.graph_scale)


def get_sharded(name: str, n_shards: int):
    """Partitioned + shard-built graph, memoized per (dataset, K, scale)."""
    return _get_sharded(name, n_shards, bench_scale())


@lru_cache(maxsize=None)
def _get_sharded(name: str, n_shards: int, scale: BenchScale):
    graph = _get_graph(name, scale)
    result = MetisLitePartitioner(seed=0).partition(graph, n_shards)
    return build_shards(graph, result, seed=0)


def engine_config(n_machines: int, procs: int = 1, **kw) -> EngineConfig:
    return EngineConfig(n_machines=n_machines, procs_per_machine=procs,
                        partitioner=MetisLitePartitioner(seed=0), **kw)


def write_result(name: str, text: str) -> Path:
    """Persist a bench's printable table under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def print_and_store(name: str, title: str, rows: list[dict]) -> str:
    """Format rows, print them, persist them; returns the text."""
    body = format_table(rows)
    text = f"== {title} ==\n{body}"
    print("\n" + text)
    write_result(name, text)
    return text


def _jsonable(v):
    """Coerce numpy scalars to plain Python so txt and json agree exactly."""
    if hasattr(v, "item") and not isinstance(v, (str, bytes)):
        return v.item()
    return v


def run_once(benchmark, fn, *args):
    """Run ``fn`` once under pytest-benchmark; returns its result."""
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1)


def publish(name: str, title: str, rows: list[dict], *, key,
            ungated=None, expectations=(), extra=None) -> BenchReport:
    """Print + persist a bench's table AND its structured report.

    Writes ``results/<name>.txt`` and ``results/<name>.json``, then
    evaluates every declarative expectation active at the current scale and
    raises ``AssertionError`` listing the failures.  Every numeric column
    and ``extra`` value is gated against the baseline except those
    ``ungated`` maps to the reason they cannot be: host-timed values and
    counts of the source tree.
    """
    rows = [{k: _jsonable(v) for k, v in row.items()} for row in rows]
    extra = {k: _jsonable(v) for k, v in (extra or {}).items()}
    print_and_store(name, title, rows)
    report = BenchReport(
        name=name, title=title, scale=bench_scale().name, rows=rows,
        key=tuple(key), ungated=ungated or {},
        expectations=list(expectations), extra=extra,
    )
    write_report(RESULTS_DIR / f"{name}.json", report)
    failures = evaluate_expectations(report.to_dict())
    if failures:
        raise AssertionError(
            f"{len(failures)} expectation(s) failed:\n  "
            + "\n  ".join(failures)
        )
    return report
