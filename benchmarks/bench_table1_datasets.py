"""Table 1 — dataset statistics.

Regenerates the paper's dataset table for the synthetic stand-ins: |V|,
|E|, average degree, max degree.  Paper values (for the originals):

    Ogbn-products      2.5M   120M   50.5   17,481
    Twitter           41.7M   2.4B   57.7   2,997,487
    Friendster        65.6M   3.6B   57.8   5,214
    Ogbn-papers100M    111M   3.2B   29.1   251,471

The stand-ins are ~1000x smaller with matched average degree and the same
hub-extremity ordering (Twitter >> Papers > Products > Friendster by
d_max/d_avg); see ``repro.graph.datasets`` for the calibration rationale.
"""

from benchmarks import common
from benchmarks.common import DATASET_NAMES, get_graph
from repro.graph.stats import compute_stats

#: the stand-ins preserve the paper's orderings at *every* scale: graph
#: generation is seeded, so all of Table 1 is deterministic
EXPECTATIONS = [
    {"kind": "monotone", "label": "|V| ordering", "col": "|V|",
     "direction": "increasing", "scales": "all"},
    # degree calibration tracks the paper only near the stand-in sizes —
    # at tiny scale the generators' floors distort average degree
    {"kind": "cmp", "label": "papers has the lowest avg degree",
     "left": {"col": "d_avg", "where": {"Name": "papers"}},
     "op": "le", "right": {"col": "d_avg", "agg": "min"},
     "scales": ["full"]},
    {"kind": "cmp", "label": "twitter hub skew > products",
     "left": {"col": "dmax/davg", "where": {"Name": "twitter"}},
     "op": "gt", "right": {"col": "dmax/davg", "where": {"Name": "products"}},
     "scales": "all"},
    {"kind": "cmp", "label": "products hub skew > friendster",
     "left": {"col": "dmax/davg", "where": {"Name": "products"}},
     "op": "gt",
     "right": {"col": "dmax/davg", "where": {"Name": "friendster"}},
     "scales": "all"},
]


def _build_rows():
    rows = []
    for name in DATASET_NAMES:
        stats = compute_stats(name, get_graph(name))
        row = stats.as_row()
        row["dmax/davg"] = round(stats.max_degree / max(stats.avg_degree, 1e-9))
        rows.append(row)
    return rows


def test_table1_dataset_stats(benchmark):
    rows = common.run_once(benchmark, _build_rows)
    common.publish(
        "table1", "Table 1: dataset stand-in statistics", rows,
        key=("Name",),
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Name"]] = (
            f"|V|={row['|V|']} |E|={row['|E|']} d_avg={row['d_avg']}"
        )
