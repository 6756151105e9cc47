"""``repro.graph`` — in-memory graphs, generators, and dataset stand-ins.

Provides the single-machine graph substrate everything else builds on:

* :class:`CSRGraph` — an edge-weighted graph in Compressed Sparse Row form
  (the storage format of Section 3.2.2);
* vectorized random-graph generators (power-law configuration model, R-MAT,
  Erdős–Rényi) plus small deterministic graphs for tests;
* :mod:`~repro.graph.datasets` — scaled synthetic stand-ins for the four
  evaluation datasets (Ogbn-products, Twitter, Friendster,
  Ogbn-papers100M), matching their average degree and skew character;
* stats utilities that regenerate Table 1 for the stand-ins.
"""

from repro.graph.components import connected_components
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset
from repro.graph.generators import (
    cap_degrees,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    powerlaw_cluster,
    rmat,
    star_graph,
)
from repro.graph.io import load_npz, save_npz
from repro.graph.stats import GraphStats, compute_stats, table1_rows

__all__ = [
    "CSRGraph",
    "cap_degrees",
    "DATASETS",
    "DatasetSpec",
    "GraphStats",
    "complete_graph",
    "connected_components",
    "compute_stats",
    "cycle_graph",
    "erdos_renyi",
    "load_dataset",
    "load_npz",
    "path_graph",
    "powerlaw_cluster",
    "rmat",
    "save_npz",
    "star_graph",
    "table1_rows",
]
