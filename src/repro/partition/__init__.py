"""``repro.partition`` — min-cut graph partitioning (the METIS substitute).

The paper partitions each input graph with METIS before distributing shards
(Section 3.2.1): minimize cut edges subject to balanced part sizes, so that
most Forward Push traversal stays inside the local shard.  METIS is not
available here, so :class:`MetisLitePartitioner` reimplements the same
multilevel scheme from scratch:

1. **Coarsening** — repeated heavy-edge mutual matching contracts the graph
   while preserving cut structure (on the stand-ins it stalls after a level
   or two, far above its target — see :mod:`repro.partition.coarsen`);
2. **Initial partitioning** — greedy balanced BFS region growing on the
   coarsest graph;
3. **Uncoarsening + refinement** — project the assignment back level by
   level, running Fiduccia–Mattheyses-style boundary passes (vectorized
   gain computation via sparse connectivity matrices) under a balance
   constraint.

Baselines used by the partition-quality ablation: :class:`RandomPartitioner`
(uniform), :class:`HashPartitioner` (modulo), :class:`BfsPartitioner`
(region growing on the full graph without refinement).
"""

from repro.partition.base import PartitionResult, Partitioner
from repro.partition.bfs_part import BfsPartitioner
from repro.partition.metis_lite import MetisLitePartitioner
from repro.partition.quality import balance, edge_cut_fraction, partition_quality
from repro.partition.random_part import HashPartitioner, RandomPartitioner

__all__ = [
    "BfsPartitioner",
    "HashPartitioner",
    "MetisLitePartitioner",
    "PartitionResult",
    "Partitioner",
    "RandomPartitioner",
    "balance",
    "edge_cut_fraction",
    "partition_quality",
]
