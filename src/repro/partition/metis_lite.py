"""Multilevel min-cut partitioner (coarsen -> initial -> refine).

``MetisLitePartitioner`` reproduces METIS's three-phase scheme with the
building blocks in :mod:`~repro.partition.coarsen`,
:mod:`~repro.partition.bfs_part` and :mod:`~repro.partition.refine`.
Quality is below real METIS but dramatically above random/hash assignment,
which is what the engine needs: a small edge-cut fraction so most Forward
Push traversal is local (the effect evaluated in the paper's Figure 5a
discussion and our partition-quality ablation bench).
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.base import PartitionResult, Partitioner
from repro.partition.bfs_part import grow_regions
from repro.partition.coarsen import coarsen_to
from repro.partition.refine import refine
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_int, check_nonnegative


class MetisLitePartitioner(Partitioner):
    """Multilevel k-way partitioner with FM refinement.

    Parameters
    ----------
    imbalance:
        Allowed part-weight overshoot (default 5%, METIS-like).
    coarsest_factor:
        Coarsening aims at ``max(coarsest_factor * n_parts, 128)`` nodes
        and stops earlier once a level's matching would shrink the graph by
        less than 5% (read off the matching; that level is never
        contracted).  Matching rounds after the first re-propose only for
        nodes whose pick was just matched.  On the stand-ins coarsening
        stops far above the target: ``products`` at 14 148 of 25 000 nodes
        and ``twitter`` at 32 923 of 41 700, against 240 at 4 parts
        (ROADMAP item 8).
    refine_passes:
        FM passes per level during uncoarsening.
    seed:
        Controls seed selection of the initial partition.
    """

    def __init__(self, *, imbalance: float = 0.05, coarsest_factor: int = 60,
                 refine_passes: int = 6, seed=0) -> None:
        # A NaN or infinite cap would switch the balance constraint off.
        check_nonnegative("imbalance", imbalance)
        if not math.isfinite(imbalance):
            raise ValueError(f"imbalance must be finite, got {imbalance!r}")
        check_int("coarsest_factor", coarsest_factor, positive=True)
        check_int("refine_passes", refine_passes)
        check_nonnegative("refine_passes", refine_passes)
        self.imbalance = imbalance
        self.coarsest_factor = coarsest_factor
        self.refine_passes = refine_passes
        self.seed = seed

    def partition(self, graph: CSRGraph, n_parts: int) -> PartitionResult:
        self._check_args(graph, n_parts)
        if n_parts == 1:
            return PartitionResult(np.zeros(graph.n_nodes, dtype=np.int64), 1)

        rng = rng_from_seed(self.seed)
        target = max(self.coarsest_factor * n_parts, 128)
        levels = coarsen_to(graph, target)

        # Initial partition on the coarsest level.
        coarsest = levels[-1]
        assignment = grow_regions(
            coarsest.graph, n_parts, coarsest.node_weights, rng
        )
        assignment = refine(
            coarsest.graph, assignment, coarsest.node_weights, n_parts,
            imbalance=self.imbalance, max_passes=self.refine_passes,
        )

        # Uncoarsen: project the labels back through each finer level
        # (the coarser entry holds the finer->coarser map) and refine there.
        for finer_idx in range(len(levels) - 2, -1, -1):
            coarser = levels[finer_idx + 1]
            finer = levels[finer_idx]
            assignment = assignment[coarser.fine_to_coarse]
            assignment = refine(
                finer.graph, assignment, finer.node_weights, n_parts,
                imbalance=self.imbalance, max_passes=self.refine_passes,
            )

        result = PartitionResult(assignment, n_parts)
        if not result.nonempty():
            # Degenerate graphs (e.g. fewer connected nodes than parts):
            # backfill empty parts with nodes stolen from the largest part.
            assignment = result.assignment.copy()
            sizes = result.part_sizes()
            for p in np.flatnonzero(sizes == 0):
                donor = int(np.argmax(np.bincount(assignment,
                                                  minlength=n_parts)))
                victims = np.flatnonzero(assignment == donor)
                assignment[victims[0]] = p
            result = PartitionResult(assignment, n_parts)
        return result
