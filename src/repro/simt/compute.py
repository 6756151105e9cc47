"""Compute cost model: the virtual seconds a process's own work costs.

Each term is ``call + Σ per_unit[i] · units[i]`` seconds over counts the
charging site already holds, so virtual time never reads the host clock.
Fitted once by non-negative least squares to 119k host timings of these
steps with their counts, on a 2-vCPU Intel Xeon container: the perfbench
deployments at seed 11 (``ssppr_products``, ``ssppr_twitter``,
``tensor_products``, ``serve_mixed`` with its walks), tensor and engine
runs at 25-50% scale, the Table 3 protocol on ``friendster``, BFS, WCC,
node2vec and the GNN case study.  docs/virtual-time.md has the fit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Cost:
    """One term: ``call`` seconds per call plus ``per_unit[i]`` per unit."""

    call: float
    per_unit: tuple[float, ...] = ()

    def __call__(self, *units: int) -> float:
        per_unit = self.per_unit
        n_units = len(units)
        if n_units != len(per_unit):
            raise TypeError(f"cost term takes {len(per_unit)} unit "
                            f"counts, got {n_units}")
        # call + ((0 + c0·n0) + c1·n1 ...): the association the golden
        # virtual times were recorded with; 0 + x is x, so the one- and
        # two-unit terms skip the loop with the same bits
        if n_units == 1:
            return self.call + per_unit[0] * units[0]
        if n_units == 2:
            return self.call + (per_unit[0] * units[0]
                                + per_unit[1] * units[1])
        total = 0
        for c, n in zip(per_unit, units):
            total += c * n
        return self.call + total


@dataclass(frozen=True)
class ComputeCostModel:
    """Every compute term, named for its step; the comment gives its units."""

    route: Cost = Cost(2.84e-5, (2.46e-8,))        # shard routing: ids
    pop: Cost = Cost(1.47e-5, (5.76e-8,))          # MultiSSPPR.pop: pairs
    scan: Cost = Cost(1.02e-5, (1.87e-9,))         # DenseSSPPR.pop: |V|
    #: MultiSSPPR.push: entries spread, slots inserted
    push: Cost = Cost(7.03e-5, (3.07e-8, 8.32e-8))
    #: DenseSSPPR.push of one response: |V|, rows, entries
    dense_push: Cost = Cost(1.99e-6, (1.37e-9, 2.80e-7, 6.34e-9))
    expand: Cost = Cost(7.02e-5, (0.0, 1.60e-8))   # BFS: rows, entries
    relax: Cost = Cost(2.44e-4, (0.0, 3.43e-8))    # WCC: rows, entries
    node2vec: Cost = Cost(3.05e-5, (9.92e-7,))     # biased steps: entries
    frontier: Cost = Cost(2.47e-6)                 # BFS/WCC pop, walk step
    #: a handler on a storage server / the caller's machine: result bytes,
    #: result tensors
    serve: Cost = Cost(2.45e-5, (3.07e-10, 4.95e-7))
    local_exec: Cost = Cost(8.08e-6, (8.64e-10, 4.50e-7))
    #: one GNN step (forward/backward + optimizer): nodes, edges
    train: Cost = Cost(1.98e-4, (2.73e-6, 2.39e-7))


#: the model every charge site uses
COMPUTE = ComputeCostModel()
