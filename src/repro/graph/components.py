"""Connected components: the single-machine oracle behind the
distributed WCC's tests (:func:`repro.walk.wcc.single_machine_wcc`)."""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph


def connected_components(graph: CSRGraph) -> tuple[int, np.ndarray]:
    """``(n_components, labels)`` treating the graph as undirected."""
    # imported here so ``import repro`` does not load csgraph: only the
    # WCC test oracle calls this
    import scipy.sparse.csgraph as csgraph

    n, labels = csgraph.connected_components(
        graph.to_scipy(), directed=False
    )
    return int(n), labels
