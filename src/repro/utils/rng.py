"""Seeded randomness helpers.

Every stochastic component in the library (graph generators, random walks,
query sampling, GNN init) takes an explicit seed or `numpy.random.Generator`
so that experiments are reproducible run-to-run.  :func:`rng_from_seed`
normalizes between the two.
"""

from __future__ import annotations

import numpy as np


def rng_from_seed(seed) -> np.random.Generator:
    """Return a ``Generator``: pass through if already one, else seed a new one.

    ``seed`` may be ``None`` (OS entropy), an int, a ``SeedSequence``, or an
    existing ``Generator``.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
