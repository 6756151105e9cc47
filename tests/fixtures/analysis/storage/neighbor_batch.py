"""REP011 negative fixture: views are free, sanctioned copies are pragma'd.

In scope like the positive fixture (path ends in
``storage/neighbor_batch.py``) but every allocation either disappears into a slice or carries an
explicit ``# repro: allow=REP011`` pragma with its reason.
"""

import numpy as np


def contiguous_rows(arena, lo, hi):
    return arena[lo:hi]  # a view into the arena: nothing allocated


def materialize(tensors):
    # repro: allow=REP011 copy-on-serialize at the RPC boundary
    return tuple(t.copy() for t in tensors)


def gather_fallback(arena, starts, counts):
    idx = np.repeat(starts, counts)  # repro: allow=REP011 non-contiguous gather
    return arena[idx]


def merge(parts):
    return np.concatenate(parts)  # repro: allow=REP011 reassembly copies
