"""Heat-recording storage facade (``repro.storage.fetch``).

:class:`NeighborFetchService` is the :class:`DistGraphStorage` every
compressed-path driver holds.  Every remote ``get_neighbor_infos`` is one
storage call — the paper's all-or-nothing halo-cache shortcut, or one
batched RPC — and its response goes to the driver as it arrives.  On the
way out the service records the request's node ids in its machine's
:class:`FetchCache`, whose counts at the end of a run are the run's
*heat* (``QueryRunResult.heat``), the stream rebalancer's input.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.storage.dist_storage import DistGraphStorage


class FetchCache:
    """Per-machine demand ledger: the node ids of every request that the
    machine's computing processes sent to a non-local shard.

    Shared by those processes.  :meth:`admit` appends under one lock
    (sanitizer-tracked when a race detector is installed); :meth:`heat`
    counts once, after the run.
    """

    def __init__(self, *, sanitizer=None) -> None:
        self._requests: list[np.ndarray] = []
        self._sanitizer = sanitizer
        if sanitizer is not None:
            self._lock = sanitizer.tracked_lock("fetch.ledger")
        else:
            self._lock = threading.Lock()

    def admit(self, ids: np.ndarray) -> None:
        """Record one remote request for ``ids``."""
        with self._lock:
            if self._sanitizer is not None:
                self._sanitizer.record("fetch.ledger.requests", write=True)
            self._requests.append(ids)

    def heat(self) -> dict[int, int]:
        """Node id -> how many recorded requests named it."""
        if not self._requests:
            return {}
        keys, counts = np.unique(np.concatenate(self._requests),
                                 return_counts=True)
        return dict(zip(keys.tolist(), counts.tolist()))


class NeighborFetchService(DistGraphStorage):
    """The compressed storage facade, recording remote demand.

    Everything but the recording is the inherited
    :class:`DistGraphStorage` surface; the storage call resolves the
    destination shard once and hands a request bound off this machine to
    :meth:`_record_remote`.
    """

    def __init__(self, rrefs, shard_id: int, caller: str,
                 ledger: FetchCache) -> None:
        super().__init__(rrefs, shard_id, caller, compress=True)
        self.ledger = ledger

    def get_neighbor_infos(self, dest_shard: int, ids: np.ndarray):
        return super().get_neighbor_infos(dest_shard,
                                          np.asarray(ids, dtype=np.int64))

    def _record_remote(self, ids: np.ndarray) -> None:
        # the storage call resolved the shard: it is not on this machine
        if len(ids):
            self.ledger.admit(ids)
