"""Direct-address slot table — key -> dense slot, no hashing.

The paper's C++ PPR operators store ``<local ID, shard ID> -> value`` pairs
in greg7mdp/parallel-hashmap: a table split into submaps, with updates
partitioned across threads *by submap index* so no locks are needed.  Those
keys are a dense domain — the engine packs node ids (and ``id * B + qid``
for fused batches) into ``[0, |V| B)`` — so this module addresses them
directly instead of hashing them.  The caller declares its key domain
``n_keys``, and the cells are one int64 array indexed by key, filled with
-1 once at construction.  A key's cell *is* the key: ``lookup`` is one
gather, and ``get_or_insert`` one gather plus the claim below.  The cells
never grow and nothing is ever re-placed.

The price is 8 B per key of the declared domain, per state: 12.8 MB for
one query over 1.6M nodes.  The tensor baseline already pays O(|V|) per
query for its dense arrays (:class:`~repro.ppr.tensor_ops.DenseSSPPR`),
and DistDGL relabels nodes into consecutive ranges so that dense per-id
arrays stay that small.  Paging the cells would not make memory follow
the touched keys: at every benchmarked size up to |V| = 1.6M, where a
query touches 1.5% of its keys, its frontier lands on every 4 096-key
page of the domain, and the directory gather per key costs wall time
(EXPERIMENTS.md, "One slot-table layout").

* ``get_or_insert`` resolves its keys and claims slots for the ones it
  finds missing, first occurrence first.  It returns ``(slots, fresh)``:
  ``fresh`` holds the ascending positions of each newly inserted key's
  first occurrence, and those keys take the dense slots ``before .. after
  - 1`` (the table's length before and after the call) in that order, so
  ``keys()`` enumerates in first-touch order and a caller initialises its
  newcomers' values with one slice, ``values[before:after] =
  new_values[fresh]``;
* **all operations are batch-vectorized** and duplicate keys are allowed in
  every call — this is the "C++ speed" stand-in;
* a key outside the domain (negative, or past ``n_keys - 1``) raises
  ``ValueError`` before anything is written;
* the table stores only key -> *dense slot*.  Values live in caller-owned
  slot-indexed arrays (:func:`fit_values` grows them), exactly like the
  slot/value split in the paper's operators;
* the paper's lock-free contract holds by construction: distinct keys
  never share a cell, so updates partitioned by key need no locks — the
  submap rule, without the hash.

The module and class keep their historical names because the wall-clock
benchmark patches ``repro.ppr.hashmap.ShardedMap`` by name; the rename
waits for ROADMAP item 1b.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_int

_INT64 = np.dtype(np.int64)


def _fit(arr: np.ndarray, needed: int, used: int | None = None):
    """``arr`` if it holds ``needed`` entries, else a zero-extended copy of
    its first ``used`` (default: all) entries with capacity doubled to fit."""
    cap = len(arr)
    if needed <= cap:
        return arr
    cap = max(cap, 1)
    while cap < needed:
        cap *= 2
    grown = np.zeros(cap, dtype=arr.dtype)
    used = len(arr) if used is None else used
    grown[:used] = arr[:used]
    return grown


def fit_values(table: "ShardedMap", *arrays: np.ndarray) -> tuple:
    """Slot-indexed value ``arrays`` zero-extended to ``len(table)`` slots."""
    return tuple(_fit(a, len(table)) for a in arrays)


class ShardedMap:
    """Direct-address int64 -> dense-slot table over the declared key
    domain ``[0, n_keys)``: one key-indexed cell per key."""

    #: race-sanitizer hook (repro.analysis.race.installed).  Class-level and
    #: None by default: the off path costs one attribute check per *batched*
    #: call, so instrumentation is zero-overhead when disabled.
    _sanitizer = None

    #: largest admissible key.  A domain is one allocation of 8 B per key,
    #: so the ceiling (2**31 keys) bounds a table at 16 GiB; a larger
    #: domain raises before anything is allocated.
    MAX_KEY = (1 << 31) - 1

    def __init__(self, n_keys: int) -> None:
        check_int("n_keys", n_keys, positive=True)
        if n_keys > self.MAX_KEY + 1:
            raise ValueError(
                f"n_keys must be <= {self.MAX_KEY + 1}, got {n_keys!r}")
        #: largest admissible key: the declared domain's last
        self.top_key = int(n_keys) - 1
        self._cells = np.full(int(n_keys), -1, dtype=np.int64)
        # Dense side: keys in slot (first-occurrence) order.
        self._dense_keys = np.empty(1024, dtype=np.int64)
        self._n = 0
        #: probe rounds executed — one per non-empty call, by construction
        self.probe_rounds = 0
        #: always 0: a direct-address cell is never re-placed
        self.rehashes = 0

    # -- public surface --------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def keys(self) -> np.ndarray:
        """All keys in slot order (order of first occurrence)."""
        return self._dense_keys[: self._n]

    def lookup(self, keys) -> np.ndarray:
        """Dense slots of ``keys`` (-1 where missing).  Duplicates OK."""
        if self._sanitizer is not None:
            self._sanitizer.record(f"ShardedMap@{id(self):#x}", write=False)
        keys = self._checked(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        self.probe_rounds += 1
        return self._cells.take(keys)

    def get_or_insert(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Dense slots for ``keys``, inserting missing ones.  Duplicates OK.

        Returns ``(slots, fresh)``: ``fresh`` holds the ascending positions
        in ``keys`` of each newly inserted key's first occurrence, and
        those keys took the slots ``before .. after - 1`` in that order
        (``before`` / ``after`` being ``len(self)`` around the call).
        """
        if self._sanitizer is not None:
            self._sanitizer.record(f"ShardedMap@{id(self):#x}", write=True)
        keys = self._checked(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        self.probe_rounds += 1
        slots = self._cells.take(keys)
        missing = np.flatnonzero(slots < 0)
        if len(missing) == 0:
            return slots, missing
        return slots, self._claim(keys, slots, missing)

    # -- internals ----------------------------------------------------------
    def _checked(self, keys) -> np.ndarray:
        """``keys`` as 1-D in-domain int64."""
        if not (type(keys) is np.ndarray and keys.dtype is _INT64
                and keys.ndim == 1 and keys.flags.c_contiguous):
            keys = np.asarray(keys)
            # an empty list arrives as float64; it holds no key to truncate
            if keys.dtype.kind not in "iu" and keys.size:
                raise ValueError(
                    f"keys must be integers, got dtype {keys.dtype}")
            keys = np.ascontiguousarray(keys, dtype=np.int64)
            if keys.ndim != 1:
                raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
        if len(keys) == 0:
            return keys
        # Negative keys wrap above every domain as uint64: one pass checks
        # both ends of it.
        top = int(keys.view(np.uint64).max())
        if top > self.top_key:
            if keys.min() < 0:
                raise ValueError("keys must be non-negative int64")
            raise ValueError(
                f"key {top} is outside the table's domain "
                f"[0, {self.top_key}]"
            )
        return keys

    def _claim(self, keys: np.ndarray, slots: np.ndarray,
               missing: np.ndarray) -> np.ndarray:
        """Claim slots for ``keys[missing]`` (duplicates OK) and write them
        into ``slots``; returns the positions in ``keys`` of each claimed
        key's first occurrence."""
        where = keys.take(missing)
        # First-occurrence claim: every occurrence writes its position,
        # back to front, so each cell ends up holding its earliest one.
        # (NumPy assigns repeated indices in order; were that ever to
        # change, slots would still be unique per key — only their
        # numbering would differ.)
        self._cells[where[::-1]] = missing[::-1]
        # compress, not a boolean index: several times faster on a mask
        # this unpredictable
        first = missing.compress(self._cells.take(where) == missing)
        base = self._n
        self._n += len(first)
        self._dense_keys = _fit(self._dense_keys, self._n, base)
        claimed = self._dense_keys[base: self._n]
        keys.take(first, out=claimed, mode="clip")
        self._cells[claimed] = np.arange(base, self._n)
        slots[missing] = self._cells.take(where)
        return first
