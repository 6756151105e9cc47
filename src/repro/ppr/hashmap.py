"""Paged direct-address slot table — key -> dense slot, no hashing.

The paper's C++ PPR operators store ``<local ID, shard ID> -> value`` pairs
in greg7mdp/parallel-hashmap: a table split into submaps, with updates
partitioned across threads *by submap index* so no locks are needed.  Those
keys are a dense domain — the engine packs ``local * K + shard`` (and
``* B + qid`` for fused batches), which tops out at ~1.1 |V| B — so this
module addresses them directly instead of hashing them:

* a **page directory** indexed by ``key >> PAGE_BITS`` names the page a key
  lives on; pages are ``PAGE_SLOTS`` cells (32 KiB), allocated on first
  touch, so memory is O(touched pages) and nothing is ever re-placed;
* ``lookup`` is two array indexings (directory, then cell); page 0 is a
  permanent all-missing *null page* every unallocated directory entry
  points at, so absent keys need no branch;
* ``get_or_insert`` is the same plus a first-occurrence claim for the keys
  it finds missing: dense slots are numbered in order of first occurrence
  in the call, so ``keys()`` enumerates in first-touch order;
* **all operations are batch-vectorized** and duplicate keys are allowed in
  every call — this is the "C++ speed" stand-in;
* the table stores only key -> *dense slot*.  Values live in caller-owned
  slot-indexed arrays (:func:`fit_values` grows them), exactly like the
  slot/value split in the paper's operators;
* the paper's lock-free contract is a property of pages: keys on different
  pages (:meth:`ShardedMap.page_of`) never share a cell, so updates
  partitioned by page need no locks — the submap rule, without the hash.

The module and class keep their historical names because the wall-clock
benchmark patches ``repro.ppr.hashmap.ShardedMap`` by name; the rename
waits for ROADMAP item 5a.
"""

from __future__ import annotations

import numpy as np

PAGE_BITS = 12
PAGE_SLOTS = 1 << PAGE_BITS
_LOW = PAGE_SLOTS - 1


def _fit(arr: np.ndarray, needed: int, used: int | None = None):
    """``arr`` if it holds ``needed`` entries, else a zero-extended copy of
    its first ``used`` (default: all) entries with capacity doubled to fit."""
    cap = len(arr)
    if needed <= cap:
        return arr
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
    """Lazily paged direct-address int64 -> dense-slot table."""

    #: race-sanitizer hook (repro.analysis.race.install).  Class-level and
    #: None by default: the off path costs one attribute check per *batched*
    #: call, so instrumentation is zero-overhead when disabled.
    _sanitizer = None

    #: largest admissible key.  The directory holds one word per page up to
    #: the largest key *seen* (at most 2**22 words); a key past the bound
    #: raises before anything is allocated.
    MAX_KEY = (1 << 34) - 1

    def __init__(self) -> None:
        self._directory = np.zeros(16, dtype=np.int64)  # 0 = the null page
        self._cells = np.empty(8 * PAGE_SLOTS, dtype=np.int64)
        self._cells[:PAGE_SLOTS] = -1
        self._n_pages = 1
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

    @property
    def resident_pages(self) -> int:
        """Pages allocated so far (== distinct pages ever inserted into)."""
        return self._n_pages - 1

    def keys(self) -> np.ndarray:
        """All keys in slot order (order of first occurrence)."""
        return self._dense_keys[: self._n]

    @staticmethod
    def page_of(keys) -> np.ndarray:
        """Which page each key lives on (the thread-partitioning index)."""
        return np.asarray(keys, dtype=np.int64) >> PAGE_BITS

    def lookup(self, keys) -> np.ndarray:
        """Dense slots of ``keys`` (-1 where missing).  Duplicates OK."""
        if self._sanitizer is not None:
            self._sanitizer.record(f"ShardedMap@{id(self):#x}", write=False)
        keys, top = self._checked(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        return self._cells[self._address(keys, top)]

    def get_or_insert(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Dense slots for ``keys``, inserting missing ones.  Duplicates OK.

        Returns ``(slots, new_mask)`` — ``new_mask`` is True for every
        occurrence of a key first inserted by this call.
        """
        if self._sanitizer is not None:
            self._sanitizer.record(f"ShardedMap@{id(self):#x}", write=True)
        keys, top = self._checked(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64), np.zeros(0, dtype=bool)
        if top >> PAGE_BITS >= len(self._directory):
            self._directory = _fit(self._directory, (top >> PAGE_BITS) + 1)
        addr = self._address(keys, top)
        slots = self._cells[addr]
        new = slots < 0
        if new.any():
            pos = np.flatnonzero(new)
            slots[pos] = self._claim(keys[pos], addr[pos])
        return slots, new

    # -- internals ----------------------------------------------------------
    def _checked(self, keys) -> tuple[np.ndarray, int]:
        """``keys`` as 1-D in-domain int64, plus their maximum."""
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        if keys.ndim != 1:
            raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
        if len(keys) == 0:
            return keys, 0
        # Negative keys wrap above MAX_KEY as uint64: one pass checks both
        # ends of the domain.
        top = int(keys.view(np.uint64).max())
        if top > self.MAX_KEY:
            if keys.min() < 0:
                raise ValueError("keys must be non-negative int64")
            raise ValueError(
                f"key {top} is outside the table's domain "
                f"[0, {self.MAX_KEY}]"
            )
        return keys, top

    def _address(self, keys: np.ndarray, top: int) -> np.ndarray:
        """Cell of each key — on the null page where its page is absent."""
        self.probe_rounds += 1
        page = keys >> PAGE_BITS
        n_dir = len(self._directory)
        if top >> PAGE_BITS < n_dir:
            addr = self._directory[page]
        else:  # keys past every inserted key resolve through the null page
            addr = np.zeros(len(keys), dtype=np.int64)
            inside = page < n_dir
            addr[inside] = self._directory[page[inside]]
        addr <<= PAGE_BITS
        addr |= keys & _LOW
        return addr

    def _claim(self, keys: np.ndarray, addr: np.ndarray) -> np.ndarray:
        """Slots for missing ``keys`` (duplicates OK) at cells ``addr``."""
        on_null = addr < PAGE_SLOTS
        if on_null.any():
            # Allocate the untouched pages, then re-address their keys.
            homeless = keys[on_null]
            pages = homeless >> PAGE_BITS
            fresh = np.unique(pages)
            used = self._n_pages * PAGE_SLOTS
            self._n_pages += len(fresh)
            self._cells = _fit(self._cells, self._n_pages * PAGE_SLOTS, used)
            self._cells[used: self._n_pages * PAGE_SLOTS] = -1
            self._directory[fresh] = np.arange(
                self._n_pages - len(fresh), self._n_pages)
            addr[on_null] = ((self._directory[pages] << PAGE_BITS)
                             | (homeless & _LOW))
        # First-occurrence claim: every occurrence writes its position,
        # back to front, so each cell ends up holding its earliest one.
        # (NumPy assigns repeated indices in order; were that ever to
        # change, slots would still be unique per key — only their
        # numbering would differ.)
        order = np.arange(len(keys))
        self._cells[addr[::-1]] = order[::-1]
        first = self._cells[addr] == order
        claimed = keys[first]
        base = self._n
        self._n += len(claimed)
        self._dense_keys = _fit(self._dense_keys, self._n, base)
        self._dense_keys[base: self._n] = claimed
        self._cells[addr[first]] = np.arange(base, self._n)
        return self._cells[addr]
