"""Direct-address slot table — key -> dense slot, no hashing.

The paper's C++ PPR operators store ``<local ID, shard ID> -> value`` pairs
in greg7mdp/parallel-hashmap: a table split into submaps, with updates
partitioned across threads *by submap index* so no locks are needed.  Those
keys are a dense domain — the engine packs node ids (and ``id * B + qid``
for fused batches) into ``[0, |V| B)`` — so this module addresses them
directly instead of hashing them, in one of two layouts:

* **key-indexed** — when the caller declares its key domain ``n_keys`` and
  it fits ``KEY_INDEXED_MAX_KEYS`` (2**20 keys: 8 MiB of cells), the cells
  are one int64 array indexed by key, filled with -1 once at construction.
  A key's cell *is* the key: ``lookup`` is one gather, and
  ``get_or_insert`` one gather plus the claim below.  No page is ever
  allocated and the cells never grow;
* **paged** — with no declared domain, or one past the bound, a **page
  directory** indexed by ``key >> PAGE_BITS`` names the page a key lives
  on; pages are ``PAGE_SLOTS`` cells (32 KiB), allocated on first touch,
  so memory is O(touched pages) and nothing is ever re-placed.  Each
  directory entry is stored *pre-offset*, as ``(physical page - page) <<
  PAGE_BITS``, so a key's cell is ``key + directory[key >> PAGE_BITS]`` —
  a shift, a gather and an add.  Page 0 is a permanent all-missing *null
  page* every unallocated directory entry points at (its entry is ``-page
  << PAGE_BITS``, so the cell is ``key & _LOW``), and absent keys need no
  branch.  It is the only layout that holds keys up to ``MAX_KEY``.

Why the bound: a PPR state over a small domain touches every page of
it, however few of its keys.  A census of every state at seed 11 (25
``ssppr_products`` batches, 4 ``ssppr_twitter`` batches, 300
``serve_mixed`` drains with B = 1–7) found every page of the domain
resident when each query ended (7 of 7, 11 of 11, and 11.6 of 11.6 on
average), so paging saved no memory while every key paid for the
directory and every first touch for a page claim.  Up to 8 MiB one fill
at construction is the cheaper price; it covers every perfbench workload
and a 24-query batch on the twitter stand-in (41 700 × 24 keys).  Past it
— the paper's regime, where a query touches a sliver of |V| — memory has
to follow the touched pages, and the paged layout stays.

Both layouts behave alike, byte for byte:

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
* a key outside the domain (negative, or past ``n_keys - 1`` / ``MAX_KEY``)
  raises ``ValueError`` before anything is written or allocated;
* the table stores only key -> *dense slot*.  Values live in caller-owned
  slot-indexed arrays (:func:`fit_values` grows them), exactly like the
  slot/value split in the paper's operators;
* the paper's lock-free contract is a property of pages: keys on different
  pages (:meth:`ShardedMap.page_of`) never share a cell, so updates
  partitioned by page need no locks — the submap rule, without the hash.

The module and class keep their historical names because the wall-clock
benchmark patches ``repro.ppr.hashmap.ShardedMap`` by name; the rename
waits for ROADMAP item 1b.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_int

PAGE_BITS = 12
PAGE_SLOTS = 1 << PAGE_BITS
_LOW = PAGE_SLOTS - 1
_INT64 = np.dtype(np.int64)
#: largest declared domain held key-indexed: 2**20 keys, 8 MiB of cells
KEY_INDEXED_MAX_KEYS = 1 << 20


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
    """Direct-address int64 -> dense-slot table: key-indexed when its
    declared domain ``n_keys`` fits ``KEY_INDEXED_MAX_KEYS``, else paged."""

    #: race-sanitizer hook (repro.analysis.race.installed).  Class-level and
    #: None by default: the off path costs one attribute check per *batched*
    #: call, so instrumentation is zero-overhead when disabled.
    _sanitizer = None

    #: largest admissible key.  The directory holds one word per page up to
    #: the largest key *seen* (at most 2**22 words); a key past the bound
    #: raises before anything is allocated.
    MAX_KEY = (1 << 34) - 1

    def __init__(self, n_keys: int | None = None) -> None:
        if n_keys is not None:
            check_int("n_keys", n_keys, positive=True)
            if n_keys > self.MAX_KEY + 1:
                raise ValueError(
                    f"n_keys must be <= {self.MAX_KEY + 1}, got {n_keys!r}")
            n_keys = int(n_keys)
        #: largest admissible key: the declared domain's last, or MAX_KEY
        self.top_key = self.MAX_KEY if n_keys is None else n_keys - 1
        if n_keys is not None and n_keys <= KEY_INDEXED_MAX_KEYS:
            # Key-indexed: a key's cell is the key itself, and every page
            # of the domain is resident from the start.
            self._directory = None
            self._cells = np.full(n_keys, -1, dtype=np.int64)
            self._n_pages = 1 + -(-n_keys // PAGE_SLOTS)
        else:
            self._directory = _null_entries(0, 16)
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
    def key_indexed(self) -> bool:
        """Whether the cells are one key-indexed array (no page directory)."""
        return self._directory is None

    @property
    def resident_pages(self) -> int:
        """Pages allocated so far (== distinct pages ever inserted into);
        a key-indexed table holds its whole domain's pages."""
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
        self.probe_rounds += 1
        if self._directory is None:
            return self._cells.take(keys)
        return self._cells.take(self._address(keys, top))

    def get_or_insert(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Dense slots for ``keys``, inserting missing ones.  Duplicates OK.

        Returns ``(slots, fresh)``: ``fresh`` holds the ascending positions
        in ``keys`` of each newly inserted key's first occurrence, and
        those keys took the slots ``before .. after - 1`` in that order
        (``before`` / ``after`` being ``len(self)`` around the call).
        """
        if self._sanitizer is not None:
            self._sanitizer.record(f"ShardedMap@{id(self):#x}", write=True)
        keys, top = self._checked(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        self.probe_rounds += 1
        paged = self._directory is not None
        if paged:
            n_dir = len(self._directory)
            if top >> PAGE_BITS >= n_dir:
                grown = _fit(self._directory, (top >> PAGE_BITS) + 1)
                grown[n_dir:] = _null_entries(n_dir, len(grown))
                self._directory = grown
            addr = self._address(keys, top)
        else:
            addr = keys
        slots = self._cells.take(addr)
        missing = np.flatnonzero(slots < 0)
        if len(missing) == 0:
            return slots, missing
        where = addr.take(missing)
        if paged and where.min() < PAGE_SLOTS:
            self._allocate(keys, missing, where)
        return slots, self._claim(keys, where, slots, missing)

    # -- internals ----------------------------------------------------------
    def _checked(self, keys) -> tuple[np.ndarray, int]:
        """``keys`` as 1-D in-domain int64, plus their maximum."""
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
            return keys, 0
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
        return keys, top

    def _address(self, keys: np.ndarray, top: int) -> np.ndarray:
        """Paged cell of each key — on the null page where its page is
        absent."""
        page = keys >> PAGE_BITS
        n_dir = len(self._directory)
        if top >> PAGE_BITS < n_dir:
            addr = self._directory.take(page)
            addr += keys
        else:  # keys past every inserted key resolve through the null page
            addr = keys & _LOW
            inside = np.flatnonzero(page < n_dir)
            addr[inside] = keys[inside] + self._directory[page[inside]]
        return addr

    def _allocate(self, keys: np.ndarray, missing: np.ndarray,
                  where: np.ndarray) -> None:
        """Allocate the untouched pages of ``keys[missing]``, then
        re-address in ``where`` those that were on the null page."""
        on_null = where < PAGE_SLOTS
        homeless = keys[missing[on_null]]
        pages = homeless >> PAGE_BITS
        fresh = np.unique(pages)
        used = self._n_pages * PAGE_SLOTS
        self._n_pages += len(fresh)
        self._cells = _fit(self._cells, self._n_pages * PAGE_SLOTS, used)
        self._cells[used: self._n_pages * PAGE_SLOTS] = -1
        self._directory[fresh] = (
            np.arange(self._n_pages - len(fresh), self._n_pages) - fresh
        ) << PAGE_BITS
        where[on_null] = homeless + self._directory[pages]

    def _claim(self, keys: np.ndarray, where: np.ndarray, slots: np.ndarray,
               missing: np.ndarray) -> np.ndarray:
        """Claim slots for ``keys[missing]`` (duplicates OK) at cells
        ``where`` and write them into ``slots``; returns the positions in
        ``keys`` of each claimed key's first occurrence."""
        # First-occurrence claim: every occurrence writes its position,
        # back to front, so each cell ends up holding its earliest one.
        # (NumPy assigns repeated indices in order; were that ever to
        # change, slots would still be unique per key — only their
        # numbering would differ.)
        self._cells[where[::-1]] = missing[::-1]
        is_first = self._cells.take(where) == missing
        # compress, not a boolean index: several times faster on a mask
        # this unpredictable
        first = missing.compress(is_first)
        base = self._n
        self._n += len(first)
        self._dense_keys = _fit(self._dense_keys, self._n, base)
        claimed = self._dense_keys[base: self._n]
        keys.take(first, out=claimed, mode="clip")
        # a key-indexed claimed key is its own cell
        self._cells[claimed if self._directory is None
                    else where.compress(is_first)] = np.arange(base, self._n)
        slots[missing] = self._cells.take(where)
        return first


def _null_entries(start: int, stop: int) -> np.ndarray:
    """Directory entries for pages ``start .. stop - 1`` pointing at the
    null page: ``(0 - page) << PAGE_BITS``."""
    return -np.arange(start, stop, dtype=np.int64) << PAGE_BITS
