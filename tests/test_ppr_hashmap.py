"""Tests for the direct-address slot table (``ShardedMap``): paged, and
key-indexed when its declared domain fits ``KEY_INDEXED_MAX_KEYS``."""

import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ppr.hashmap import (KEY_INDEXED_MAX_KEYS, PAGE_SLOTS,
                                ShardedMap, fit_values)

PAGE_BYTES = PAGE_SLOTS * 8


def i64(*values):
    return np.array(values, dtype=np.int64)


def layouts() -> dict[str, ShardedMap]:
    """One fresh table per layout: no declared domain, a declared domain at
    the key-indexed bound, and one just past it (paged)."""
    return {"undeclared": ShardedMap(),
            "key-indexed": ShardedMap(n_keys=KEY_INDEXED_MAX_KEYS),
            "past the bound": ShardedMap(n_keys=KEY_INDEXED_MAX_KEYS + 1)}


class TestBasics:
    def test_insert_and_lookup(self):
        m = ShardedMap()
        keys = i64(5, 17, 123456789)
        idx, fresh = m.get_or_insert(keys)
        np.testing.assert_array_equal(fresh, [0, 1, 2])
        np.testing.assert_array_equal(idx, [0, 1, 2])  # first-occurrence order
        np.testing.assert_array_equal(m.lookup(keys), idx)
        assert len(m) == 3

    def test_reinsert_returns_same_indices(self):
        m = ShardedMap()
        keys = i64(1, 2, 3)
        idx1, _ = m.get_or_insert(keys)
        idx2, fresh2 = m.get_or_insert(keys)
        np.testing.assert_array_equal(idx1, idx2)
        assert len(fresh2) == 0
        assert len(m) == 3

    def test_partial_overlap(self):
        m = ShardedMap()
        first, _ = m.get_or_insert(i64(10, 20))
        idx, fresh = m.get_or_insert(i64(20, 30))
        np.testing.assert_array_equal(fresh, [1])
        assert idx[0] == first[1]  # 20 keeps its dense slot
        assert idx[1] == 2  # newcomer gets the next dense index

    def test_lookup_missing(self):
        m = ShardedMap()
        m.get_or_insert(i64(7))
        # same page / an untouched page / past the directory's reach
        out = m.lookup(i64(7, 8, 5 * PAGE_SLOTS, 10**9))
        np.testing.assert_array_equal(out, [0, -1, -1, -1])

    def test_lookup_empty_map(self):
        m = ShardedMap()
        np.testing.assert_array_equal(m.lookup(i64(1, 2)), [-1, -1])

    def test_lookup_duplicates_allowed(self):
        for name, m in layouts().items():
            m.get_or_insert(i64(42))
            np.testing.assert_array_equal(m.lookup(i64(42, 42, 42)),
                                          [0, 0, 0], err_msg=name)

    def test_empty_calls(self):
        m = ShardedMap()
        idx, fresh = m.get_or_insert(np.empty(0, dtype=np.int64))
        assert len(idx) == 0 and len(fresh) == 0
        assert len(m.lookup(np.empty(0, dtype=np.int64))) == 0
        assert m.probe_rounds == 0  # only non-empty calls probe

    def test_keys_batch_ordering(self):
        """Slots are numbered by first occurrence, across and within calls,
        in every layout."""
        for name, m in layouts().items():
            m.get_or_insert(i64(100, 50, 100))
            m.get_or_insert(i64(75, 50))
            np.testing.assert_array_equal(m.keys(), [100, 50, 75],
                                          err_msg=name)

    def test_duplicate_keys_in_one_insert(self):
        keys = i64(7, 9, 7, 7, 9, 11)
        for name, m in layouts().items():
            idx, fresh = m.get_or_insert(keys)
            assert len(m) == 3, name
            # only each first-seen key's first occurrence is fresh
            np.testing.assert_array_equal(fresh, [0, 1, 5], err_msg=name)
            np.testing.assert_array_equal(idx, [0, 1, 0, 0, 1, 2],
                                          err_msg=name)
            # re-insert: nothing new
            idx2, fresh2 = m.get_or_insert(keys)
            np.testing.assert_array_equal(idx, idx2, err_msg=name)
            assert len(fresh2) == 0, name

    def test_negative_keys_rejected(self):
        m = ShardedMap()
        with pytest.raises(ValueError, match="non-negative"):
            m.get_or_insert(i64(3, -1))
        with pytest.raises(ValueError, match="non-negative"):
            m.lookup(i64(-5))

    def test_invalid_construction(self):
        """The hash table's tuning options are gone, not deprecated."""
        for option in ("n_submaps", "initial_submap_capacity", "max_load",
                       "max_key"):
            with pytest.raises(TypeError):
                ShardedMap(**{option: 16})

    def test_bad_keys_raise_without_allocating(self):
        """Negative keys, keys at or past the domain's end (``MAX_KEY + 1``
        undeclared, ``n_keys`` declared) and non-1-D arrays raise from
        both calls, in every layout, and leave the table untouched."""
        tables = {"undeclared": ShardedMap(), **{
            f"n_keys={n}": ShardedMap(n_keys=n)
            for n in (100, KEY_INDEXED_MAX_KEYS + 1)}}
        for name, m in tables.items():
            end = m.top_key + 1
            m.get_or_insert(i64(1))
            cells, directory = m._cells, m._directory
            before = cells.copy()
            pages = m.resident_pages
            for bad in (i64(-1), np.zeros((2, 2), dtype=np.int64),
                        i64(0, end), i64(end + 5), i64(2**40)):
                for call in (m.get_or_insert, m.lookup):
                    with pytest.raises(ValueError):
                        call(bad)
            assert m._cells is cells and m._directory is directory, name
            np.testing.assert_array_equal(cells, before, err_msg=name)
            assert (len(m), m.resident_pages) == (1, pages), name
            # the domain's last key is admissible
            idx, _ = m.get_or_insert(i64(end - 1))
            assert m.lookup(i64(end - 1))[0] == idx[0] == 1, name
        assert tables["undeclared"].top_key == ShardedMap.MAX_KEY

    def test_non_integer_keys_rejected(self):
        """Float and bool keys raise instead of being truncated to ints."""
        m = ShardedMap()
        for bad in (np.array([2.7, 3.9]), np.array([True, False]),
                    [2.0], [True]):
            for call in (m.get_or_insert, m.lookup):
                with pytest.raises(ValueError, match="integers"):
                    call(bad)
        assert len(m) == 0 and m.resident_pages == 0
        # integer arrays of any width and lists of Python ints still work
        idx, _ = m.get_or_insert([2, 3])
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(
            m.lookup(np.array([3, 2], dtype=np.uint8)), [1, 0])
        np.testing.assert_array_equal(
            m.get_or_insert(np.array([3, 4], dtype=np.int32))[0], [1, 2])


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        m = ShardedMap()
        n_cells, n_dir = len(m._cells), len(m._directory)
        keys = np.arange(1000, dtype=np.int64) * 997 + 3  # ~244 pages
        idx, fresh = m.get_or_insert(keys)
        np.testing.assert_array_equal(fresh, np.arange(1000))
        assert len(m._cells) > n_cells and len(m._directory) > n_dir
        assert m.rehashes == 0  # pages are appended, never re-placed
        np.testing.assert_array_equal(idx, np.arange(1000))
        np.testing.assert_array_equal(m.lookup(keys), idx)

    def test_dense_indices_stable_across_growth(self):
        m = ShardedMap()
        first = i64(11, 22, 33)
        idx1, _ = m.get_or_insert(first)
        m.get_or_insert(np.arange(5000, dtype=np.int64) * 64 + 1000)
        np.testing.assert_array_equal(m.lookup(first), idx1)

    def test_incremental_inserts(self):
        m = ShardedMap()
        all_keys = []
        rng = np.random.default_rng(0)
        for _ in range(50):
            batch = rng.integers(0, 10**6, size=40)
            m.get_or_insert(batch)
            all_keys.append(batch)
        union = np.unique(np.concatenate(all_keys))
        assert len(m) == len(union)
        assert np.all(m.lookup(union) >= 0)

    def test_fit_values_grows_every_array_to_the_table(self):
        m = ShardedMap()
        values, flags = np.ones(4), np.ones(4, dtype=bool)
        assert fit_values(m, values, flags) == (values, flags)  # fits: as is
        m.get_or_insert(np.arange(9, dtype=np.int64))
        grown_values, grown_flags = fit_values(m, values, flags)
        assert len(grown_values) == len(grown_flags) == 16
        assert grown_flags.dtype == bool
        np.testing.assert_array_equal(grown_values[:4], 1.0)
        assert not grown_values[4:].any() and not grown_flags[4:].any()

    def test_fit_values_grows_an_empty_array(self):
        """A zero-length value array grows like any other (it used to
        double its capacity from 0 forever)."""
        def hung(signum, frame):
            raise TimeoutError("fit_values did not return")

        m = ShardedMap()
        m.get_or_insert(i64(3))
        previous = signal.signal(signal.SIGALRM, hung)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            (grown,) = fit_values(m, np.zeros(0))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        np.testing.assert_array_equal(grown, [0.0])
        m.get_or_insert(np.arange(3, dtype=np.int64))
        assert len(fit_values(m, np.zeros(0, dtype=bool))[0]) == 4


class TestPages:
    """The paper's submap contract, restated for pages."""

    def test_keys_on_different_pages_never_share_a_cell(self):
        """Every page owns one private block of cells, so updates
        partitioned by ``page_of`` touch disjoint memory — no locks."""
        m = ShardedMap()
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 40 * PAGE_SLOTS, size=5000)
        m.get_or_insert(keys)
        occupied = np.flatnonzero(m._cells[: (m.resident_pages + 1)
                                           * PAGE_SLOTS] >= 0)
        block = occupied // PAGE_SLOTS
        page = ShardedMap.page_of(m.keys()[m._cells[occupied]])
        pairs = {(int(p), int(b)) for p, b in zip(page, block)}
        assert len(pairs) == len(set(page.tolist())) == len(set(block.tolist()))
        assert 0 not in block  # the null page is never written

    def test_resident_pages_equal_touched_pages(self):
        m = ShardedMap()
        rng = np.random.default_rng(4)
        touched = set()
        for _ in range(20):
            batch = rng.integers(0, 3000 * PAGE_SLOTS, size=30)
            m.get_or_insert(batch)
            touched |= set(ShardedMap.page_of(batch).tolist())
            assert m.resident_pages == len(touched)

    def test_lookups_never_allocate(self):
        m = ShardedMap()
        m.get_or_insert(i64(1, PAGE_SLOTS + 1))
        cells, directory = m._cells, m._directory
        before = cells.copy()
        probe = np.arange(0, 10**8, 9973, dtype=np.int64)
        assert (m.lookup(probe) >= 0).sum() == 0
        assert m._cells is cells and m._directory is directory
        assert m.resident_pages == 2 and len(m) == 2
        np.testing.assert_array_equal(cells, before)


def engine_batches():
    """Key batches shaped like a push's: packed ``(local * K + shard) * B +
    qid`` ids over a small |V|, with heavy duplication inside a call."""
    return st.integers(1, 64).flatmap(lambda scale: st.lists(
        st.lists(st.integers(0, 3000 * scale), min_size=0, max_size=120)
        .map(lambda xs: xs + xs[: len(xs) // 2]),
        min_size=1, max_size=8,
    ))


class TestProperties:
    @given(engine_batches())
    @settings(max_examples=100, deadline=None)
    def test_behaves_like_dict(self, batches):
        """Slots, ``fresh`` and ``keys()`` agree with a Python dict in
        first-occurrence order after every call: ``fresh`` is exactly the
        first occurrences of previously absent keys, ascending, and they
        take the slots ``before .. after - 1`` in that order.  Every layout
        gives the same arrays, byte for byte."""
        tables = layouts()
        oracle: dict[int, int] = {}
        calls = 0
        for raw in batches:
            batch = np.array(raw, dtype=np.int64)
            before = len(oracle)
            first_absent = []
            for i, k in enumerate(raw):
                if k not in oracle:
                    oracle[k] = len(oracle)
                    first_absent.append(i)
            calls += bool(raw)
            seen = []
            for m in tables.values():
                idx, fresh = m.get_or_insert(batch)
                assert idx.tolist() == [oracle[k] for k in raw]
                assert fresh.tolist() == first_absent
                assert idx[fresh].tolist() == list(range(before, len(oracle)))
                assert m.keys()[before:].tolist() == batch[fresh].tolist()
                assert m.keys().tolist() == list(oracle)
                assert len(m) == len(oracle)
                seen.append((idx.dtype, fresh.dtype, idx.tobytes(),
                             fresh.tobytes(), m.keys().tobytes()))
            assert seen[1:] == seen[:-1]
        probe = np.arange(0, max(oracle, default=0) + 2 * PAGE_SLOTS, 7,
                          dtype=np.int64)
        touched = len({k // PAGE_SLOTS for k in oracle})
        for name, m in tables.items():
            assert m.lookup(probe).tolist() == [oracle.get(k, -1)
                                                for k in probe.tolist()]
            assert (m.probe_rounds, m.rehashes) == (calls + 1, 0)
            assert m.resident_pages == (
                KEY_INDEXED_MAX_KEYS // PAGE_SLOTS if m.key_indexed
                else touched), name
        assert [m.key_indexed for m in tables.values()] == [
            False, True, False]

    @given(st.integers(1, 2000), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_bulk_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, 2**24, size=n))
        m = ShardedMap()
        idx, _ = m.get_or_insert(keys)
        np.testing.assert_array_equal(idx, np.arange(len(keys)))
        np.testing.assert_array_equal(m.lookup(keys), idx)
        np.testing.assert_array_equal(m.keys(), keys)


@pytest.mark.slow
class TestScaling:
    def test_per_key_cost_does_not_grow_with_residents(self):
        """No probing, no rehash: the same push-shaped batch costs the same
        against 8 k resident keys as against 512 k."""
        batch = np.random.default_rng(9).integers(0, 8_192, size=50_000)
        per_key = {}
        for residents in (8_192, 524_288):
            m = ShardedMap()
            m.get_or_insert(np.arange(residents, dtype=np.int64))
            best = float("inf")
            for _ in range(25):
                start = time.perf_counter()
                m.get_or_insert(batch)
                best = min(best, time.perf_counter() - start)
            per_key[residents] = best / len(batch)
        assert per_key[524_288] < 2.0 * per_key[8_192], per_key

    def test_peak_table_bytes_track_touched_pages(self):
        """Paged memory follows the pages touched, not the key range
        spanned, with or without a declared domain past the key-indexed
        bound; a key-indexed table's cells are its domain, exactly."""
        def peak_bytes(keys, n_keys=None) -> int:
            tracemalloc.start()
            try:
                m = ShardedMap(n_keys)
                for chunk in np.array_split(keys, max(1, len(keys) // 2048)):
                    m.get_or_insert(chunk)  # push-sized calls
                if m.key_indexed:
                    assert m._cells.nbytes == 8 * n_keys
                    assert m.resident_pages == -(-n_keys // PAGE_SLOTS)
                else:
                    assert m.resident_pages == len(np.unique(keys >> 12))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        span = 2**26
        dense = np.arange(512 * 1024, dtype=np.int64)             # 128 pages
        sparse = np.arange(128, dtype=np.int64) * (span // 128)   # 128 pages
        wide = np.arange(1024, dtype=np.int64) * (span // 1024)   # 1024 pages
        for n_keys in (None, span):
            assert span > KEY_INDEXED_MAX_KEYS  # declared, yet paged
            for keys, pages in ((dense, 128), (sparse, 128), (wide, 1024)):
                # growing by doubling holds an old and a new copy at the
                # peak; the dense side, the directory and a call's
                # temporaries ride along
                riders = 2 * 8 * len(keys) + 3 * 8 * (span >> 12) + 2**20
                assert peak_bytes(keys, n_keys) <= (4 * pages * PAGE_BYTES
                                                    + riders)
            assert peak_bytes(wide, n_keys) > 4 * peak_bytes(sparse, n_keys)
        # Key-indexed: one fill of the whole domain, however few keys it
        # holds, and nothing grown after it.
        cells = 8 * KEY_INDEXED_MAX_KEYS
        few = np.arange(128, dtype=np.int64) * (KEY_INDEXED_MAX_KEYS // 128)
        for keys in (dense, few):
            riders = 2 * 8 * len(keys) + 2**20
            assert cells <= peak_bytes(keys, KEY_INDEXED_MAX_KEYS) \
                <= cells + riders
