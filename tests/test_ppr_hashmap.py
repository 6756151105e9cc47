"""Tests for the direct-address slot table (``ShardedMap``): one
key-indexed cell per key of its declared domain."""

import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ppr.hashmap import ShardedMap, fit_values

#: the declared domain of the tests' tables: 2**20 keys, 8 MiB of cells
DOMAIN = 1 << 20


def i64(*values):
    return np.array(values, dtype=np.int64)


def table() -> ShardedMap:
    return ShardedMap(DOMAIN)


class TestBasics:
    def test_insert_and_lookup(self):
        m = table()
        keys = i64(5, 17, DOMAIN - 1)
        idx, fresh = m.get_or_insert(keys)
        np.testing.assert_array_equal(fresh, [0, 1, 2])
        np.testing.assert_array_equal(idx, [0, 1, 2])  # first-occurrence order
        np.testing.assert_array_equal(m.lookup(keys), idx)
        assert len(m) == 3

    def test_reinsert_returns_same_indices(self):
        m = table()
        keys = i64(1, 2, 3)
        idx1, _ = m.get_or_insert(keys)
        idx2, fresh2 = m.get_or_insert(keys)
        np.testing.assert_array_equal(idx1, idx2)
        assert len(fresh2) == 0
        assert len(m) == 3

    def test_partial_overlap(self):
        m = table()
        first, _ = m.get_or_insert(i64(10, 20))
        idx, fresh = m.get_or_insert(i64(20, 30))
        np.testing.assert_array_equal(fresh, [1])
        assert idx[0] == first[1]  # 20 keeps its dense slot
        assert idx[1] == 2  # newcomer gets the next dense index

    def test_lookup_missing(self):
        m = table()
        m.get_or_insert(i64(7))
        out = m.lookup(i64(7, 8, 5 * 4096, DOMAIN - 1))
        np.testing.assert_array_equal(out, [0, -1, -1, -1])

    def test_lookup_empty_map(self):
        m = table()
        np.testing.assert_array_equal(m.lookup(i64(1, 2)), [-1, -1])

    def test_lookup_duplicates_allowed(self):
        m = table()
        m.get_or_insert(i64(42))
        np.testing.assert_array_equal(m.lookup(i64(42, 42, 42)), [0, 0, 0])

    def test_empty_calls(self):
        m = table()
        idx, fresh = m.get_or_insert(np.empty(0, dtype=np.int64))
        assert len(idx) == 0 and len(fresh) == 0
        assert len(m.lookup(np.empty(0, dtype=np.int64))) == 0
        assert m.probe_rounds == 0  # only non-empty calls probe

    def test_keys_batch_ordering(self):
        """Slots are numbered by first occurrence, across and within
        calls."""
        m = table()
        m.get_or_insert(i64(100, 50, 100))
        m.get_or_insert(i64(75, 50))
        np.testing.assert_array_equal(m.keys(), [100, 50, 75])

    def test_duplicate_keys_in_one_insert(self):
        keys = i64(7, 9, 7, 7, 9, 11)
        m = table()
        idx, fresh = m.get_or_insert(keys)
        assert len(m) == 3
        # only each first-seen key's first occurrence is fresh
        np.testing.assert_array_equal(fresh, [0, 1, 5])
        np.testing.assert_array_equal(idx, [0, 1, 0, 0, 1, 2])
        # re-insert: nothing new
        idx2, fresh2 = m.get_or_insert(keys)
        np.testing.assert_array_equal(idx, idx2)
        assert len(fresh2) == 0

    def test_negative_keys_rejected(self):
        m = table()
        with pytest.raises(ValueError, match="non-negative"):
            m.get_or_insert(i64(3, -1))
        with pytest.raises(ValueError, match="non-negative"):
            m.lookup(i64(-5))

    def test_invalid_construction(self):
        """The hash table's tuning options are gone, not deprecated, and
        the domain is required."""
        for option in ("n_submaps", "initial_submap_capacity", "max_load",
                       "max_key"):
            with pytest.raises(TypeError):
                ShardedMap(**{option: 16})
        with pytest.raises(TypeError):
            ShardedMap()

    def test_bad_keys_raise_without_allocating(self):
        """Negative keys, keys at or past the domain's end ``n_keys`` and
        non-1-D arrays raise from both calls and leave the table
        untouched."""
        for n_keys in (100, DOMAIN):
            m = ShardedMap(n_keys)
            assert m.top_key == n_keys - 1
            m.get_or_insert(i64(1))
            cells = m._cells
            before = cells.copy()
            for bad, error in ((i64(-1), "non-negative"),
                               (np.zeros((2, 2), dtype=np.int64), "1-D"),
                               (i64(0, n_keys), "outside the table's domain"),
                               (i64(n_keys + 5), "outside"),
                               (i64(2**40), "outside")):
                for call in (m.get_or_insert, m.lookup):
                    with pytest.raises(ValueError, match=error):
                        call(bad)
            assert m._cells is cells, n_keys
            np.testing.assert_array_equal(cells, before, err_msg=str(n_keys))
            assert len(m) == 1, n_keys
            # the domain's last key is admissible
            idx, _ = m.get_or_insert(i64(n_keys - 1))
            assert m.lookup(i64(n_keys - 1))[0] == idx[0] == 1, n_keys

    def test_non_integer_keys_rejected(self):
        """Float and bool keys raise instead of being truncated to ints."""
        m = table()
        for bad in (np.array([2.7, 3.9]), np.array([True, False]),
                    [2.0], [True]):
            for call in (m.get_or_insert, m.lookup):
                with pytest.raises(ValueError, match="integers"):
                    call(bad)
        assert len(m) == 0 and (m._cells == -1).all()
        # integer arrays of any width and lists of Python ints still work
        idx, _ = m.get_or_insert([2, 3])
        np.testing.assert_array_equal(idx, [0, 1])
        np.testing.assert_array_equal(
            m.lookup(np.array([3, 2], dtype=np.uint8)), [1, 0])
        np.testing.assert_array_equal(
            m.get_or_insert(np.array([3, 4], dtype=np.int32))[0], [1, 2])


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        m = table()
        cells, n_dense = m._cells, len(m._dense_keys)
        keys = np.arange(5000, dtype=np.int64) * 199 + 3
        idx, fresh = m.get_or_insert(keys)
        np.testing.assert_array_equal(fresh, np.arange(5000))
        # the dense side grows; the cells are the domain and never do
        assert len(m._dense_keys) > n_dense and m._cells is cells
        assert m._cells.nbytes == 8 * DOMAIN
        assert m.rehashes == 0  # a cell is never re-placed
        np.testing.assert_array_equal(idx, np.arange(5000))
        np.testing.assert_array_equal(m.lookup(keys), idx)

    def test_dense_indices_stable_across_growth(self):
        m = table()
        first = i64(11, 22, 33)
        idx1, _ = m.get_or_insert(first)
        m.get_or_insert(np.arange(5000, dtype=np.int64) * 64 + 1000)
        np.testing.assert_array_equal(m.lookup(first), idx1)

    def test_incremental_inserts(self):
        m = table()
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
        m = table()
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

        m = table()
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


class TestCells:
    """The paper's submap contract, restated for cells."""

    def test_distinct_keys_never_share_a_cell(self):
        """A key's cell is the key itself, so updates partitioned by key
        touch disjoint memory — no locks."""
        m = table()
        keys = np.random.default_rng(3).integers(0, DOMAIN, size=5000)
        slots, _ = m.get_or_insert(keys)
        np.testing.assert_array_equal(m._cells[keys], slots)
        occupied = np.flatnonzero(m._cells >= 0)
        np.testing.assert_array_equal(occupied, np.unique(keys))

    def test_lookups_never_write(self):
        m = table()
        m.get_or_insert(i64(1, 4097))
        cells = m._cells
        before = cells.copy()
        probe = np.arange(0, DOMAIN, 9973, dtype=np.int64)
        assert (m.lookup(probe) >= 0).sum() == 0
        assert m._cells is cells and len(m) == 2
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
        take the slots ``before .. after - 1`` in that order."""
        m = table()
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
            idx, fresh = m.get_or_insert(batch)
            assert idx.dtype == fresh.dtype == np.int64
            assert idx.tolist() == [oracle[k] for k in raw]
            assert fresh.tolist() == first_absent
            assert idx[fresh].tolist() == list(range(before, len(oracle)))
            assert m.keys()[before:].tolist() == batch[fresh].tolist()
            assert m.keys().tolist() == list(oracle)
            assert len(m) == len(oracle)
        probe = np.arange(0, max(oracle, default=0) + 8192, 7,
                          dtype=np.int64)
        assert m.lookup(probe).tolist() == [oracle.get(k, -1)
                                            for k in probe.tolist()]
        assert (m.probe_rounds, m.rehashes) == (calls + 1, 0)

    @given(st.integers(1, 2000), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_bulk_roundtrip(self, n, seed):
        rng = np.random.default_rng(seed)
        keys = np.unique(rng.integers(0, DOMAIN, size=n))
        m = table()
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
            m = table()
            m.get_or_insert(np.arange(residents, dtype=np.int64))
            best = float("inf")
            for _ in range(25):
                start = time.perf_counter()
                m.get_or_insert(batch)
                best = min(best, time.perf_counter() - start)
            per_key[residents] = best / len(batch)
        assert per_key[524_288] < 2.0 * per_key[8_192], per_key
