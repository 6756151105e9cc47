"""Tests for the remote fetch path (``repro.storage.fetch``).

Every remote ``get_neighbor_infos`` is one ``DistGraphStorage`` call:
the all-or-nothing halo-cache shortcut (``GraphShard.cache_mask``), or
one batched RPC whose future reaches the driver as is.  What
``NeighborFetchService`` adds is the per-machine demand ledger
(:class:`FetchCache`), whose counts are a run's heat.  Checked here:

* heat equals an oracle that counts the ids of every non-local request,
  on both runtimes, and ``rpc.calls_remote`` equals the number of those
  requests when there is no halo cache;
* the halo shortcut answers a fully covered request locally, and one
  uncovered id sends the whole batch over the wire;
* the wire-format helpers the halo cache rests on
  (``NeighborBatch.take_rows`` / ``NeighborBatch.merge``, which
  ``GraphShard.install_halo_rows`` uses).
"""

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, GraphEngine, PPRParams, RunRequest
from repro.engine.cluster import deploy
from repro.errors import ShardError
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner
from repro.rpc.rref import RRef
from repro.rpc.thread_runtime import ThreadFuture, ThreadRuntime
from repro.serving import Session, SessionConfig
from repro.simt import Wait
from repro.storage import DistGraphStorage, FetchCache, \
    NeighborFetchService, build_shards
from repro.storage.neighbor_batch import NeighborBatch


def make_batch(ids, salt=0.0):
    """A deterministic batch for node ``ids``: row i has (i % 3) + 1
    neighbors, all fields pure functions of the node id (and ``salt``,
    which shifts the weights) — so any subset request is consistent with
    any other of the same salt."""
    ids = np.asarray(ids, dtype=np.int64)
    counts = (ids % 3) + 1
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    offset = np.arange(total) - np.repeat(indptr[:-1], counts)
    nbrs = np.repeat(ids * 10, counts) + offset
    weights = nbrs.astype(np.float64) + 0.5 + salt
    wdeg = weights * 2.0
    src_wdeg = ids.astype(np.float64) + 1.0
    return NeighborBatch(indptr, nbrs, weights, wdeg, src_wdeg)


def assert_batches_equal(a, b):
    for x, y in zip(a.to_arrays(), b.to_arrays()):
        np.testing.assert_array_equal(x, y)


class _StubShard:
    has_halo_cache = False
    #: the address book the storage facade reads at construction
    base = np.array([0, 1000, 2000], dtype=np.int64)


class _StubRref(RRef):
    """Shard ``shard``'s storage RRef, owned by the caller's machine iff
    ``shard == 0``: every call resolves immediately to :func:`make_batch`
    and is recorded in ``calls`` as ``(shard, ids)``."""

    def __init__(self, ctx, shard, calls):
        super().__init__(ctx, f"server:{shard}", "storage")
        self.shard = shard
        self.calls = calls

    def is_owner(self, caller_worker):
        return self.shard == 0

    def local_value(self):
        return _StubShard()

    def rpc_async(self, caller, method, ids):
        ids = np.asarray(ids, dtype=np.int64)
        self.calls.append((self.shard, ids.copy()))
        return ThreadFuture.resolved(make_batch(ids))


def make_service():
    """A service for shard 0 of two over stub RRefs; returns it with the
    recorded ``(shard, ids)`` calls and its ledger."""
    ctx = ThreadRuntime()
    calls = []
    rrefs = [_StubRref(ctx, shard, calls) for shard in range(2)]
    ledger = FetchCache()
    return NeighborFetchService(rrefs, 0, "w0-0", ledger), calls, ledger


# ---------------------------------------------------------------------------
# GraphShard.cache_mask
# ---------------------------------------------------------------------------

class TestCacheMask:
    @pytest.fixture(scope="class")
    def sharded(self):
        g = powerlaw_cluster(200, 5, seed=3)
        return build_shards(g, HashPartitioner().partition(g, 2),
                            halo_hops=2)

    def test_mask_splits_halo_from_core(self, sharded):
        shard0 = sharded.shards[0]
        halos = shard0.halo_nodes()
        covered = halos[:5]
        uncovered = np.setdiff1d(
            np.arange(sharded.base[1], sharded.base[2]), halos)[:5]
        mixed = np.concatenate([covered, uncovered])
        mask = shard0.cache_mask(mixed)
        assert mask.dtype == bool
        assert mask[:len(covered)].all()
        assert not mask[len(covered):].any()

    def test_mask_all_agrees_with_cache_covers(self, sharded):
        """The facade's all-or-nothing shortcut is ``cache_mask(...).all()``:
        a fully covered request is served by ``get_cached_batch``, and one
        uncovered node makes that raise."""
        shard0 = sharded.shards[0]
        covered = shard0.halo_nodes()[:8]
        assert shard0.cache_mask(covered).all()
        assert shard0.get_cached_batch(covered).n_sources == len(covered)
        own = np.append(covered, sharded.base[0])  # a core node: not halo
        assert not shard0.cache_mask(own).all()
        with pytest.raises(ShardError, match="halo cache miss"):
            shard0.get_cached_batch(own)

    def test_mask_without_cache_is_all_false(self):
        g = powerlaw_cluster(100, 4, seed=0)
        sharded = build_shards(g, HashPartitioner().partition(g, 2))
        shard0 = sharded.shards[0]
        assert not shard0.has_halo_cache
        mask = shard0.cache_mask(np.array([0, 1, 2], dtype=np.int64))
        assert mask.shape == (3,) and not mask.any()


# ---------------------------------------------------------------------------
# take_rows / merge
# ---------------------------------------------------------------------------

class TestTakeRowsMerge:
    def test_take_rows_identity(self):
        full = make_batch(np.arange(6))
        assert_batches_equal(full.take_rows(np.arange(6)), full)

    def test_take_rows_reorders(self):
        full = make_batch(np.array([3, 1, 4, 1 + 4, 9]))
        sub = full.take_rows(np.array([4, 0, 2]))
        direct = make_batch(np.array([9, 3, 4]))
        assert_batches_equal(sub, direct)

    def test_merge_overlap_raises(self):
        full = make_batch(np.arange(4))
        a = full.take_rows(np.array([0, 1]))
        b = full.take_rows(np.array([1, 2, 3]))
        with pytest.raises(ShardError, match="overlap"):
            NeighborBatch.merge(4, [(np.array([0, 1]), a),
                                    (np.array([1, 2, 3]), b)])

    def test_merge_incomplete_raises(self):
        full = make_batch(np.arange(4))
        a = full.take_rows(np.array([0, 1]))
        with pytest.raises(ShardError, match="cover"):
            NeighborBatch.merge(4, [(np.array([0, 1]), a)])

    def test_merge_row_count_mismatch_raises(self):
        full = make_batch(np.arange(4))
        a = full.take_rows(np.array([0, 1]))
        with pytest.raises(ShardError, match="positions"):
            NeighborBatch.merge(4, [(np.array([0, 1, 2]), a),
                                    (np.array([3]),
                                     full.take_rows(np.array([3])))])


@st.composite
def batch_partitions(draw):
    """A deterministic batch plus a random exact partition of its rows."""
    n = draw(st.integers(min_value=1, max_value=20))
    ids = draw(st.lists(st.integers(min_value=0, max_value=50),
                        min_size=n, max_size=n))
    perm = draw(st.permutations(list(range(n))))
    n_parts = draw(st.integers(min_value=1, max_value=n))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=n - 1) if n > 1
        else st.nothing(),
        min_size=n_parts - 1, max_size=n_parts - 1, unique=True,
    ))) if n > 1 else []
    bounds = [0, *cuts, n]
    parts = [perm[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]
    return np.asarray(ids, dtype=np.int64), parts


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(batch_partitions())
    def test_split_merge_round_trip_bitwise(self, case):
        """Any partition of a batch, in any row order, merges back to the
        original bit-for-bit — what ``install_halo_rows`` relies on."""
        ids, parts = case
        full = make_batch(ids)
        pieces = [(np.asarray(p, dtype=np.int64),
                   full.take_rows(np.asarray(p, dtype=np.int64)))
                  for p in parts]
        merged = NeighborBatch.merge(len(ids), pieces)
        assert_batches_equal(merged, full)


# ---------------------------------------------------------------------------
# FetchCache: the demand ledger
# ---------------------------------------------------------------------------

def ids_lists():
    return st.lists(st.lists(st.integers(min_value=0, max_value=40),
                             min_size=1, max_size=6),
                    min_size=0, max_size=12)


class TestFetchCache:
    def test_heat_counts_every_id_of_every_request(self):
        ledger = FetchCache()
        ledger.admit(np.array([5, 6, 5], dtype=np.int64))
        ledger.admit(np.array([6, 9], dtype=np.int64))
        heat = ledger.heat()
        assert heat == {5: 2, 6: 2, 9: 1}
        assert all(type(k) is int and type(v) is int
                   for k, v in heat.items())

    def test_empty_ledger_has_no_heat(self):
        assert FetchCache().heat() == {}

    def test_concurrent_admits_lose_no_request(self):
        """Eight threads (more than cores) share one ledger, switching
        as often as the interpreter allows: every request is counted."""
        ledger = FetchCache()
        requests = [np.arange(t, t + 5, dtype=np.int64) for t in range(8)]

        def admit_all(ids):
            for _ in range(300):
                ledger.admit(ids)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=admit_all, args=(ids,))
                       for ids in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        oracle = Counter(i for ids in requests for i in ids.tolist() * 300)
        assert ledger.heat() == dict(oracle)

    @settings(max_examples=40, deadline=None)
    @given(ids_lists(), st.randoms(use_true_random=False))
    def test_admission_sequence_is_deterministic(self, seq, rng):
        """Heat is the multiset count of the admitted ids, whatever order
        the machine's processes admitted their requests in."""
        a, b = FetchCache(), FetchCache()
        for ids in seq:
            a.admit(np.asarray(ids, dtype=np.int64))
        shuffled = list(seq)
        rng.shuffle(shuffled)
        for ids in shuffled:
            b.admit(np.asarray(ids, dtype=np.int64))
        oracle = Counter(i for ids in seq for i in ids)
        assert a.heat() == b.heat() == dict(oracle)


# ---------------------------------------------------------------------------
# NeighborFetchService over stub RRefs
# ---------------------------------------------------------------------------

class TestFetchService:
    def test_local_and_delegated_surface(self):
        svc, calls, ledger = make_service()
        assert svc.n_shards == 2 and svc.shard_id == 0
        assert svc.compress and svc.is_local(0) and not svc.is_local(1)
        svc.get_neighbor_infos(0, np.array([1, 2]))  # local: the raw path
        assert calls[0][0] == 0
        assert np.array_equal(calls[0][1], np.array([1, 2]))
        assert ledger.heat() == {}  # local demand is not heat

    def test_pure_miss_passthrough_returns_raw_future(self):
        """A remote fetch is the storage call's own future: no merge."""
        svc, calls, ledger = make_service()
        ids = np.array([1, 2], dtype=np.int64)
        fut = svc.get_neighbor_infos(1, ids)
        assert isinstance(fut, ThreadFuture) and fut.done
        assert_batches_equal(fut.value(), make_batch(ids))
        assert len(calls) == 1 and ledger.heat() == {1: 1, 2: 1}

    def test_coalesce_off_refetches(self):
        """Nothing coalesces or caches: overlapping and repeated requests
        each send their whole batch."""
        svc, calls, ledger = make_service()
        for ids in ([5, 6, 7], [6, 7, 8], [5, 6, 7]):
            svc.get_neighbor_infos(1, np.array(ids)).value()
        assert [list(ids) for _, ids in calls] == \
            [[5, 6, 7], [6, 7, 8], [5, 6, 7]]
        assert ledger.heat() == {5: 2, 6: 3, 7: 3, 8: 1}

    def test_empty_request_records_nothing(self):
        svc, _, ledger = make_service()
        svc.get_neighbor_infos(1, np.array([], dtype=np.int64))
        assert ledger.heat() == {}

    def test_out_of_range_shard_is_typed(self):
        svc, _, _ = make_service()
        with pytest.raises(ShardError, match="dest_shard"):
            svc.get_neighbor_infos(2, np.array([1]))


# ---------------------------------------------------------------------------
# the remote path on a real deployment
# ---------------------------------------------------------------------------

PARAMS = PPRParams(epsilon=1e-5)


@pytest.fixture(scope="module")
def hub_graph():
    return powerlaw_cluster(500, 6, mixing=0.4, seed=13)


def recorded_requests(monkeypatch):
    """Log ``(caller shard, dest shard, ids, local)`` for every
    ``get_neighbor_infos`` the storage facade serves."""
    log = []
    real = DistGraphStorage.get_neighbor_infos

    def recording(self, dest_shard, ids):
        log.append((self.shard_id, int(dest_shard),
                    np.array(ids, dtype=np.int64), self.is_local(dest_shard)))
        return real(self, dest_shard, ids)

    monkeypatch.setattr(DistGraphStorage, "get_neighbor_infos", recording)
    return log


def run_recorded(engine, runtime, monkeypatch, mode="engine"):
    log = recorded_requests(monkeypatch)
    run = Session(engine, SessionConfig(runtime=runtime)).run(RunRequest(
        n_queries=12, seed=3, params=PARAMS, mode=mode))
    remote = [(m, ids) for m, _j, ids, local in log if not local]
    return run, remote


@pytest.mark.parametrize("runtime", ["sim", "threads"])
class TestRemotePath:
    @pytest.mark.parametrize("mode", ["engine", "tensor"])
    def test_heat_counts_the_ids_of_every_non_local_request(
            self, hub_graph, monkeypatch, runtime, mode):
        engine = GraphEngine(hub_graph, EngineConfig(
            n_machines=3, procs_per_machine=2, halo_hops=2, seed=0))
        run, remote = run_recorded(engine, runtime, monkeypatch, mode)
        oracle = {m: Counter() for m in run.heat}
        for machine, ids in remote:
            oracle[machine].update(ids.tolist())
        assert remote and run.heat == {m: dict(c) for m, c in oracle.items()}
        assert sorted(run.heat) == [0, 1, 2]

    def test_calls_remote_counts_non_local_requests(
            self, hub_graph, monkeypatch, runtime):
        """Without a halo cache every non-local request is one RPC, and
        no other call crosses the wire."""
        engine = GraphEngine(hub_graph, EngineConfig(
            n_machines=3, procs_per_machine=2, seed=0))
        run, remote = run_recorded(engine, runtime, monkeypatch)
        assert run.metrics["rpc.calls_remote"] == run.remote_requests \
            == len(remote) > 0

    def test_halo_shortcut_answers_covered_requests_locally(
            self, hub_graph, runtime):
        engine = GraphEngine(hub_graph, EngineConfig(
            n_machines=2, halo_hops=2, seed=0))
        shards = engine.sharded.shards
        covered = shards[0].halo_nodes()
        covered = covered[covered >= engine.sharded.base[1]][:6]
        uncovered = np.setdiff1d(
            np.arange(engine.sharded.base[1], engine.sharded.base[2]),
            shards[0].halo_nodes())[:1]
        assert len(covered) == 6 and len(uncovered) == 1
        cluster = deploy(engine.sharded, engine.config, runtime)
        proc = cluster.worker(0, 0)
        ledger = FetchCache()
        svc = NeighborFetchService(cluster.rrefs, 0, proc.name, ledger)
        got = {}

        def body():
            got["hit"] = yield Wait(svc.get_neighbor_infos(1, covered))
            got["local"] = cluster.local_calls
            mixed = np.concatenate([covered, uncovered])
            got["miss"] = yield Wait(svc.get_neighbor_infos(1, mixed))

        cluster.spawn_compute(0, 0, body())
        cluster.run()
        # the covered request never left the machine ...
        assert got["local"] == 1
        assert_batches_equal(got["hit"],
                             shards[1].get_neighbor_batch(covered))
        # ... one uncovered id sends the whole batch, in one RPC, and no
        # covered row of it is served locally
        assert cluster.remote_requests == 1 and cluster.local_calls == 1
        assert_batches_equal(got["miss"], shards[1].get_neighbor_batch(
            np.concatenate([covered, uncovered])))
        # both requests were remote demand
        assert ledger.heat() == {**{k: 2 for k in covered.tolist()},
                                 int(uncovered[0]): 1}
