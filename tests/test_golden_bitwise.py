"""Golden bitwise results: per-node ``(ppr, residual)`` may never move.

``tests/fixtures/golden_ppr.json`` holds sha256 digests of the key-sorted
``(keys, ppr, residual)`` bytes of every finished query state on one fixed
graph — :class:`~repro.ppr.ppr_ops.SSPPR` under all four ``OptLevel`` s and
:class:`~repro.ppr.multi_query.MultiSSPPR` at B = 1, 3, 16 — captured
*before* the paged slot table replaced the probing hash map.  Slot numbering
(hence ``results()`` enumeration order) is an implementation detail; the
value stored for a node is not, so states are compared in key order.
The fixture also predates the shard-contiguous node id: it was hashed over
the packed ``local * K + shard`` key (``* B + qid`` for ``MultiSSPPR``), so
``_digest`` re-encodes each state's ids to that legacy key before sorting
and hashing — the fixture is compared through the permutation, never
regenerated for a relabelling.

Regenerate only for a change that is *meant* to move results:
``PYTHONPATH=src python -m tests.test_golden_bitwise > tests/fixtures/golden_ppr.json``.

``tests/fixtures/golden_stream.json`` pins the write path the same way: one
digest per runtime of every published ``(p, r)`` plus the final mirror
after a fixed ``run_stream`` (queries, seven update batches refreshed every
second one, a rebalance with three migrations in the middle) — captured
with the dict-of-dicts ``DynamicGraph`` and per-batch ``snapshot()``,
*before* the CSR-backed mirror and the vectorised payload planner, refresh
and shard splice replaced them
(``python -m tests.test_golden_bitwise stream`` prints it).

``tests/fixtures/golden_partition.json`` pins the array every shard, node id
and deterministic bench column sits downstream of: the sha256 of
``MetisLitePartitioner(seed=s).partition(g, K).assignment`` on both
perfbench stand-ins — at ``scale=0.04`` for K in {2, 4, 8} and s in {0, 7}
(tier-1), and at full scale for the perfbench deployment (K = 4, seed 0;
``-m slow``).  Captured with the lexsort matching kernel and the int64
``contract``, *before* the segment arg-max kernel and the int32 contraction
replaced them (``python -m tests.test_golden_bitwise partition`` prints it).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.graph import load_dataset, powerlaw_cluster
from repro.partition import MetisLitePartitioner
from repro.ppr import OptLevel, PPRParams
from repro.serving.session import Session, SessionConfig

FIXTURE = Path(__file__).parent / "fixtures" / "golden_ppr.json"
STREAM_FIXTURE = FIXTURE.with_name("golden_stream.json")
STREAM_PUBLISH = (3, 17, 42, 101)
PARTITION_FIXTURE = FIXTURE.with_name("golden_partition.json")
PARTITION_GRAPHS = ("products", "twitter")
#: (scale, n_parts, seed): the tier-1 grid, and the perfbench deployment
PARTITION_SMALL = [(0.04, k, seed) for k in (2, 4, 8) for seed in (0, 7)]
PARTITION_FULL = [(1.0, 4, 0)]
PARAMS = PPRParams(epsilon=1e-6)
MULTI_BATCHES = (1, 3, 16)
N_SINGLE_SOURCES = 6


def _engine() -> GraphEngine:
    graph = powerlaw_cluster(600, 6, mixing=0.3, seed=5)
    # one computing process per machine: a "batched" run whose sources all
    # live on machine 0 is exactly one MultiSSPPR of B = len(sources)
    return GraphEngine(graph, EngineConfig(n_machines=3,
                                           procs_per_machine=1))


def _legacy_keys(state, sharded) -> np.ndarray:
    """The state's keys as the fixture spelled them (see module docstring)."""
    b = getattr(state, "n_queries", 1)
    ids, qids = np.divmod(state.map.keys(), b)
    shard = sharded.owner_of(ids)
    return ((ids - sharded.base[shard]) * sharded.n_shards + shard) * b + qids


def _digest(states, sharded) -> str:
    """sha256 over the states' key-sorted (keys, ppr, residual) bytes."""
    h = hashlib.sha256()
    for state in states:
        n = len(state.map)
        keys = _legacy_keys(state, sharded)
        order = np.argsort(keys)
        for column in (keys, state.ppr[:n], state.residual[:n]):
            h.update(np.ascontiguousarray(column[order]).tobytes())
    return h.hexdigest()


def _sibling(engine, **changes) -> GraphEngine:
    """``engine`` at another deployment setting, over the same shards.

    The fixture was captured with per-run ``opt`` overrides on one engine;
    it passing unregenerated pins that a sibling engine runs the same thing.
    """
    return GraphEngine(engine.graph,
                       dataclasses.replace(engine.config, **changes),
                       sharded=engine.sharded)


def _run(engine, request, runtime: str):
    if runtime == "sim":
        return engine.run(request)
    return Session(engine, SessionConfig(runtime="threads")).run(request)


def compute_digests(runtime: str) -> dict[str, str]:
    engine = _engine()
    sharded = engine.sharded
    spread = (np.arange(N_SINGLE_SOURCES, dtype=np.int64) * 97
              % engine.graph.n_nodes)
    on_machine0 = sharded.shards[0].core_global
    out = {}
    for opt in OptLevel:
        result = _run(_sibling(engine, opt=opt), RunRequest(
            sources=spread, params=PARAMS, keep_states=True,
        ), runtime)
        out[f"ssppr.{opt.value}"] = _digest(
            (result.states[g] for g in spread.tolist()), sharded)
    for b in MULTI_BATCHES:
        sources = on_machine0[:b]
        result = _run(engine, RunRequest(
            sources=sources, params=PARAMS, mode="batched",
        ), runtime)
        multis = {id(v.multi): v.multi for v in result.states.values()}
        assert len(multis) == 1 and next(iter(multis.values())).n_queries == b
        out[f"multi.B{b}"] = _digest(multis.values(), sharded)
    return out


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_results_match_golden_digests(runtime):
    assert compute_digests(runtime) == json.loads(FIXTURE.read_text())


def test_sibling_engine_shares_shards_and_never_partitions():
    class NeverPartition(MetisLitePartitioner):
        def partition(self, graph, n_parts):
            raise AssertionError("a sibling engine must not re-partition")

    engine = _engine()
    sibling = _sibling(engine, opt=OptLevel.BATCH,
                       partitioner=NeverPartition())
    assert sibling.sharded is engine.sharded
    assert sibling.config.opt is OptLevel.BATCH
    assert engine.config.opt is OptLevel.OVERLAP


def compute_stream_digest(runtime: str) -> str:
    """sha256 over published ``(p, r)`` and the final mirror of one stream."""
    from repro.stream import (RebalancePolicy, StreamConfig, StreamEvent,
                              StreamingSession, TemporalEdgeStream)

    graph = powerlaw_cluster(300, 5, mixing=0.3, seed=7)
    engine = GraphEngine(graph, EngineConfig(n_machines=3, seed=0,
                                             halo_hops=2))
    session = StreamingSession(engine, StreamConfig(
        runtime=runtime, params=PPRParams(alpha=0.2, epsilon=1e-5),
        refresh_every=2,
        rebalance=RebalancePolicy(top_k=6, min_heat=2, migrate_frac=0.5,
                                  max_migrations=3)))
    session.publish(STREAM_PUBLISH)
    batches = TemporalEdgeStream(graph, seed=23, batch_size=24).batches(7)
    events = []
    for i, batch in enumerate(batches):
        events.append(StreamEvent("query", source=STREAM_PUBLISH[i % 4]))
        events.append(StreamEvent("update", batch=batch))
        if i == 3:
            events.append(StreamEvent("rebalance"))
    report = session.run_stream(events)
    assert report.n_applied == 7
    assert report.rebalance_reports[0].n_migrated == 3
    h = hashlib.sha256()
    for gid in STREAM_PUBLISH:
        for column in session.published(gid):
            h.update(np.ascontiguousarray(column).tobytes())
    final = session.dyn.snapshot()
    h.update(final.indices.tobytes())
    h.update(final.weights.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_stream_matches_golden_digest(runtime):
    golden = json.loads(STREAM_FIXTURE.read_text())
    assert compute_stream_digest(runtime) == golden[runtime]


def compute_partition_digests(cases) -> dict[str, str]:
    """sha256 of the assignment bytes per stand-in and (scale, K, seed)."""
    out = {}
    for name in PARTITION_GRAPHS:
        graphs = {scale: load_dataset(name, scale=scale, use_cache=False)
                  for scale in sorted({scale for scale, _, _ in cases})}
        for scale, k, seed in cases:
            assignment = MetisLitePartitioner(seed=seed).partition(
                graphs[scale], k).assignment
            assert assignment.dtype == np.int64
            out[f"{name}.scale{scale}.K{k}.seed{seed}"] = hashlib.sha256(
                assignment.tobytes()).hexdigest()
    return out


@pytest.mark.parametrize("cases", [
    pytest.param(PARTITION_SMALL, id="scale0.04"),
    pytest.param(PARTITION_FULL, id="perfbench", marks=pytest.mark.slow),
])
def test_partition_matches_golden_digests(cases):
    golden = json.loads(PARTITION_FIXTURE.read_text())
    digests = compute_partition_digests(cases)
    assert digests == {key: golden[key] for key in digests}


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["partition"]:
        print(json.dumps(compute_partition_digests(
            PARTITION_SMALL + PARTITION_FULL), indent=2))
    elif sys.argv[1:] == ["stream"]:
        print(json.dumps({rt: compute_stream_digest(rt)
                          for rt in ("sim", "threads")}, indent=2))
    else:
        print(json.dumps(compute_digests("sim"), indent=2))
