"""Two-phase distributed application of one update batch.

The driver coroutine stages one :class:`~repro.storage.shard_update.ShardUpdate`
on every shard (invisible to readers), then commits everywhere:

* any **stage** failure aborts the staged state on all shards — nothing
  was ever visible, the batch is simply not applied;
* any **commit** failure rolls every shard back to its retained
  pre-image — including shards whose commit *reply* was lost but whose
  commit applied (``rollback_updates`` restores either way);
* a rollback that itself fails permanently is reported as
  ``"inconsistent"`` — the typed :class:`~repro.errors.StreamIngestError`
  carries ``applied=None`` and the cluster needs operator attention.

So a batch is all-or-nothing across the cluster under drops
and crash windows, which ``tests/test_failure_and_sync.py`` pins.

All traffic flows through the normal RPC layer (fault injection,
retries, ``rpc.*`` metrics, spans), and the one driver body runs on
either backend of :func:`~repro.engine.cluster.deploy`: both runtimes
throw a failed future's exception into the waiting coroutine, so a phase
catches the transport fault at its ``yield`` and then reads every shard's
outcome off the futures as data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TRANSPORT_ERRORS, StreamIngestError
from repro.graph.csr import row_blocks
from repro.simt.events import WaitAll
from repro.storage.neighbor_batch import NeighborBatch
from repro.storage.shard_update import ShardUpdate


@dataclass
class IngestReport:
    """Outcome of one distributed batch application."""

    tag: int
    status: str          # "applied" | "aborted" | "rolled_back" |
    #                      "inconsistent" | "empty"
    n_changed: int       # vertices whose rows the batch changed
    staged_rows: int     # core rows staged across all shards
    error: str | None
    retries: int         # RPC retransmissions the round needed

    @property
    def applied(self) -> bool:
        return self.status in ("applied", "empty")


# -- payload planning -------------------------------------------------------

def build_shard_payloads(sharded, dyn, delta) -> list[ShardUpdate]:
    """One :class:`ShardUpdate` per shard for one applied batch.

    ``dyn`` must hold the *post*-batch adjacency ``delta`` (an
    :class:`~repro.stream.dynamic.AppliedDelta`) left it with.  Row
    targets carry node ids from ``sharded`` (ownership never changes
    during ingestion — only rebalancing moves vertices) and the targets'
    new weighted degrees, so shards apply rows without lookups.  The
    changed rows ``apply`` laid out are gathered once, in node-id order —
    that layout is the block every shard receives (degree broadcast +
    halo refresh) — and each shard's own replacement rows are the run of
    it that the shard owns.
    """
    changed_ids = sharded.nodes_of(delta.changed)
    order = np.argsort(changed_ids)
    changed, changed_ids = delta.changed[order], changed_ids[order]
    ptr, gids, wts = delta.rows
    indptr, idx = row_blocks(ptr, order)
    gids = gids[idx]
    changed_rows = NeighborBatch(indptr, sharded.nodes_of(gids), wts[idx],
                                 dyn.wdeg_of(gids), dyn.wdeg_of(changed))
    # ascending ids are shard-major: shard p's rows are one run
    cuts = np.searchsorted(changed_ids, sharded.base)
    return [
        ShardUpdate(changed_ids[lo:hi], changed_rows.slice_rows(lo, hi),
                    changed_ids, changed_rows)
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist())
    ]


# -- the two-phase driver ---------------------------------------------------

def _outcome(fut):
    """``("ok", value)`` / ``("err", exc)`` of one RPC future.

    Transport faults become data; genuine handler errors still propagate.
    Blocks on a future still in flight (thread runtime), so a phase always
    accounts for every shard.
    """
    try:
        return ("ok", fut.value())
    except TRANSPORT_ERRORS as exc:
        return ("err", exc)


def _phase(rrefs, caller, method, args_per_shard):
    """Issue one RPC per shard; collect every shard's outcome."""
    futs = [rrefs[p].rpc_async(caller, method, *args_per_shard[p])
            for p in range(len(rrefs))]
    try:
        yield WaitAll(futs)
    except TRANSPORT_ERRORS:
        pass  # the first failure; per-shard outcomes are read below
    return [_outcome(f) for f in futs]


def ingest_driver(rrefs, caller, payloads, tag, metrics):
    """Coroutine body of the two-phase protocol (see module docstring).

    Never raises for transport faults — returns an outcome dict the
    runner converts into an :class:`IngestReport`, so both runtimes
    surface failures the same way.
    """
    k = len(rrefs)
    stage = yield from _phase(rrefs, caller, "stage_updates",
                              [(tag, payloads[p]) for p in range(k)])
    stage_errs = [val for status, val in stage if status == "err"]
    if stage_errs:
        metrics.inc("stream.stage_failures", len(stage_errs))
        metrics.inc("stream.batches_aborted")
        # Best-effort abort: staged state is invisible, so a lost abort
        # only leaves garbage the next stage_updates clears.
        yield from _phase(rrefs, caller, "abort_updates", [(tag,)] * k)
        return {"status": "aborted", "error": repr(stage_errs[0]),
                "staged_rows": 0}
    staged_rows = sum(int(val) for _, val in stage)
    metrics.inc("stream.staged_rows", staged_rows)

    commit = yield from _phase(rrefs, caller, "commit_updates", [(tag,)] * k)
    commit_errs = [val for status, val in commit if status == "err"]
    if not commit_errs:
        metrics.inc("stream.batches_committed")
        return {"status": "applied", "error": None,
                "staged_rows": staged_rows}
    metrics.inc("stream.commit_failures", len(commit_errs))
    rollback = yield from _phase(rrefs, caller, "rollback_updates",
                                 [(tag,)] * k)
    rollback_errs = [val for status, val in rollback if status == "err"]
    if rollback_errs:
        metrics.inc("stream.rollback_failures", len(rollback_errs))
        return {"status": "inconsistent", "error": repr(commit_errs[0]),
                "staged_rows": staged_rows}
    metrics.inc("stream.batches_rolled_back")
    return {"status": "rolled_back", "error": repr(commit_errs[0]),
            "staged_rows": staged_rows}


# -- runner -----------------------------------------------------------------

def run_round(engine, driver, *args, runtime="sim", fault_plan=None,
              retry_policy=None):
    """One driver-side traffic round on a fresh cluster of ``runtime``.

    Spawns ``driver(rrefs, caller, *args, metrics)`` as the first
    computing process of machine 0 and returns ``(its result, the finished
    cluster)`` — whose ``obs.metrics``, ``retries`` and ``charge()`` the
    caller reads.
    """
    from repro.engine.cluster import deploy

    cluster = deploy(engine.sharded, engine.config, runtime,
                     fault_plan=fault_plan, retry_policy=retry_policy)
    proc = cluster.worker(0, 0)
    name = cluster.spawn_compute(0, 0, driver(
        cluster.rrefs, proc.name, *args, cluster.obs.metrics))
    cluster.run()
    return cluster.result_of(name), cluster


def ingest_on_cluster(engine, payloads, tag, **deployment):
    """Apply one batch on a fresh cluster (``runtime="sim"`` by default).

    Returns ``(outcome dict, finished cluster)``; the cluster's metrics
    carry this round's ``stream.*`` and ``rpc.*`` counters.
    """
    return run_round(engine, ingest_driver, payloads, tag, **deployment)


def report_from_outcome(tag, outcome, n_changed, retries) -> IngestReport:
    return IngestReport(tag=int(tag), status=outcome["status"],
                        n_changed=int(n_changed),
                        staged_rows=int(outcome["staged_rows"]),
                        error=outcome["error"], retries=int(retries))


def raise_if_failed(report: IngestReport) -> None:
    """Typed atomicity escalation for a batch that did not apply."""
    if report.applied:
        return
    applied = None if report.status == "inconsistent" else False
    raise StreamIngestError(
        f"batch tag {report.tag} {report.status}: {report.error}",
        applied=applied)
