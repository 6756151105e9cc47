"""Telemetry-driven shard rebalancing (``repro.stream.rebalance``).

Every compressed-path storage handle records per-machine *heat*: how
often each remote row (node id) was requested during a serving epoch
(:class:`~repro.engine.engine.QueryRunResult.heat`).  Between epochs the
planner turns that demand into deterministic decisions:

* **migrate** — one requester dominates a hot vertex's traffic and is
  not its owner: move the vertex to that shard.  The copy is executed
  as normal RPC traffic (``get_neighbor_batch`` from the old owner,
  ``install_halo_rows`` on the new one — both priced, retried, and
  fault-injected like any other message), then the new assignment is
  rebuilt deterministically with
  :func:`~repro.storage.build.build_shards` — which re-issues every
  shard's id range, so a migration is a **relabel epoch**: node ids are
  only meaningful between two rebuilds, and everything keyed by them
  (heat, halo caches) is per-run or reset here, while
  decisions, the mirror and published vectors stay in caller ids.
* **replicate** — demand is spread across requesters: push the row into
  each requester's halo cache (``install_halo_rows``), so a future
  request whose every row is cached is answered locally.

Planning is pure and runs driver-side; only execution touches the
network.  Identical heat maps yield identical decisions and identical
RPC sequences on both runtimes, which the differential suite pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.simt.events import Wait, WaitAll
from repro.storage.neighbor_batch import NeighborBatch
from repro.stream.ingest import run_round
from repro.utils.validation import (check_in_range, check_int,
                                    check_nonnegative)


@dataclass(frozen=True)
class RebalanceDecision:
    """One planned action on one hot boundary vertex."""

    vertex: int               # global id
    action: str               # "migrate" | "replicate"
    src_shard: int            # current owner
    dst_shards: tuple         # migrate: (new owner,); replicate: requesters
    heat: int                 # remote-row requests observed this epoch


@dataclass(frozen=True)
class RebalancePolicy:
    """Deterministic knobs of the planner (all thresholds inclusive)."""

    top_k: int = 8            # max vertices acted on per epoch
    min_heat: int = 4         # ignore vertices requested fewer times
    migrate_frac: float = 0.6  # one requester >= this share -> migrate
    max_migrations: int = 4   # cap on ownership changes per epoch

    def __post_init__(self) -> None:
        for name in ("top_k", "max_migrations"):
            check_int(name, getattr(self, name))
            check_nonnegative(name, getattr(self, name))
        check_nonnegative("min_heat", self.min_heat)
        check_in_range("migrate_frac", self.migrate_frac, 0.0, 1.0,
                       inclusive=True)


@dataclass
class RebalanceReport:
    """Planned (and, after execution, performed) epoch rebalancing."""

    decisions: list = field(default_factory=list)
    moves: dict = field(default_factory=dict)   # gid -> new owner shard
    n_migrated: int = 0
    n_replicated: int = 0
    bytes_copied: int = 0     # filled by execution
    retries: int = 0          # filled by execution

    def __bool__(self) -> bool:
        return bool(self.decisions)


def plan_rebalance(sharded, heat_maps, policy=None) -> RebalanceReport:
    """Turn per-machine heat into a deterministic action plan.

    ``heat_maps`` is ``machine -> {node id -> request count}``
    as gathered by :class:`~repro.storage.fetch.NeighborFetchService`.
    Candidates are ranked by total demand (ties by global id), capped at
    ``policy.top_k``; a vertex migrates when one requester holds at
    least ``migrate_frac`` of its demand, otherwise its row is
    replicated to every requester.  Migrations never empty a shard.
    """
    if policy is None:
        policy = RebalancePolicy()
    totals: dict[int, int] = {}
    by: dict[int, dict[int, int]] = {}
    for machine in sorted(heat_maps):
        hmap = heat_maps[machine]
        if not hmap:
            continue
        keys = np.fromiter(sorted(hmap), dtype=np.int64, count=len(hmap))
        gids = sharded.globals_of(keys)
        for key, gid in zip(keys.tolist(), gids.tolist()):
            count = int(hmap[key])
            totals[gid] = totals.get(gid, 0) + count
            acc = by.setdefault(gid, {})
            acc[machine] = acc.get(machine, 0) + count

    candidates = sorted(
        (g for g, t in totals.items() if t >= policy.min_heat),
        key=lambda g: (-totals[g], g))[:policy.top_k]

    sizes = np.diff(sharded.base).tolist()
    report = RebalanceReport()
    for gid in candidates:
        owner = int(sharded.result.assignment[gid])
        requesters = {m: c for m, c in by[gid].items() if m != owner}
        if not requesters:
            continue
        total = totals[gid]
        top_m, top_c = min(requesters.items(),
                           key=lambda mc: (-mc[1], mc[0]))
        if (top_c >= policy.migrate_frac * total
                and report.n_migrated < policy.max_migrations
                and sizes[owner] > 1):
            report.decisions.append(RebalanceDecision(
                vertex=int(gid), action="migrate", src_shard=owner,
                dst_shards=(top_m,), heat=total))
            report.moves[int(gid)] = top_m
            report.n_migrated += 1
            sizes[owner] -= 1
            sizes[top_m] += 1
        else:
            report.decisions.append(RebalanceDecision(
                vertex=int(gid), action="replicate", src_shard=owner,
                dst_shards=tuple(sorted(requesters)), heat=total))
            report.n_replicated += 1
    return report


# -- execution --------------------------------------------------------------

def _jobs_for(sharded, decisions):
    """Resolve decisions against the *current* address book."""
    return [(d.src_shard, int(sharded.nodes_of(d.vertex)), d.dst_shards)
            for d in decisions]


def rebalance_driver(rrefs, caller, jobs, metrics):
    """Move/replicate rows as ordinary RPC traffic (coroutine body).

    Per job: one ``get_neighbor_batch`` from the owner (the copy: its
    rows, gathered into a :class:`NeighborBatch`), then one
    ``install_halo_rows`` per destination — so drops, retries, spans and
    payload pricing all apply.
    """
    bytes_copied = 0
    for src, node_id, dsts in jobs:
        ids = np.array([node_id], dtype=np.int64)
        rows = yield Wait(rrefs[src].rpc_async(caller, "get_neighbor_batch",
                                               ids))
        batch = NeighborBatch(*rows.to_arrays(), check=False)
        bytes_copied += batch.nbytes
        futs = [rrefs[d].rpc_async(caller, "install_halo_rows", ids, batch)
                for d in dsts]
        counts = yield WaitAll(futs)
        metrics.inc("rebalance.rows_installed",
                    sum(int(c) for c in counts))
    metrics.inc("rebalance.bytes_copied", bytes_copied)
    return {"bytes_copied": bytes_copied}


def execute_rebalance(engine, report: RebalanceReport, *, runtime="sim",
                      fault_plan=None, retry_policy=None):
    """Execute a plan against ``engine``; returns the rounds' clusters.

    Two traffic rounds at most: the migration copies run first, then the
    shards are rebuilt deterministically from ``engine.graph`` under the
    moved assignment, then replications install rows against the *new*
    address book.  Mutates ``engine.sharded`` in place and fills the
    report's ``bytes_copied`` / ``retries``.  Each finished cluster carries
    its round's metrics and ``charge()``.
    """
    from repro.storage.build import build_shards

    migr = [d for d in report.decisions if d.action == "migrate"]
    repl = [d for d in report.decisions if d.action == "replicate"]
    clusters = []
    if migr:
        outcome, cluster = run_round(
            engine, rebalance_driver, _jobs_for(engine.sharded, migr),
            runtime=runtime, fault_plan=fault_plan,
            retry_policy=retry_policy)
        cluster.obs.metrics.inc("rebalance.migrations", len(migr))
        report.bytes_copied += int(outcome["bytes_copied"])
        report.retries += cluster.retries
        clusters.append(cluster)
        old = engine.sharded
        engine.sharded = build_shards(
            old.graph, old.result.with_moves(report.moves),
            seed=engine.config.seed, halo_hops=engine.config.halo_hops)
        engine.sharded.graph_source = old.graph_source
    if repl:
        outcome, cluster = run_round(
            engine, rebalance_driver, _jobs_for(engine.sharded, repl),
            runtime=runtime, fault_plan=fault_plan,
            retry_policy=retry_policy)
        cluster.obs.metrics.inc("rebalance.replications", len(repl))
        report.bytes_copied += int(outcome["bytes_copied"])
        report.retries += cluster.retries
        clusters.append(cluster)
    return clusters
