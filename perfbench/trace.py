"""Outside-in wall-clock tracing of the ``src/repro`` layers.

Nothing under ``src/`` knows about this module.  For the duration of one
traced pass :class:`Tracer` replaces each public callable in
:data:`TARGETS` with a timing wrapper (``setattr`` on the owning class or
module) and restores the originals afterwards.  Every call becomes a span
``(name, start, end, parent)``; spans stay in memory until
:meth:`Tracer.write_jsonl`.

All of the wrapped callables are plain functions that run to completion on
the single interpreter thread (the sim runtime's coroutines are *not*
wrapped), so one explicit stack gives the parent of every span, and

    self time = duration - sum(direct children's durations)

telescopes: the self times of a tree add up to its root's duration.  The
root is the harness's own ``harness.region`` span, so whatever wall time
the region spends outside any wrapped call shows up as the root's self
time (reported as ``harness.unattributed_s``).

The wrapper's own cost (about a microsecond per call) lands partly in the
span and partly in its parent's self time; the traced pass reports the
total as ``harness.trace_overhead_pct`` against an untraced run of the
same batches.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np

ROOT_SPAN = "harness.region"

#: span name -> ((module, attribute path), ...).  One name may cover several
#: callables (``obs.metrics``) or several import sites of one function
#: (``from x import f`` binds a second name that has to be patched too).
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    # engine
    "engine.run": (("repro.engine.engine", "GraphEngine.run"),),
    "engine.deploy": (("repro.engine.cluster", "SimCluster.__init__"),),
    # simt
    "simt.run": (("repro.simt.scheduler", "Scheduler.run"),),
    # rpc
    "rpc.rref_call": (("repro.rpc.api", "RpcContext.rref_call"),),
    "rpc.serve": (("repro.rpc.worker", "RpcServer.serve"),),
    "rpc.payload_sizes": (
        ("repro.rpc.api", "payload_sizes"),
        ("repro.rpc.api", "request_payload_sizes"),
    ),
    "rpc.pool_stage": (("repro.rpc.serialization", "BufferPool.stage"),),
    # storage
    "fetch.get_neighbor_infos": (
        ("repro.storage.fetch", "NeighborFetchService.get_neighbor_infos"),),
    "fetch.admit": (("repro.storage.fetch", "FetchCache.admit"),),
    "fetch.merge": (("repro.storage.neighbor_batch", "NeighborBatch.merge"),),
    "dist.shard_masks": (
        ("repro.storage.dist_storage", "DistGraphStorage.shard_masks"),),
    "shard.get_vertex_props": (
        ("repro.storage.shard", "GraphShard.get_vertex_props"),),
    "shard.get_neighbor_batch": (
        ("repro.storage.shard", "GraphShard.get_neighbor_batch"),),
    "shard.get_cached_batch": (
        ("repro.storage.shard", "GraphShard.get_cached_batch"),),
    "shard.sample_one_neighbor": (
        ("repro.storage.shard", "GraphShard.sample_one_neighbor"),),
    "shard.stage_updates": (
        ("repro.storage.shard", "GraphShard.stage_updates"),),
    "shard.commit_updates": (
        ("repro.storage.shard", "GraphShard.commit_updates"),),
    # ppr
    "ssppr.init": (("repro.ppr.ppr_ops", "SSPPR.__init__"),),
    "ssppr.pop": (("repro.ppr.ppr_ops", "SSPPR.pop"),),
    "ssppr.push": (("repro.ppr.ppr_ops", "SSPPR.push"),),
    "multi.pop": (("repro.ppr.multi_query", "MultiSSPPR.pop"),),
    "multi.push": (("repro.ppr.multi_query", "MultiSSPPR.push"),),
    "tensor.pop": (("repro.ppr.tensor_ops", "DenseSSPPR.pop"),),
    "tensor.push": (("repro.ppr.tensor_ops", "DenseSSPPR.push"),),
    "hashmap.init": (("repro.ppr.hashmap", "ShardedMap.__init__"),),
    "hashmap.get_or_insert": (
        ("repro.ppr.hashmap", "ShardedMap.get_or_insert"),),
    "hashmap.lookup": (("repro.ppr.hashmap", "ShardedMap.lookup"),),
    "incremental.refresh": (
        ("repro.ppr.incremental", "refresh"),
        ("repro.stream.session", "refresh_state"),
    ),
    "incremental.capture_pre_rows": (
        ("repro.ppr.incremental", "IncrementalState.capture_pre_rows"),),
    # serving
    "serving.submit": (("repro.serving.session", "Session.submit"),),
    "serving.drain": (("repro.serving.session", "Session.drain"),),
    # stream
    "stream.ingest": (("repro.stream.session", "StreamingSession.ingest"),),
    "stream.dynamic_apply": (("repro.stream.dynamic", "DynamicGraph.apply"),),
    "stream.dynamic_snapshot": (
        ("repro.stream.dynamic", "DynamicGraph.snapshot"),),
    "stream.build_shard_payloads": (
        ("repro.stream.ingest", "build_shard_payloads"),
        ("repro.stream.session", "build_shard_payloads"),
    ),
    "stream.ingest_on_cluster": (
        ("repro.stream.ingest", "ingest_on_cluster"),
        ("repro.stream.session", "ingest_on_cluster"),
    ),
    # obs
    "obs.metrics": tuple(
        ("repro.obs.metrics", f"MetricsRegistry.{m}")
        for m in ("inc", "set", "observe", "merge", "snapshot")
    ),
}

SPAN_NAMES: tuple[str, ...] = tuple(TARGETS)


def _resolve(module_name: str, path: str):
    """``(owner, attribute, raw class-dict entry)`` of one target."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """In-memory span recorder plus the install/restore of the wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self._name_id: dict[str, int] = {ROOT_SPAN: 0}
        # one row per span, as parallel columns
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: (batch id, index of the batch's first span), in issue order
        self.batch_marks: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _id_of(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """A timing wrapper around ``fn`` recording spans called ``name``."""
        nid = self._id_of(name)
        name_ids, starts, ends, parents = (self.name_ids, self.starts,
                                           self.ends, self.parents)
        stack = self._stack
        clock = perf_counter

        @functools.wraps(fn)  # keeps markers such as ``__rpc_handler__``
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def region(self, fn):
        """Run ``fn()`` under the root span; returns its result."""
        return self.wrap(ROOT_SPAN, fn)()

    def mark_batch(self, batch_id: int) -> None:
        """Spans recorded from now on belong to ``batch_id``."""
        self.batch_marks.append((batch_id, len(self.name_ids)))

    # -- install / restore --------------------------------------------------
    def install(self) -> None:
        """Replace every target callable with its timing wrapper."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for name, sites in TARGETS.items():
            wrapped_of: dict[int, object] = {}
            for module_name, path in sites:
                owner, attr, raw = _resolve(module_name, path)
                kind = type(raw) if isinstance(
                    raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind is not None else raw
                # several import sites of one function share one wrapper
                traced = wrapped_of.get(id(fn))
                if traced is None:
                    traced = wrapped_of[id(fn)] = self.wrap(name, fn)
                self._installed.append((owner, attr, raw))
                setattr(owner, attr,
                        kind(traced) if kind is not None else traced)

    def restore(self) -> None:
        """Put every original callable back (idempotent)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- the ledger ---------------------------------------------------------
    def ledger(self) -> dict[str, dict[str, float]]:
        """``span name -> {"self_s", "total_s", "calls"}`` over all spans."""
        n = len(self.name_ids)
        ids = np.asarray(self.name_ids, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parent = np.asarray(self.parents, dtype=np.int64)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=n)
        self_s = dur - child_sum
        k = len(self.names)
        by_self = np.bincount(ids, weights=self_s, minlength=k)
        by_total = np.bincount(ids, weights=dur, minlength=k)
        calls = np.bincount(ids, minlength=k)
        return {
            name: {"self_s": float(by_self[i]), "total_s": float(by_total[i]),
                   "calls": int(calls[i])}
            for i, name in enumerate(self.names)
        }

    def write_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the span count."""
        marks = np.asarray([m[1] for m in self.batch_marks], dtype=np.int64)
        batch_ids = [m[0] for m in self.batch_marks]
        idx = np.arange(len(self.name_ids))
        which = np.searchsorted(marks, idx, side="right") - 1
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, nid in enumerate(self.name_ids):
                w = int(which[i])
                fh.write(json.dumps({
                    "id": i, "name": self.names[nid],
                    "start": self.starts[i] - t0, "end": self.ends[i] - t0,
                    "parent": self.parents[i],
                    "batch": batch_ids[w] if w >= 0 else -1,
                }))
                fh.write("\n")
        return len(self.name_ids)
