"""The five workload drivers.

Every driver is a closed loop with one client: the next ``engine.run`` /
``drain`` / ``ingest`` is issued when the previous one returns.  A driver
exposes the same five steps so the worker can run any of them:

* ``deploy``  — partition + ``build_shards`` + facade construction (timed
  per phase into ``setup.*``);
* ``make_inputs`` — everything derived from ``--seed``; the program only
  ever sees these generated inputs;
* ``warm``    — one untimed-for-throughput warm-up batch (plus ``publish``
  for the streaming workload), still part of ``setup_s``;
* ``step``    — one batch of the timed region (``False`` once the
  generated inputs are used up);
* ``verify``  — the untimed output checks of :mod:`perfbench.verify`.

Counts are read from public results only (``QueryRunResult.metrics`` /
``.phases`` / ``.states``, ``Session.snapshot()``, ``IngestReport``).
"""

from __future__ import annotations

import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro import (
    EngineConfig,
    GraphEngine,
    MetisLitePartitioner,
    PPRParams,
    RunRequest,
    build_shards,
)
from repro.engine.query import sample_sources
from repro.serving import Query, Session, SessionConfig, TenantSpec, \
    bursty_trace
from repro.stream import StreamConfig, StreamingSession, TemporalEdgeStream

from perfbench import verify
from perfbench.spec import Workload

N_MACHINES = 4
#: generated batches per traced batch: how far a faster program can run
#: into the input schedule before a time-bounded region ends early
INPUT_HEADROOM = 16

#: registry counters summed into a run's tally
COUNTERS = (
    "rpc.calls_local", "rpc.calls_remote", "rpc.response_bytes",
    "rpc.pool.hits", "rpc.pool.requests",
    "fetch.requests", "fetch.cache_hits", "fetch.halo_hits",
    "fetch.coalesced", "fetch.misses", "fetch.evictions",
    "fetch.bytes_saved",
    "serve.batches", "serve.batch_queries", "serve.rejected",
    "serve.slo_missed", "serve.completed",
    "stream.staged_rows", "stream.refresh_pushes",
    "stream.refresh_corrections",
)


@contextmanager
def timed(phases: dict, name: str):
    start = perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + perf_counter() - start


@dataclass
class Tally:
    """What one region (or one verification) did and found."""

    ops: int = 0                  # completed operations (the ops_per_s unit)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    batch_s: list = field(default_factory=list)
    virtual_s: float = 0.0
    sppr_queries: int = 0         # denominator of the *_per_query counts
    sums: Counter = field(default_factory=Counter)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    host_factor: float = 1.0      # perfbench.host; 1.0 = not calibrated
    l1_over_bound: float = 0.0

    def fail(self, n: int, messages) -> None:
        self.failed += n
        self.failures.extend(messages)

    def add_counters(self, snapshot: dict, sign: int = 1) -> None:
        for key in COUNTERS:
            value = snapshot.get(key)
            if value:
                self.sums[key] += sign * value

    def add_result(self, result) -> None:
        """Fold one sppr ``QueryRunResult``'s public numbers in."""
        self.sppr_queries += result.n_queries
        for phase, seconds in result.phases.items():
            self.sums[f"virtual.{phase}_s"] += seconds
        seen: set[int] = set()
        for state in result.states.values():
            state = getattr(state, "multi", state)  # batched views share one
            if id(state) in seen:
                continue
            seen.add(id(state))
            self.sums["ppr.pushes"] += state.n_pushes
            self.sums["ppr.iterations"] += state.n_iterations
            self.sums["ppr.entries"] += getattr(
                state, "n_entries_processed", 0)
            table = getattr(state, "map", None)
            if table is not None:  # the dense baseline has no hashmap
                self.sums["ppr.touched"] += len(table)
                self.sums["hashmap.probe_rounds"] += table.probe_rounds
                self.sums["hashmap.rehashes"] += table.rehashes


@dataclass
class Deployment:
    engine: GraphEngine
    session: object = None        # Session / StreamingSession


def _deploy_engine(graph, spec: Workload, phases: dict) -> GraphEngine:
    cfg = EngineConfig(n_machines=N_MACHINES,
                       procs_per_machine=spec.procs_per_machine,
                       partitioner=MetisLitePartitioner(seed=0))
    with timed(phases, "partition"):
        result = cfg.partitioner.partition(graph, cfg.n_shards)
    with timed(phases, "build_shards"):
        sharded = build_shards(graph, result, seed=cfg.seed,
                               halo_hops=cfg.halo_hops)
    with timed(phases, "engine_init"):
        return GraphEngine(graph, cfg, sharded=sharded)


def _source_batches(sharded, n_batches: int, size: int, seed: int,
                    stream: int) -> list[np.ndarray]:
    """``n_batches`` source arrays spread evenly over machines."""
    return [sample_sources(sharded, size,
                           seed=np.random.SeedSequence([seed, stream, i]))
            for i in range(n_batches)]


class EngineWorkload:
    """``engine.run`` batches of one query per computing process."""

    def __init__(self, spec: Workload, mode: str) -> None:
        self.spec = spec
        self.mode = mode
        self.params = PPRParams(alpha=0.462, epsilon=1e-6)

    def deploy(self, graph, phases: dict) -> Deployment:
        return Deployment(_deploy_engine(graph, self.spec, phases))

    def make_inputs(self, graph, dep: Deployment, seed: int) -> dict:
        n = self.spec.trace_batches * INPUT_HEADROOM
        batches = _source_batches(dep.engine.sharded, n + 2,
                                  self.spec.batch_size, seed, 0)
        return {"warmup": batches[0], "verify": batches[1],
                "batches": batches[2:]}

    def _request(self, sources) -> RunRequest:
        return RunRequest(sources=sources, params=self.params,
                          mode=self.mode, keep_states=True)

    def warm(self, dep: Deployment, inputs: dict, phases: dict) -> None:
        with timed(phases, "warmup"):
            dep.engine.run(self._request(inputs["warmup"]))

    def step(self, dep: Deployment, inputs: dict, i: int,
             tally: Tally) -> bool:
        if i >= len(inputs["batches"]):
            return False
        sources = inputs["batches"][i]
        tally.attempted += len(sources)
        start = perf_counter()
        try:
            result = dep.engine.run(self._request(sources))
        except Exception:  # the benchmark outlives a failing batch
            tally.batch_s.append(perf_counter() - start)
            tally.fail(len(sources), [traceback.format_exc(limit=3)])
            return True
        tally.batch_s.append(perf_counter() - start)
        failures = [
            f for s in sources.tolist()
            if (f := verify.mass_failure(s, result.states[s])) is not None
        ]
        tally.fail(len(failures), failures)
        tally.ops += len(sources) - len(failures)
        tally.virtual_s += result.makespan
        tally.add_counters(result.metrics)
        tally.add_result(result)
        return True

    def finish(self, dep: Deployment, before: dict, tally: Tally) -> None:
        """Engine runs carry their own registries; nothing cumulative."""

    def snapshot(self, dep: Deployment) -> dict:
        return {}

    def verify(self, dep: Deployment, inputs: dict, tally: Tally) -> None:
        sources = inputs["verify"]
        tally.attempted += len(sources)
        result = dep.engine.run(self._request(sources))
        failures, worst = verify.check_sppr(
            dep.engine.graph, dep.engine.sharded, self.params, result.states)
        tally.fail(len(failures), failures)
        tally.l1_over_bound = worst


class ServeWorkload:
    """A bursty two-tenant arrival trace through ``submit`` / ``drain``.

    Arrivals are due on the *virtual* serving clock (open loop there, as in
    ``repro.serving.serve_trace``); on the wall clock the replay is a
    closed loop.  Handles are checked and then dropped: keeping all of
    them alive pins every drained batch's ``MultiSSPPR``.
    """

    TENANTS = (TenantSpec("gold", priority=2, quota=64, weight=1.0),
               TenantSpec("free", priority=0, quota=16, weight=2.0))
    #: virtual seconds of trace generated (about 4x what a region replays)
    DURATION = 40.0
    WALK_LENGTH = 8

    def __init__(self, spec: Workload) -> None:
        self.spec = spec
        self.params = PPRParams(alpha=0.462, epsilon=1e-5)
        self.config = SessionConfig(mode="batched", params=self.params,
                                    tenants=self.TENANTS, slo=0.25)

    def deploy(self, graph, phases: dict) -> Deployment:
        engine = _deploy_engine(graph, self.spec, phases)
        with timed(phases, "engine_init"):
            session = Session(engine, self.config)
        return Deployment(engine, session)

    def make_inputs(self, graph, dep: Deployment, seed: int) -> dict:
        trace = bursty_trace(
            np.arange(graph.n_nodes), rate=120.0, duration=self.DURATION,
            seed=seed, burst_factor=8.0, tenants=self.TENANTS,
            walk_frac=0.1, walk_length=self.WALK_LENGTH,
        )
        sources = _source_batches(dep.engine.sharded, 2, 8, seed, 1)
        return {"arrivals": trace.arrivals, "cursor": 0, "open": {},
                "warmup": sources[0], "verify": sources[1]}

    def warm(self, dep: Deployment, inputs: dict, phases: dict) -> None:
        inputs["cursor"] = 0
        inputs["open"] = {}
        with timed(phases, "warmup"):
            for s in inputs["warmup"].tolist():
                dep.session.submit(Query(source=s), tenant="gold")
            dep.session.drain()

    def step(self, dep: Deployment, inputs: dict, i: int,
             tally: Tally) -> bool:
        session = dep.session
        arrivals = inputs["arrivals"]
        open_handles = inputs["open"]
        k = inputs["cursor"]
        if session.pending == 0 and k < len(arrivals):
            session.advance_to(arrivals[k].time)  # open-loop idle jump
        while k < len(arrivals) and arrivals[k].time <= session.now:
            session.advance_to(arrivals[k].time)
            handle = session.submit(arrivals[k].query,
                                    tenant=arrivals[k].tenant)
            if not handle.rejected:
                open_handles[handle.seq] = handle
            k += 1
        inputs["cursor"] = k
        if not session.pending:
            return k < len(arrivals)  # every due arrival was rejected
        start = perf_counter()
        try:
            result = session.drain()
        except Exception:
            tally.batch_s.append(perf_counter() - start)
            tally.fail(1, [traceback.format_exc(limit=3)])
            tally.attempted += 1
            return True
        tally.batch_s.append(perf_counter() - start)
        if result.states:
            tally.add_result(result)
        for seq in session.batch_log[-1]:
            handle = open_handles.pop(seq)
            tally.attempted += 1
            if handle.done and handle.result() is not None:
                tally.ops += 1
            else:
                tally.fail(1, [f"query #{seq} resolved as {handle.status}"])
        return True

    def snapshot(self, dep: Deployment) -> dict:
        snap = dep.session.snapshot()
        snap["clock"] = dep.session.now
        snap["admitted_total"] = dep.session.admitted_total
        snap["rejected_total"] = dep.session.rejected_total
        snap["completed_total"] = dep.session.completed_total
        snap["submitted"] = len(dep.session.decisions)
        return snap

    def finish(self, dep: Deployment, before: dict, tally: Tally) -> None:
        after = self.snapshot(dep)
        tally.add_counters(after)
        tally.add_counters(before, sign=-1)
        tally.virtual_s = after["clock"] - before["clock"]
        session = dep.session
        if after["admitted_total"] + after["rejected_total"] \
                != after["submitted"]:
            tally.fail(1, ["admitted + rejected != arrivals"])
        if after["admitted_total"] \
                != after["completed_total"] + session.pending:
            tally.fail(1, ["admitted != completed + still queued"])

    def verify(self, dep: Deployment, inputs: dict, tally: Tally) -> None:
        graph = dep.engine.graph
        session = Session(dep.engine, self.config)
        sources = inputs["verify"].tolist()
        sppr = [session.submit(Query(source=s), tenant="gold")
                for s in sources]
        walks = [session.submit(Query(source=s, kind="walk",
                                      walk_length=self.WALK_LENGTH),
                                tenant="free") for s in sources[:4]]
        tally.attempted += len(sppr) + len(walks)
        session.drain()
        failures, worst = verify.check_sppr(
            graph, dep.engine.sharded, self.params,
            {h.query.source: h.result() for h in sppr})
        for h in walks:
            failures += verify.check_walk(graph, h.query.source, h.result(),
                                          self.WALK_LENGTH)
        tally.fail(len(failures), failures)
        tally.l1_over_bound = worst


class StreamWorkload:
    """``ingest`` one edge batch, then query, on a ``StreamingSession``."""

    N_PUBLISHED = 8
    QUERIES_PER_ROUND = 4

    def __init__(self, spec: Workload) -> None:
        self.spec = spec
        self.params = PPRParams(alpha=0.2, epsilon=1e-5)

    def deploy(self, graph, phases: dict) -> Deployment:
        engine = _deploy_engine(graph, self.spec, phases)
        with timed(phases, "engine_init"):
            session = StreamingSession(
                engine, StreamConfig(params=self.params, refresh_every=1))
        return Deployment(engine, session)

    def make_inputs(self, graph, dep: Deployment, seed: int) -> dict:
        n = self.spec.trace_batches * INPUT_HEADROOM
        stream = TemporalEdgeStream(graph, seed=seed,
                                    batch_size=self.spec.batch_size)
        sharded = dep.engine.sharded
        return {
            "updates": stream.batches(n + 1),
            "queries": _source_batches(sharded, n + 1,
                                       self.QUERIES_PER_ROUND, seed, 2),
            "published": _source_batches(sharded, 1, self.N_PUBLISHED,
                                         seed, 3)[0],
        }

    def warm(self, dep: Deployment, inputs: dict, phases: dict) -> None:
        with timed(phases, "publish"):
            dep.session.publish(inputs["published"])
        with timed(phases, "warmup"):
            self._round(dep, inputs, 0, Tally())

    def step(self, dep: Deployment, inputs: dict, i: int,
             tally: Tally) -> bool:
        if i + 1 >= len(inputs["updates"]):
            return False
        self._round(dep, inputs, i + 1, tally)  # round 0 was the warm-up
        return True

    def _round(self, dep: Deployment, inputs: dict, i: int,
               tally: Tally) -> None:
        session = dep.session
        batch = inputs["updates"][i]
        sources = inputs["queries"][i].tolist()
        tally.attempted += len(batch) + len(sources)
        start = perf_counter()
        try:
            report = session.ingest(batch)
        except Exception:
            tally.batch_s.append(perf_counter() - start)
            tally.fail(len(batch), [traceback.format_exc(limit=3)])
            return
        tally.batch_s.append(perf_counter() - start)
        if report.applied:
            tally.ops += len(batch)
        else:
            tally.fail(len(batch), [f"ingest {report.tag}: {report.status}"])
        try:
            handles = [session.submit(s) for s in sources]
            result = session.drain()
        except Exception:
            tally.fail(len(sources), [traceback.format_exc(limit=3)])
            return
        tally.add_result(result)
        failures = [
            f for h in handles
            if (f := verify.mass_failure(h.query.source, h.result()))
            is not None
        ]
        tally.fail(len(failures), failures)

    def snapshot(self, dep: Deployment) -> dict:
        session = dep.session
        snap = Counter(session.metrics.snapshot())
        snap.update(session.serving.metrics.snapshot())
        snap["clock"] = session.now
        return snap

    def finish(self, dep: Deployment, before: dict, tally: Tally) -> None:
        after = self.snapshot(dep)
        tally.add_counters(after)
        tally.add_counters(before, sign=-1)
        tally.virtual_s = after["clock"] - before["clock"]
        if dep.session.report.n_failed:
            tally.fail(dep.session.report.n_failed, ["failed ingests"])

    def verify(self, dep: Deployment, inputs: dict, tally: Tally) -> None:
        session = dep.session
        final = session.dyn.snapshot()
        failures: list[str] = []
        for source in inputs["published"].tolist():
            p, r = session.published(source)
            failures += verify.check_published(final, source, self.params,
                                               p, r)
        tally.attempted += len(inputs["published"])
        tally.fail(len(failures), failures)
        bound = self.params.epsilon * float(np.sum(final.weighted_degrees))
        tally.l1_over_bound = max(
            float(np.abs(session.published(s)[1]).sum()) / bound
            for s in inputs["published"].tolist())


def make(spec: Workload):
    """The driver of one declared workload."""
    if spec.name == "serve_mixed":
        return ServeWorkload(spec)
    if spec.name == "stream_updates":
        return StreamWorkload(spec)
    mode = "tensor" if spec.name.startswith("tensor") else "engine"
    return EngineWorkload(spec, mode)
