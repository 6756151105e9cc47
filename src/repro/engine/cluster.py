"""Cluster bring-up: one RPC group per run, on either runtime.

:func:`deploy` builds a fresh deployment of one sharded graph — an RPC
group with one storage server per machine hosting that machine's
:class:`~repro.storage.shard.GraphShard` — and hands back the RRef list
every computing process receives (Section 3.1).  The two backends,
:class:`SimCluster` (virtual-time scheduler) and :class:`ThreadCluster`
(real OS threads), expose the same members, so every run body in the repo
is written once against this seam::

    cluster = deploy(sharded, config, runtime)
    proc = cluster.worker(machine, p)        # handle exists before the body
    cluster.spawn_compute(machine, p, driver(g, proc, ...))
    makespan = cluster.run()                 # re-raises a driver failure
    value = cluster.result_of(proc.name)
"""

from __future__ import annotations

from repro.engine.config import EngineConfig
from repro.errors import SimulationError
from repro.obs import DEFAULT_MAX_SPANS, Obs
from repro.rpc.api import RpcContext
from repro.rpc.rref import RRef
from repro.rpc.thread_runtime import ThreadRuntime
from repro.rpc.worker import TransportCounters
from repro.simt.scheduler import Scheduler
from repro.storage.build import ShardedGraph


class _Cluster(TransportCounters):
    """What both backends share: bring-up, worker handles, run, results.

    ``trace`` / ``max_spans`` / ``fault_plan`` / ``retry_policy`` are
    per-run knobs (one cluster is built per run) carried by a
    :class:`~repro.engine.request.RunRequest` (or, for walks and
    ingestion, a session / stream config).  The retry policy travels with
    the fault plan it answers and resolves in two steps, once, for every
    body: the explicit argument › the default policy iff the fault plan is
    non-empty (applied by the RPC group,
    :class:`~repro.rpc.worker.WorkerRegistry`).

    ``sanitize`` attaches a lockset race detector
    (:class:`repro.analysis.race.RaceDetector`) as ``sanitizer`` /
    ``obs.sanitizer``; :meth:`run` installs its ShardedMap hook for
    exactly the duration of the run.
    """

    def __init__(self, sharded: ShardedGraph, config: EngineConfig, *,
                 fault_plan=None, retry_policy=None, trace: bool = False,
                 max_spans: int | None = None,
                 sanitize: bool = False) -> None:
        if sharded.n_shards != config.n_shards:
            raise SimulationError(
                f"graph has {sharded.n_shards} shards but config expects "
                f"{config.n_shards} machines"
            )
        self.sharded = sharded
        self.config = config
        #: observability bundle shared by this deployment's RPC layer and
        #: every process spawned into it
        self.obs = Obs.create(
            trace=trace,
            max_spans=DEFAULT_MAX_SPANS if max_spans is None else max_spans,
        )
        self.sanitizer = None
        if sanitize:
            from repro.analysis.race import RaceDetector

            self.sanitizer = RaceDetector()
        self.obs.sanitizer = self.sanitizer
        #: the RPC group RRefs dispatch through
        self.ctx = self._make_ctx(fault_plan, retry_policy)
        self.rrefs: list[RRef] = []
        for m in range(config.n_machines):
            self.ctx.register_server(config.server_name(m), m)
            self.rrefs.append(self.ctx.create_remote(
                config.server_name(m), "storage",
                lambda shard=sharded.shards[m]: shard,
            ))
        self._workers: dict[str, object] = {}
        self._compute: list = []

    def worker(self, machine: int, proc_index: int):
        """Process handle of computing process ``proc_index`` on ``machine``.

        Registered on first use, *before* its body exists: drivers and the
        fetch layer take their own handle (``measured``, ``span``,
        ``clock``) as an argument, and :meth:`spawn_compute` then starts
        the body on it.
        """
        name = self.config.worker_name(machine, proc_index)
        proc = self._workers.get(name)
        if proc is None:
            proc = self._workers[name] = self.ctx.register_worker(name,
                                                                  machine)
        return proc

    def spawn_compute(self, machine: int, proc_index: int, body) -> str:
        """Run ``body`` as that computing process; returns its worker name."""
        proc = self.worker(machine, proc_index)
        self._compute.append(proc)
        self._start(proc, body)
        return proc.name

    def run(self) -> float:
        """Run every spawned body to completion; return the makespan.

        The makespan is the latest final clock among the computing
        processes — the paper's throughput denominator.  The first driver
        failure (in spawn order) is re-raised.
        """
        if self.sanitizer is None:
            self._drain()
        else:
            from repro.analysis.race import installed

            with installed(self.sanitizer):
                self._drain()
        for proc in self._compute:
            self.result_of(proc.name)
        return max((p.clock for p in self._compute), default=0.0)

    def compute_processes(self) -> list:
        """Process handles of the spawned bodies, in spawn order."""
        return list(self._compute)

    def results(self) -> dict[str, object]:
        """Worker name -> return value of every spawned body."""
        return {p.name: self.result_of(p.name) for p in self._compute}


class SimCluster(_Cluster):
    """A simulated K-machine deployment on the virtual-time scheduler."""

    def __init__(self, sharded: ShardedGraph, config: EngineConfig,
                 **overrides) -> None:
        self.scheduler = Scheduler()
        super().__init__(sharded, config, **overrides)

    def _make_ctx(self, fault_plan, retry_policy) -> RpcContext:
        return RpcContext(self.scheduler, self.config.network,
                          fault_plan=fault_plan, retry_policy=retry_policy,
                          obs=self.obs)

    def _start(self, proc, body) -> None:
        proc.start(body)

    def _drain(self) -> None:
        self.scheduler.run()

    def result_of(self, name: str):
        """Return value of a finished body (re-raises its exception)."""
        return self.scheduler.result_of(name)

    def start_timeline(self, timeline, gauges=None) -> None:
        """Take the t=0 sample and arm the virtual-time grid sampler."""
        from repro.obs.analysis.timeline import install_sim_sampler

        install_sim_sampler(self.scheduler, self.obs.metrics, timeline,
                            timeline.interval, gauges=gauges)


class ThreadCluster(_Cluster):
    """The same deployment over :class:`~repro.rpc.ThreadRuntime`.

    Same worker names, same bring-up, same bodies — so every caller issues
    the identical remote-call sequence and a ``FaultPlan`` replays the
    identical drop decisions.  Modeled virtual timing does not apply:
    clocks (and the makespan) are accumulated charged seconds, and crash
    windows are virtual-time constructs and are ignored.  Bodies start
    when :meth:`run` is called, as on the scheduler.
    """

    def __init__(self, sharded: ShardedGraph, config: EngineConfig,
                 **overrides) -> None:
        self._bodies: list = []
        super().__init__(sharded, config, **overrides)

    def _make_ctx(self, fault_plan, retry_policy) -> ThreadRuntime:
        return ThreadRuntime(fault_plan=fault_plan, retry_policy=retry_policy,
                             obs=self.obs, sanitizer=self.sanitizer)

    def _start(self, proc, body) -> None:
        self._bodies.append((proc.name, body))

    def _drain(self) -> None:
        try:
            for name, body in self._bodies:
                self.ctx.spawn(name, body)
            self.ctx.join(timeout=180)
        finally:
            self.ctx.shutdown()

    def result_of(self, name: str):
        """Return value of a finished body (re-raises its exception)."""
        return self.ctx.result_of(name)

    def start_timeline(self, timeline, gauges=None) -> None:
        """Take the t=0 sample; real threads have no virtual timer to arm,
        so the series keeps the two deterministic edges."""
        from repro.obs.analysis.timeline import sample_engine

        sample_engine(timeline, 0.0, self.obs.metrics, gauges)


def deploy(sharded: ShardedGraph, config: EngineConfig,
           runtime: str = "sim", **overrides) -> _Cluster:
    """Deploy ``sharded`` on the named runtime (``"sim"`` | ``"threads"``).

    ``runtime`` is the value a ``SessionConfig`` / ``StreamConfig``
    already validated; ``overrides`` are the per-run knobs documented on
    the cluster class.
    """
    cls = ThreadCluster if runtime == "threads" else SimCluster
    return cls(sharded, config, **overrides)
