"""The engine's run-request API.

A :class:`RunRequest` says *what* one batched query run computes — the
query set, PPR parameters, execution mode, seeding — plus what is observed
about it (tracing, sanitizer, timeline) and the chaos it runs under (fault
plan, the retry policy answering it, degradation mode), as a single
validated value passed to :meth:`~repro.engine.engine.GraphEngine.run`::

    from repro import FaultPlan, GraphEngine, RunRequest

    run = engine.run(RunRequest(
        n_queries=64,
        fault_plan=FaultPlan(seed=7, drop_prob=0.01),
    ))
    print(run.throughput, run.retries, run.degraded_queries)

This replaced the sprawling ``run_queries(...)`` keyword surface (the
deprecated shim is gone).  Requests are frozen: one request can be
replayed against several engines or configurations and means the same thing
every time.  *How* the cluster talks — RPC optimization level, the fetch
layer's knobs, halo depth — is fixed at deployment on
:class:`~repro.engine.config.EngineConfig`; a run at another setting is a
sibling engine over the same shards (no re-partition)::

    import dataclasses

    batch_only = GraphEngine(engine.graph, dataclasses.replace(
        engine.config, opt=OptLevel.BATCH), sharded=engine.sharded)
    run = batch_only.run(request)

For long-lived multi-tenant serving, sessions build these requests
internally — see :mod:`repro.serving` and docs/serving.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ppr.distributed import DegradationMode
from repro.ppr.params import PPRParams
from repro.rpc.retry import RetryPolicy
from repro.simt.faults import FaultPlan

#: execution modes: the PPR Engine, the dense tensor baseline, and the
#: inter-query batched MultiSSPPR engine
RUN_MODES = ("engine", "tensor", "batched")


def check_degradation(mode: str, degradation: DegradationMode) -> None:
    """Reject ``SKIP_REMOTE`` on a mode that would silently fail fast."""
    if degradation is DegradationMode.SKIP_REMOTE and mode != "engine":
        raise ValueError(
            f'degradation=SKIP_REMOTE needs mode="engine" (only SSPPR can '
            f"abandon a batch); mode={mode!r} would fail fast instead"
        )


@dataclass(frozen=True)
class RunRequest:
    """One batched SSPPR run, fully specified.

    Parameters
    ----------
    n_queries / sources:
        Either a query count (sources sampled with ``seed``) or an explicit
        array of source global IDs.  Exactly one must be provided;
        ``sources`` must be a non-empty 1-D array of integer dtype (no
        silent truncation of floats, bools or strings).
    params:
        PPR parameters; engine defaults when ``None``.
    mode:
        ``"engine"`` (hashmap PPR engine, the default), ``"tensor"`` (dense
        baseline), or ``"batched"`` (inter-query MultiSSPPR batching).
    keep_states:
        Collect per-query result states into ``QueryRunResult.states``
        (``mode="batched"`` always collects).
    seed:
        Source-sampling seed override; the config's seed when ``None``.
    trace:
        Attach a :class:`~repro.obs.SpanTracer` recording nested per-process
        spans (queries, pop/push/serve, linked RPC client/server pairs) on
        the process timelines — the one tracing switch, on either runtime.
        Export with :func:`repro.obs.write_chrome_trace` or
        ``repro.cli profile``; summarize the RPC client spans with
        :func:`repro.obs.analysis.rpc_summary`.
    max_spans:
        Cap on retained spans for a traced run (the earliest spans are
        kept; overflow is counted in the ``obs.spans_dropped`` metric);
        ``None`` = the tracer default
        (:data:`repro.obs.DEFAULT_MAX_SPANS`).
    fault_plan:
        Injected faults for this run (chaos testing); ``None`` = healthy.
    retry_policy:
        Timeout/retry/backoff for remote calls; it travels with the fault
        plan it answers.  ``None`` means no retry layer on a healthy run
        and the default policy under a non-empty ``fault_plan``, so drops
        resolve as timeouts instead of deadlocks.
    degradation:
        What a query does when a remote fetch exhausts its retries.
        ``SKIP_REMOTE`` needs ``mode="engine"`` — only its operator can
        write a batch off — and is rejected with any other mode.
    sanitize:
        Attach the lockset race detector
        (:class:`repro.analysis.race.RaceDetector`) to the run: shared
        :class:`~repro.ppr.hashmap.ShardedMap` accesses are recorded and
        lock-discipline violations surface in
        ``QueryRunResult.race_violations`` plus the ``sanitizer.*``
        metrics.  Zero-overhead when off (the default).
    timeline:
        Sampling interval in virtual seconds for a
        :class:`~repro.obs.analysis.Timeline` of selected counters and
        gauges, returned on ``QueryRunResult.timeline``.  On the
        virtual-time scheduler a grid of mid-run samples is taken every
        ``timeline`` seconds; the thread runtime records the
        deterministic edges (t=0 and the final counters).  ``None``
        (the default) disables sampling.
    """

    n_queries: int | None = None
    sources: np.ndarray | None = None
    params: PPRParams | None = None
    mode: str = "engine"
    keep_states: bool = False
    seed: int | None = None
    trace: bool = False
    max_spans: int | None = None
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    degradation: DegradationMode = DegradationMode.FAIL_FAST
    sanitize: bool = False
    timeline: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in RUN_MODES:
            raise ValueError(
                f"mode must be one of {RUN_MODES}, got {self.mode!r}"
            )
        if self.sources is None and self.n_queries is None:
            raise ValueError("pass n_queries or sources")
        if self.sources is not None and self.n_queries is not None:
            raise ValueError("pass n_queries or sources, not both")
        if self.n_queries is not None and self.n_queries <= 0:
            raise ValueError(
                f"n_queries must be > 0, got {self.n_queries}"
            )
        if not isinstance(self.degradation, DegradationMode):
            raise TypeError(
                f"degradation must be a DegradationMode, "
                f"got {type(self.degradation).__name__}"
            )
        check_degradation(self.mode, self.degradation)
        if self.sources is not None:
            sources = np.asarray(self.sources)
            # bool is not an integer dtype to NumPy, so [True, False] fails too
            if (sources.ndim != 1 or sources.size == 0
                    or not np.issubdtype(sources.dtype, np.integer)):
                raise ValueError(
                    f"sources must be a non-empty 1-D array of integer ids, "
                    f"got shape {sources.shape} dtype {sources.dtype}"
                )
            object.__setattr__(
                self, "sources", sources.astype(np.int64, copy=False)
            )
        if self.timeline is not None and self.timeline <= 0:
            raise ValueError(
                f"timeline interval must be > 0, got {self.timeline}"
            )
