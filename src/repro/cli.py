"""Command-line interface: ``python -m repro.cli <command>``.

Downstream-friendly entry points for the preprocessing / query pipeline:

* ``info``       — dataset/graph statistics (Table 1 style);
* ``partition``  — partition a graph and persist the sharded result;
* ``query``      — run an SSPPR batch against a graph or saved shards;
* ``walk``       — run distributed random walks;
* ``bench``      — the benchmark observatory (see ``docs/benchmarking.md``):
  ``bench run`` executes the suite at a scale (and, given ``--out``,
  aggregates the structured reports into a trajectory); ``bench report``
  re-aggregates existing results (``--out BENCH_<scale>.json`` regenerates
  the baseline); ``bench diff`` renders an old-vs-new
  trajectory comparison; ``bench check`` is the regression gate (non-zero
  exit naming every offending metric, ``.txt``/``.json`` result siblings
  cross-checked);
* ``serve``      — multi-tenant open-loop serving: replay a seeded Poisson
  or bursty arrival trace through a session (admission control, cross-tenant
  batching, SLO accounting; see ``docs/serving.md``);
* ``chaos``      — a clean-vs-faulty run under an injected fault plan;
* ``profile``    — run a traced batch and export metrics as a Chrome trace
  (``--format chrome``), machine-readable JSON (``stats``), or an aligned
  text table (``table``);
* ``doctor``     — trace analytics (``docs/observability.md``): causal
  critical paths with per-bucket attribution, heat-ordered stragglers,
  trace-incompleteness warnings; ``--diff`` compares two saved
  diagnosis reports;
* ``analyze``    — the determinism/concurrency lint gate
  (see ``docs/static-analysis.md``): run the ``repro.analysis`` AST rules
  over the source tree; non-zero exit naming each violation.

Graphs are referenced either by stand-in dataset name
(``products|twitter|friendster|papers``, with ``--scale``) or by a ``.npz``
file written by :func:`repro.graph.io.save_npz`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.graph import load_dataset, load_npz
from repro.graph.datasets import DATASETS
from repro.graph.stats import compute_stats, format_table
from repro.partition import MetisLitePartitioner
from repro.ppr import DegradationMode, PPRParams
from repro.rpc import RetryPolicy
from repro.simt import CrashWindow, FaultPlan
from repro.storage.persist import load_sharded, save_sharded

#: repository layout anchors for the bench observatory subcommands
_REPO_ROOT = Path(__file__).resolve().parents[2]
_BENCHMARKS_DIR = _REPO_ROOT / "benchmarks"
_RESULTS_DIR = _BENCHMARKS_DIR / "results"


def _load_graph(args) -> tuple[str, object]:
    if args.graph in DATASETS:
        return args.graph, load_dataset(args.graph, scale=args.scale)
    path = Path(args.graph)
    if not path.exists():
        raise SystemExit(
            f"error: {args.graph!r} is neither a dataset name "
            f"({sorted(DATASETS)}) nor a file"
        )
    return path.stem, load_npz(path)


#: named stand-in scales, matching the bench observatory's tiers
NAMED_SCALES = {"tiny": 0.04, "small": 0.25, "full": 1.0}


def _scale_value(text: str) -> float:
    """``--scale`` accepts a named tier (tiny/small/full) or a float."""
    if text in NAMED_SCALES:
        return NAMED_SCALES[text]
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is neither a named scale ({sorted(NAMED_SCALES)}) "
            "nor a number"
        ) from None


def _add_graph_args(p: argparse.ArgumentParser,
                    default: str | None = None) -> None:
    """``graph`` + ``--scale``; the positional is optional iff ``default``."""
    if default is None:
        p.add_argument("graph", help="dataset name or graph .npz path")
    else:
        p.add_argument("graph", nargs="?", default=default,
                       help="dataset name or graph .npz path "
                            f"(default {default})")
    p.add_argument("--scale", type=_scale_value, default=0.1,
                   help="stand-in scale when loading by name: a fraction "
                        "or tiny/small/full (default 0.1)")


def _add_engine_args(p: argparse.ArgumentParser,
                     graph_default: str | None = None,
                     seed_help: str | None = None) -> None:
    """The deployment every engine-backed subcommand builds
    (:func:`_engine_from_args`), plus its ``--seed``."""
    _add_graph_args(p, graph_default)
    p.add_argument("--shards", default=None,
                   help="load a saved sharded graph instead")
    p.add_argument("--machines", type=int, default=4)
    p.add_argument("--procs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help=seed_help)


def _add_ppr_args(p: argparse.ArgumentParser, queries: int) -> None:
    p.add_argument("--queries", type=int, default=queries)
    p.add_argument("--alpha", type=float, default=0.462)
    p.add_argument("--epsilon", type=float, default=1e-6)


def _add_chaos_args(p: argparse.ArgumentParser, *, drop: float,
                    max_attempts: int) -> None:
    p.add_argument("--drop", type=float, default=drop,
                   help="per-message drop probability")
    p.add_argument("--fault-seed", type=int, default=7,
                   help="fault plan seed (faults replay deterministically)")
    p.add_argument("--max-attempts", type=int, default=max_attempts)
    p.add_argument("--timeout", type=float, default=0.05,
                   help="per-attempt RPC timeout, virtual seconds")


def _chaos_from_args(args) -> tuple[FaultPlan | None, RetryPolicy | None]:
    """``--drop 0`` is a healthy run: no plan, and no retry layer either."""
    if args.drop <= 0:
        return None, None
    return (FaultPlan(seed=args.fault_seed, drop_prob=args.drop),
            RetryPolicy(max_attempts=args.max_attempts,
                        timeout=args.timeout))


def cmd_info(args) -> int:
    name, graph = _load_graph(args)
    stats = compute_stats(name, graph)
    print(format_table([stats.as_row()]))
    print(f"isolated nodes: {stats.isolated_nodes}")
    return 0


def cmd_partition(args) -> int:
    from repro.partition import partition_quality
    from repro.storage import build_shards
    from repro.utils.timer import Stopwatch

    name, graph = _load_graph(args)
    # user-facing progress timing, one lap per phase (not a modeled cost)
    with Stopwatch() as watch:
        partitioner = MetisLitePartitioner(seed=args.seed)
        result = partitioner.partition(graph, args.machines)
        partition_s = watch.lap()
        quality = partition_quality(graph, result)
        quality_s = watch.lap()
        sharded = build_shards(graph, result, seed=args.seed,
                               halo_hops=args.halo_hops)
        build_shards_s = watch.lap()
    save_sharded(args.output, sharded, halo_hops=args.halo_hops)
    print(f"partitioned {name} into {args.machines} shards in "
          f"{partition_s:.2f}s (quality {quality_s:.2f}s, "
          f"build_shards {build_shards_s:.2f}s)")
    print(f"edge cut: {quality.edge_cut:.3f}  balance: {quality.balance:.3f}")
    for desc in sharded.describe():
        print(f"  shard {desc['shard_id']}: {desc['n_core']} core, "
              f"{desc['n_halo']} halo, {desc['memory_mb']:.1f} MB")
    print(f"saved to {args.output}")
    return 0


def _engine_from_args(args) -> GraphEngine:
    if args.shards:
        sharded = load_sharded(args.shards)
        cfg = EngineConfig(n_machines=sharded.n_shards,
                           procs_per_machine=args.procs)
        return GraphEngine(sharded.graph, cfg, sharded=sharded)
    _, graph = _load_graph(args)
    cfg = EngineConfig(n_machines=args.machines,
                       procs_per_machine=args.procs)
    return GraphEngine(graph, cfg)


def cmd_query(args) -> int:
    engine = _engine_from_args(args)
    params = PPRParams(alpha=args.alpha, epsilon=args.epsilon)
    run = engine.run(RunRequest(
        n_queries=args.queries, params=params, seed=args.seed,
        mode="batched" if args.batch_queries else "engine",
        keep_states=args.top > 0,
    ))
    print(f"{run.n_queries} SSPPR queries: {run.throughput:.1f} q/s "
          f"(virtual), makespan {run.makespan * 1e3:.2f} ms")
    print(f"phases: " + ", ".join(
        f"{k}={v * 1e3:.2f}ms" for k, v in run.phases.items()
    ))
    print(f"RPC: {run.remote_requests} remote, {run.local_calls} local")
    if args.top > 0 and run.states:
        gid, state = next(iter(run.states.items()))
        gids, values = state.results_global(engine.sharded)
        order = np.argsort(-values)[: args.top]
        print(f"top-{args.top} for source {gid}: "
              + ", ".join(f"{gids[i]}({values[i]:.4f})" for i in order))
    return 0


def cmd_walk(args) -> int:
    engine = _engine_from_args(args)
    run = engine.run_random_walks(n_roots=args.roots,
                                  walk_length=args.length, seed=args.seed)
    print(f"{len(run.roots)} walks of length {args.length}: "
          f"{run.throughput:.0f} walks/s (virtual)")
    for row in run.walks[: min(3, len(run.walks))]:
        print("  " + " -> ".join(str(int(v)) for v in row))
    return 0


def cmd_stream(args) -> int:
    from repro.engine.query import sample_sources
    from repro.stream import (StreamConfig, StreamEvent, StreamingSession,
                              TemporalEdgeStream)

    engine = _engine_from_args(args)
    params = PPRParams(alpha=args.alpha, epsilon=args.epsilon)
    session = StreamingSession(engine, StreamConfig(
        runtime=args.runtime, params=params,
        refresh_every=args.refresh_every,
    ))
    published = sample_sources(engine.sharded, args.publish, seed=args.seed)
    session.publish(published)
    stream = TemporalEdgeStream(engine.graph, seed=args.seed,
                                batch_size=args.batch_size)
    query_pool = sample_sources(engine.sharded, max(args.queries, 1),
                                seed=args.seed + 1)
    events = []
    for i in range(args.batches):
        if args.queries:
            events.append(StreamEvent(
                kind="query",
                source=int(query_pool[i % len(query_pool)])))
        events.append(StreamEvent(kind="update", batch=stream.next_batch()))
        if args.rebalance_every and (i + 1) % args.rebalance_every == 0:
            events.append(StreamEvent(kind="rebalance"))
    report = session.run_stream(events)

    snap = session.metrics.snapshot()
    print(f"{report.n_batches} update batches "
          f"({report.n_applied} applied, {report.n_failed} failed), "
          f"{report.n_queries} queries, {report.n_refreshes} refreshes, "
          f"clock {report.clock * 1e3:.2f} ms")
    print(f"arcs: +{snap.get('stream.arcs_inserted', 0)} "
          f"-{snap.get('stream.arcs_deleted', 0)} "
          f"~{snap.get('stream.arcs_reweighted', 0)}; "
          f"staged rows {snap.get('stream.staged_rows', 0)}")
    print(f"incremental maintenance: "
          f"{snap.get('stream.refresh_corrections', 0)} corrections, "
          f"{snap.get('stream.refresh_pushes', 0)} signed pushes "
          f"across {len(session.states)} published vectors")
    for rb in report.rebalance_reports:
        print(f"rebalance: {rb.n_migrated} migrated, "
              f"{rb.n_replicated} replicated, "
              f"{rb.bytes_copied} bytes copied")
    src = int(published[0])
    p, r = session.published(src)
    order = np.argsort(-p)[: args.top]
    print(f"top-{args.top} for source {src}: "
          + ", ".join(f"{int(g)}({p[g]:.4f})" for g in order))
    return 0


def _trajectory_from_results(results_dir: Path, scale: str) -> dict:
    from repro.obs import bench as obs_bench

    reports = obs_bench.load_reports(results_dir)
    at_scale = [d for d in reports if d["scale"] == scale]
    if not at_scale:
        raise SystemExit(
            f"error: no {scale}-scale reports under {results_dir} "
            f"(found scales: {sorted({d['scale'] for d in reports})})"
        )
    return obs_bench.build_trajectory(at_scale, scale)


def cmd_bench_run(args) -> int:
    """Run the suite at a scale; with ``--out``, aggregate the structured
    reports into a trajectory there.  Without it the committed
    ``BENCH_<scale>.json`` is left alone, so ``bench check`` compares the
    fresh results with the baseline rather than with themselves."""
    from repro.obs import bench as obs_bench

    code = obs_bench.run_suite(
        args.benchmarks_dir, args.scale, select=args.select,
        repo_root=_REPO_ROOT,
    )
    if code != 0:
        print(f"bench run: suite FAILED (pytest exit {code}); "
              "trajectory not written")
        return code
    if args.select or args.out is None:
        why = "partial suite (--select)" if args.select else "no --out"
        print(f"bench run: {why} — trajectory not written; "
              f"'bench check --scale {args.scale}' gates the results")
        return 0
    trajectory = _trajectory_from_results(Path(args.results_dir), args.scale)
    path = obs_bench.write_trajectory(args.out, trajectory)
    print(f"bench run: {len(trajectory['benches'])} benches at "
          f"scale={args.scale} -> {path}")
    return 0


def cmd_bench_report(args) -> int:
    """Aggregate existing results/*.json into a trajectory + summary."""
    from repro.obs import bench as obs_bench

    trajectory = _trajectory_from_results(Path(args.results_dir), args.scale)
    rows = [{"bench": name, "rows": b["n_rows"],
             "fields": sum(len(rec) for rec in b["records"].values()),
             "extra": len(b["extra"])}
            for name, b in sorted(trajectory["benches"].items())]
    print(format_table(rows))
    if args.out:
        path = obs_bench.write_trajectory(args.out, trajectory)
        print(f"trajectory -> {path}")
    return 0


def cmd_bench_diff(args) -> int:
    """Readable old-vs-new comparison of two trajectory files."""
    from repro.obs import bench as obs_bench

    base = obs_bench.load_trajectory(args.baseline)
    if args.current:
        cur = obs_bench.load_trajectory(args.current)
    else:
        cur = _trajectory_from_results(Path(args.results_dir), base["scale"])
    print(obs_bench.render_diff(base, cur))
    return 0


def cmd_bench_check(args) -> int:
    """The regression gate: current results vs the committed baseline.

    Exit 1 — naming every offending metric — when a gated field drifts
    from the baseline, a stored expectation fails, or the .txt/.json
    result siblings disagree.
    """
    from repro.obs import bench as obs_bench

    baseline_path = Path(args.baseline) if args.baseline \
        else _REPO_ROOT / f"BENCH_{args.scale}.json"
    base = obs_bench.load_trajectory(baseline_path)
    if args.baseline is None and base["scale"] != args.scale:
        raise SystemExit(
            f"error: {baseline_path} records scale={base['scale']!r}, "
            f"expected {args.scale!r}"
        )
    results_dir = Path(args.results_dir)
    reports = obs_bench.load_reports(results_dir)
    at_scale = [d for d in reports if d["scale"] == base["scale"]]
    cur = obs_bench.build_trajectory(at_scale, base["scale"])

    deltas = obs_bench.compare_trajectories(base, cur)
    regressions = obs_bench.regressions(deltas)
    expectation_failures = [
        msg for d in at_scale for msg in obs_bench.evaluate_expectations(d)
    ]
    lint_problems = [] if args.no_lint \
        else obs_bench.lint_results(results_dir)

    for d in regressions:
        print("REGRESSION " + d.describe())
    for msg in expectation_failures:
        print(f"EXPECTATION {msg}")
    for msg in lint_problems:
        print(f"LINT {msg}")
    n_bad = len(regressions) + len(expectation_failures) + len(lint_problems)
    if n_bad:
        print(f"bench check FAILED vs {baseline_path}: "
              f"{len(regressions)} regression(s), "
              f"{len(expectation_failures)} expectation failure(s), "
              f"{len(lint_problems)} lint problem(s)")
        return 1
    n_fields = sum(len(rec) for b in base["benches"].values()
                   for rec in b["records"].values())
    print(f"bench check OK vs {baseline_path}: "
          f"{len(base['benches'])} benches, {n_fields} fields, "
          f"{len(deltas)} tolerated drift(s)")
    return 0


def cmd_chaos(args) -> int:
    """Clean vs faulty run of the same query batch (chaos smoke test)."""
    engine = _engine_from_args(args)
    params = PPRParams(alpha=args.alpha, epsilon=args.epsilon)
    crashes = ()
    if args.crash_machine >= engine.config.n_machines:
        raise SystemExit(
            f"error: --crash-machine {args.crash_machine} out of range "
            f"(deployment has machines 0..{engine.config.n_machines - 1})"
        )
    if args.crash_machine >= 0:
        crashes = (CrashWindow(
            server=engine.config.server_name(args.crash_machine),
            crash_at=args.crash_at, recover_at=args.recover_at,
        ),)
    plan = FaultPlan(seed=args.fault_seed, drop_prob=args.drop,
                     crashes=crashes)
    policy = RetryPolicy(max_attempts=args.max_attempts,
                         timeout=args.timeout)
    clean = engine.run(RunRequest(n_queries=args.queries, params=params,
                                  seed=args.seed))
    faulty = engine.run(RunRequest(
        n_queries=args.queries, params=params, seed=args.seed,
        fault_plan=plan, retry_policy=policy,
        degradation=DegradationMode(args.degradation),
    ))
    print(f"{'run':<8} {'q/s':>10} {'retries':>8} {'timeouts':>9} "
          f"{'dropped':>8} {'degraded':>9}")
    for label, run in (("clean", clean), ("faulty", faulty)):
        print(f"{label:<8} {run.throughput:>10.1f} {run.retries:>8} "
              f"{run.timeouts:>9} {run.dropped_messages:>8} "
              f"{run.degraded_queries:>9}")
    if faulty.degraded_queries:
        print(f"abandoned residual mass: {faulty.abandoned_mass:.6f} "
              f"(bounds each query's L1 error)")
    slowdown = (faulty.makespan / clean.makespan
                if clean.makespan > 0 else float("inf"))
    print(f"fault-induced slowdown: {slowdown:.2f}x")
    return 0


def cmd_profile(args) -> int:
    """Traced run; ``--format`` picks the export surface."""
    import json as _json

    from repro.obs import text_table, write_chrome_trace
    from repro.obs.analysis import rpc_summary

    engine = _engine_from_args(args)
    params = PPRParams(alpha=args.alpha, epsilon=args.epsilon)
    run = engine.run(RunRequest(
        n_queries=args.queries, params=params, seed=args.seed,
        mode=args.mode, trace=True,
    ))
    cfg = engine.config
    machine_of = {cfg.server_name(m): m for m in range(cfg.n_machines)}
    machine_of.update({
        cfg.worker_name(m, p): m
        for m in range(cfg.n_machines) for p in range(cfg.procs_per_machine)
    })
    rpc = rpc_summary(run.obs.tracer, machine_of)
    if args.format == "stats":
        # machine-readable: the flat metrics snapshot, the per-call RPC
        # account and phase seconds
        print(_json.dumps({"metrics": run.metrics,
                           "rpc": rpc,
                           "phases": run.phases,
                           "makespan_s": run.makespan,
                           "n_queries": run.n_queries}, indent=1))
        return 0
    if args.format != "table":
        path = write_chrome_trace(args.out, run.obs.tracer, machine_of)
        n_spans = len(run.obs.tracer)
        print(f"{run.n_queries} queries traced: {n_spans} spans "
              f"({rpc['calls_remote']} RPC client/server pairs) -> {path}")
        print(f"open in chrome://tracing or https://ui.perfetto.dev")
    print(text_table(run.metrics, title="metrics"))
    print("remote calls: " + ", ".join(
        f"{method}={n}" for method, n in rpc["by_method"].items()
    ))
    print("request bytes: " + ", ".join(
        f"p{p}={v:.0f}" for p, v in rpc["payload_percentiles"].items()
    ))
    print("phases: " + ", ".join(
        f"{k}={v * 1e3:.2f}ms" for k, v in run.phases.items()
    ))
    return 0


def cmd_doctor(args) -> int:
    """Trace analytics: critical paths, stragglers, fault counters.

    Three modes: run-and-diagnose (the default), ``--load`` a saved
    diagnosis JSON, or ``--diff A B`` to name the critical-path buckets
    that moved between two saved reports.
    """
    import json as _json

    from repro.obs.analysis import (DiagnosisReport, diagnose, diff_reports,
                                    render_diagnosis, render_doctor_diff)

    if args.diff:
        before = DiagnosisReport.from_json(Path(args.diff[0]).read_text())
        after = DiagnosisReport.from_json(Path(args.diff[1]).read_text())
        diff = diff_reports(before, after, top=args.top)
        if args.json:
            print(_json.dumps(diff, indent=1))
        else:
            print(render_doctor_diff(diff, top=args.top))
        return 0

    if args.load:
        report = DiagnosisReport.from_json(Path(args.load).read_text())
    else:
        engine = _engine_from_args(args)
        params = PPRParams(alpha=args.alpha, epsilon=args.epsilon)
        fault_plan, retry_policy = _chaos_from_args(args)
        run = engine.run(RunRequest(
            n_queries=args.queries, params=params, seed=args.seed,
            trace=True, max_spans=args.max_spans,
            fault_plan=fault_plan, retry_policy=retry_policy,
        ))
        report = diagnose(run)
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"diagnosis -> {args.out}")
    if args.json:
        print(report.to_json(indent=1))
        return 0
    print(render_diagnosis(report, top=args.top))
    return 0


def _parse_tenants(spec: str):
    """``name[:priority[:quota[:weight]]],...`` -> tuple of TenantSpec."""
    from repro.serving import TenantSpec

    if not spec:
        return ()
    out = []
    for part in spec.split(","):
        bits = part.strip().split(":")
        try:
            out.append(TenantSpec(
                bits[0],
                priority=int(bits[1]) if len(bits) > 1 else 0,
                quota=int(bits[2]) if len(bits) > 2 and bits[2] else None,
                weight=float(bits[3]) if len(bits) > 3 else 1.0,
            ))
        except ValueError as exc:
            raise ValueError(f"bad tenant spec {part!r}: {exc}") from None
    return tuple(out)


def cmd_serve(args) -> int:
    """Replay a seeded open-loop trace through a serving session."""
    import json as _json

    from repro.serving import TRACES, SessionConfig, serve_trace

    engine = _engine_from_args(args)
    fault_plan, retry_policy = _chaos_from_args(args)
    kwargs = dict(rate=args.rate, duration=args.duration, seed=args.seed,
                  walk_frac=args.walk_frac, walk_length=args.walk_length)
    if args.trace == "bursty":
        kwargs.update(burst_factor=args.burst_factor, period=args.period,
                      duty=args.duty)
    tenants = _parse_tenants(args.tenants)
    trace = TRACES[args.trace](np.arange(engine.graph.n_nodes),
                               tenants=tenants, **kwargs)
    config = SessionConfig(
        mode=args.mode, runtime=args.runtime, tenants=tenants,
        queue_cap=args.queue_cap, batch_cap=args.batch_cap,
        slo=args.slo, batch_window=args.window, fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    report = serve_trace(engine, trace, config)
    if args.json:
        print(_json.dumps(report.row(), indent=1))
        return 0
    print(f"serving {args.graph} on {engine.config.n_machines} machines "
          f"({args.runtime} runtime, mode={args.mode}"
          + (f", chaos drop={args.drop:g}" if fault_plan else "") + ")")
    print(report.describe())
    return 0


def cmd_analyze(args) -> int:
    """Static-analysis gate: lint the tree, exit 1 naming each violation.

    Any finding fails.  An intentional hit is suppressed where it lives,
    with its reason: an inline ``# repro: allow=REPnnn`` pragma or a
    ``[tool.repro.analysis]`` allowlist entry in ``pyproject.toml``.
    """
    import json as _json

    from repro.analysis import load_config, run_lint
    from repro.analysis.rules import ALL_RULES, get_rules

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id}  {rule.title}")
        return 0
    rules = get_rules(args.rule) if args.rule else ALL_RULES
    paths = [Path(p) for p in args.paths] if args.paths \
        else [_REPO_ROOT / "src" / "repro"]
    violations = run_lint(paths, rules=rules,
                          config=load_config(_REPO_ROOT / "pyproject.toml"),
                          root=_REPO_ROOT)
    if args.json:
        print(_json.dumps([v.as_dict() for v in violations], indent=1))
    else:
        for v in violations:
            print(v.format())
    if violations:
        print(f"analyze: {len(violations)} violation(s) across "
              f"{len({v.rule for v in violations})} rule(s)",
              file=sys.stderr)
        return 1
    if not args.json:
        print(f"analyze OK: {len(rules)} rule(s), 0 violations")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="graph statistics")
    _add_graph_args(p)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("partition", help="partition + persist shards")
    _add_graph_args(p)
    p.add_argument("--machines", type=int, default=4)
    p.add_argument("--halo-hops", type=int, default=1, choices=(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="sharded.npz")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("query", help="run SSPPR queries")
    _add_engine_args(p)
    _add_ppr_args(p, queries=16)
    p.add_argument("--top", type=int, default=10,
                   help="print top-K PPR of one query (0 = off)")
    p.add_argument("--batch-queries", action="store_true",
                   help="inter-query batching (MultiSSPPR)")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("walk", help="run distributed random walks")
    _add_engine_args(p)
    p.add_argument("--roots", type=int, default=16)
    p.add_argument("--length", type=int, default=8)
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("stream",
                       help="streaming updates: incremental PPR + "
                            "telemetry-driven rebalancing")
    _add_engine_args(p)
    p.add_argument("--runtime", choices=("sim", "threads"), default="sim")
    p.add_argument("--batches", type=int, default=8,
                   help="update batches to stream")
    p.add_argument("--batch-size", type=int, default=16,
                   help="edge events per batch")
    p.add_argument("--publish", type=int, default=4,
                   help="PPR vectors published and maintained")
    p.add_argument("--queries", type=int, default=8,
                   help="queries interleaved with the stream (0 = none)")
    p.add_argument("--refresh-every", type=int, default=1,
                   help="refresh published vectors every N batches")
    p.add_argument("--rebalance-every", type=int, default=4,
                   help="rebalance epoch length in batches (0 = never)")
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(fn=cmd_stream)

    p = sub.add_parser("bench",
                       help="benchmark observatory: run/report/diff/check")
    bsub = p.add_subparsers(dest="bench_command", required=True)

    def add_results_dir(b):
        b.add_argument("--results-dir", default=str(_RESULTS_DIR),
                       help="directory of per-bench report JSONs")

    b = bsub.add_parser("run",
                        help="run the bench suite, aggregate a trajectory")
    b.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "full"))
    b.add_argument("--select", default=None,
                   help="pytest -k expression to run a subset")
    b.add_argument("--benchmarks-dir", default=str(_BENCHMARKS_DIR))
    add_results_dir(b)
    b.add_argument("--out", default=None,
                   help="also aggregate a trajectory here (default: none)")
    b.set_defaults(fn=cmd_bench_run)

    b = bsub.add_parser("report",
                        help="summarize the stored per-bench reports")
    b.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "full"))
    add_results_dir(b)
    b.add_argument("--out", default=None,
                   help="also write the aggregated trajectory here")
    b.set_defaults(fn=cmd_bench_report)

    b = bsub.add_parser("diff", help="render baseline vs current trajectory")
    b.add_argument("baseline", help="baseline trajectory JSON")
    b.add_argument("current", nargs="?", default=None,
                   help="current trajectory JSON (default: rebuild "
                        "from --results-dir)")
    add_results_dir(b)
    b.set_defaults(fn=cmd_bench_diff)

    b = bsub.add_parser("check",
                        help="regression gate: exit 1 on any regression")
    b.add_argument("--scale", default="tiny",
                   choices=("tiny", "small", "full"))
    b.add_argument("--baseline", default=None,
                   help="baseline trajectory (default BENCH_<scale>.json)")
    add_results_dir(b)
    b.add_argument("--no-lint", action="store_true",
                   help="skip the txt/json consistency linter")
    b.set_defaults(fn=cmd_bench_check)

    p = sub.add_parser("serve",
                       help="multi-tenant open-loop serving (docs/serving.md)")
    _add_engine_args(
        p, graph_default="products",
        seed_help="trace seed (same seed -> identical workload)")
    p.add_argument("--trace", default="poisson",
                   choices=("poisson", "bursty"),
                   help="arrival process (seeded, open-loop)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="mean arrivals per virtual second")
    p.add_argument("--duration", type=float, default=0.5,
                   help="trace length in virtual seconds")
    p.add_argument("--tenants", default="gold:2:32:2,free:0:8:1",
                   help="comma list of name[:priority[:quota[:weight]]] "
                        "('' = single default tenant)")
    p.add_argument("--slo", type=float, default=0.05,
                   help="per-query latency SLO, virtual seconds")
    p.add_argument("--queue-cap", type=int, default=64,
                   help="bounded admission queue capacity")
    p.add_argument("--batch-cap", type=int, default=16,
                   help="max queries fused into one batch")
    p.add_argument("--window", type=float, default=0.0,
                   help="min virtual seconds between batch dispatches")
    p.add_argument("--walk-frac", type=float, default=0.0,
                   help="fraction of arrivals that are walk queries")
    p.add_argument("--walk-length", type=int, default=8)
    p.add_argument("--mode", default="batched",
                   choices=("engine", "tensor", "batched"),
                   help="fused execution mode for SSPPR batches")
    p.add_argument("--runtime", default="sim", choices=("sim", "threads"),
                   help="drain on the virtual-time scheduler or real "
                        "threads (identical outputs either way)")
    _add_chaos_args(p, drop=0.0, max_attempts=6)
    p.add_argument("--burst-factor", type=float, default=8.0,
                   help="bursty trace: burst-to-base intensity ratio")
    p.add_argument("--period", type=float, default=0.2,
                   help="bursty trace: burst cycle length, seconds")
    p.add_argument("--duty", type=float, default=0.25,
                   help="bursty trace: fraction of each cycle in burst")
    p.add_argument("--json", action="store_true",
                   help="emit the report row as JSON")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("chaos", help="clean vs faulty run, one shot")
    _add_engine_args(p)
    _add_ppr_args(p, queries=16)
    _add_chaos_args(p, drop=0.05, max_attempts=4)
    p.add_argument("--crash-machine", type=int, default=-1,
                   help="crash this machine's storage server (-1 = none)")
    p.add_argument("--crash-at", type=float, default=0.0,
                   help="virtual time the crash starts")
    p.add_argument("--recover-at", type=float, default=float("inf"),
                   help="virtual time the server recovers (inf = never)")
    p.add_argument("--degradation", default="skip_remote",
                   choices=[m.value for m in DegradationMode],
                   help="what a query does when retries are exhausted")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("profile",
                       help="traced run -> Chrome trace JSON + metrics")
    _add_engine_args(p)
    _add_ppr_args(p, queries=8)
    p.add_argument("--mode", default="engine",
                   choices=("engine", "tensor", "batched"))
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace_event JSON output path")
    p.add_argument("--format", default="chrome",
                   choices=("chrome", "stats", "table"),
                   help="chrome: trace file + tables; stats: metrics JSON "
                        "to stdout; table: metrics table only")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("doctor",
                       help="trace analytics: critical paths, stragglers, "
                            "fault counters (docs/observability.md)")
    _add_engine_args(p, graph_default="products")
    _add_ppr_args(p, queries=8)
    p.add_argument("--max-spans", type=int, default=None,
                   help="span cap for the traced run (overflow flags the "
                        "report as trace-incomplete)")
    _add_chaos_args(p, drop=0.0, max_attempts=6)
    p.add_argument("--top", type=int, default=10,
                   help="critical-path buckets to print")
    p.add_argument("--json", action="store_true",
                   help="emit the full diagnosis as JSON")
    p.add_argument("--out", default=None,
                   help="also write the diagnosis JSON here (feeds --diff)")
    p.add_argument("--load", default=None, metavar="REPORT.json",
                   help="render a saved diagnosis instead of running")
    p.add_argument("--diff", nargs=2, default=None,
                   metavar=("BEFORE.json", "AFTER.json"),
                   help="compare two saved diagnoses: name moved buckets")
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser("analyze",
                       help="determinism/concurrency lint over the tree")
    p.add_argument("paths", nargs="*",
                   help="files or directories (default: src/repro)")
    p.add_argument("--rule", action="append", default=None,
                   metavar="REPNNN",
                   help="run only this rule (repeatable)")
    p.add_argument("--json", action="store_true",
                   help="emit violations as JSON")
    p.add_argument("--list-rules", action="store_true",
                   help="list rule IDs and titles, then exit")
    p.set_defaults(fn=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # a rejected argument is a usage error, reported as argparse does
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
