"""The stable ``QueryRunResult`` schema and latency-percentile edges.

``engine.run(RunRequest(...))`` is the one batch entry point (the
deprecated ``run_queries`` shim was removed once serving landed); these
tests pin the result-schema contract — the typed serving counters default
to zero on plain batch runs — plus the degenerate ``latency_percentiles`` inputs (0 and 1 samples) that
historically tripped ``np.percentile`` — and the knob surface: the exact
field names of ``EngineConfig``, ``RunRequest``, ``SessionConfig``,
``StreamConfig``, ``RetryPolicy`` and ``FaultPlan`` and the exact subcommands and flags of ``repro.cli``'s
``analyze`` / ``bench``, so a new knob is a
visible test diff — and the boundary: caller ids are validated once, with
one typed error, on every path in; a knob combination that would silently
do nothing is rejected where it is written.
"""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest

import repro.gnn
import repro.graph
import repro.ppr
import repro.simt
import repro.stream
from repro.cli import build_parser
from repro.engine import EngineConfig, GraphEngine, QueryRunResult, RunRequest
from repro.engine.query import sample_sources
from repro.errors import ShardError
from repro.graph import powerlaw_cluster
from repro.ppr import DegradationMode, MultiSSPPR, PPRParams, SSPPR
from repro.ppr.hashmap import ShardedMap
from repro.rpc import RetryPolicy
from repro.serving import Query, SessionConfig, bursty_trace, poisson_trace
from repro.simt.faults import FaultPlan
from repro.stream import StreamConfig, TemporalEdgeStream
from repro.stream.rebalance import RebalancePolicy


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(400, 6, mixing=0.2, seed=7)
    return GraphEngine(graph, EngineConfig(n_machines=2))


class TestResultSchema:
    def test_shim_is_gone(self, engine):
        """No per-mode wrappers either: callers name the mode on the
        request."""
        for name in ("run_queries", "run_queries_batched",
                     "run_tensor_queries"):
            assert not hasattr(engine, name), name

    def test_serving_counters_default_zero_on_batch_runs(self, engine):
        run = engine.run(RunRequest(n_queries=3))
        assert isinstance(run, QueryRunResult)
        assert (run.admitted, run.rejected, run.deadline_missed) == (0, 0, 0)

    def test_forwards_all_kwargs(self, engine):
        sources = sample_sources(engine.sharded, 3, seed=5)
        params = PPRParams(epsilon=1e-4)
        run = engine.run(RunRequest(sources=sources, params=params,
                                    keep_states=True, seed=5))
        assert run.n_queries == 3
        assert sorted(run.states) == sorted(sources.tolist())

    def test_sources_win_over_n_queries(self, engine):
        sources = sample_sources(engine.sharded, 2, seed=0)
        run = engine.run(RunRequest(sources=sources))
        assert run.n_queries == 2


class TestSourceValidation:
    """Out-of-range caller ids never wrap, never escape as ``IndexError``
    and never depend on the mode: ``ShardError`` from the one boundary
    function, before any cluster is deployed."""

    @pytest.mark.parametrize("mode", ["engine", "batched", "tensor"])
    @pytest.mark.parametrize("bad", [-1, 400])
    def test_run_rejects_out_of_range_sources(self, engine, mode, bad):
        good = int(sample_sources(engine.sharded, 1, seed=0)[0])
        with pytest.raises(ShardError, match="out of range"):
            engine.run(RunRequest(sources=[good, bad], mode=mode))

    @pytest.mark.parametrize("bad", [-1, 400])
    def test_bfs_rejects_out_of_range_source(self, engine, bad):
        with pytest.raises(ShardError, match="out of range"):
            engine.run_bfs(bad)

    def test_walk_query_rejects_out_of_range_root(self, engine):
        session = engine.open_session()
        session.submit(Query(source=400, kind="walk"))
        with pytest.raises(ShardError, match="out of range"):
            session.drain()


#: (``sources`` as a caller might hand them over, one such ``Query.source``)
HOSTILE_SOURCES = {
    "floats": (np.array([1.7, 2.2]), 1.7),
    "bools": ([True, False], True),
    "strings": (["3"], "3"),
    "two-dimensional": (np.array([[1, 2]]), np.array([1, 2])),
    "empty": ([], None),
}


class TestHostileSources:
    """Ids that are not integers are refused, never truncated or coerced —
    ``ValueError`` at construction, so no cluster is deployed for them."""

    @pytest.mark.parametrize("sources, source", HOSTILE_SOURCES.values(),
                             ids=HOSTILE_SOURCES.keys())
    def test_rejected_before_deploy(self, engine, monkeypatch, sources,
                                    source):
        def no_deploy(*args, **kwargs):
            raise AssertionError("a cluster was deployed")

        monkeypatch.setattr("repro.serving.session.deploy", no_deploy)
        for mode in ("engine", "batched", "tensor"):
            with pytest.raises(ValueError, match="sources must be"):
                engine.run(RunRequest(sources=sources, mode=mode))
        session = engine.open_session()
        with pytest.raises(ValueError, match="source must be"):
            session.submit(Query(source=source))
        assert session.pending == 0

    def test_integer_arrays_of_any_width_are_accepted(self, engine):
        good = sample_sources(engine.sharded, 2, seed=0)
        for sources in (good.astype(np.int32), good.astype(np.uint16),
                        good.tolist()):
            request = RunRequest(sources=sources)
            assert request.sources.dtype == np.int64
            assert request.sources.tolist() == good.tolist()
        Query(source=np.int32(3))


class TestHostileInts:
    """Integer knobs follow the ``sources`` rule: a bool or a non-integer
    is a ``ValueError`` where it is written — ``n_queries=True`` used to
    run one query, ``2.5`` died inside slicing, ``n_machines=True``
    deployed one machine and ``halo_hops=True`` passed as 1."""

    @pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, "2"])
    def test_n_queries(self, bad):
        with pytest.raises(ValueError, match="n_queries must be an integer"):
            RunRequest(n_queries=bad)

    @pytest.mark.parametrize("field", ["n_machines", "procs_per_machine",
                                       "halo_hops"])
    @pytest.mark.parametrize("bad", [True, 1.0, 1.5])
    def test_engine_config(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EngineConfig(**{field: bad})

    def test_numpy_integers_pass(self, engine):
        config = EngineConfig(n_machines=np.int64(2),
                              procs_per_machine=np.int32(1),
                              halo_hops=np.uint8(2))
        assert (config.n_machines, config.halo_hops) == (2, 2)
        run = engine.run(RunRequest(n_queries=np.int64(2), seed=1))
        assert run.n_queries == 2


def _walks(**kwargs):
    """``run_random_walks`` on a two-machine toy engine."""
    engine = GraphEngine(powerlaw_cluster(40, 3, seed=0),
                         EngineConfig(n_machines=2))
    return engine.run_random_walks(**kwargs)


#: (constructor, kwargs, error) — each was accepted, then failed later
#: (inside NumPy's SeedSequence, at a traced deploy) or truncated silently
_CONSTRUCTOR_HOLES = {
    "RunRequest-seed-float": (RunRequest, dict(n_queries=1, seed=1.5),
                              "seed must be an integer"),
    "RunRequest-seed-negative": (RunRequest, dict(n_queries=1, seed=-1),
                                 "seed must be >= 0"),
    "EngineConfig-seed-float": (EngineConfig, dict(seed=1.5),
                                "seed must be an integer"),
    "EngineConfig-seed-negative": (EngineConfig, dict(seed=-1),
                                   "seed must be >= 0"),
    "RunRequest-max_spans-zero": (RunRequest, dict(n_queries=1, max_spans=0),
                                  "max_spans must be > 0"),
    "RunRequest-max_spans-negative": (
        RunRequest, dict(n_queries=1, max_spans=-1), "max_spans must be > 0"),
    "TemporalEdgeStream-batch_size-float": (
        TemporalEdgeStream, dict(batch_size=2.5),
        "batch_size must be an integer"),
    "TemporalEdgeStream-batch_size-bool": (
        TemporalEdgeStream, dict(batch_size=True),
        "batch_size must be an integer"),
    "RebalancePolicy-top_k-nan": (RebalancePolicy, dict(top_k=float("nan")),
                                  "top_k must be an integer"),
    "RebalancePolicy-top_k-negative": (RebalancePolicy, dict(top_k=-1),
                                       "top_k must be >= 0"),
    "RebalancePolicy-max_migrations-float": (
        RebalancePolicy, dict(max_migrations=1.5),
        "max_migrations must be an integer"),
    "RebalancePolicy-migrate_frac-nan": (
        RebalancePolicy, dict(migrate_frac=float("nan")),
        r"migrate_frac must be in \[0.0, 1.0\]"),
    "RebalancePolicy-min_heat-negative": (RebalancePolicy, dict(min_heat=-1),
                                          "min_heat must be >= 0"),
    "TemporalEdgeStream-seed-float": (TemporalEdgeStream, dict(seed=1.5),
                                      "seed must be an integer"),
    "FaultPlan-seed-float": (FaultPlan, dict(seed=1.5),
                             "seed must be an integer"),
    "FaultPlan-seed-bool": (FaultPlan, dict(seed=True),
                            "seed must be an integer"),
    "FaultPlan-seed-negative": (FaultPlan, dict(seed=-1), "seed must be >= 0"),
    "poisson_trace-seed-float": (
        poisson_trace, dict(pool=np.arange(4), rate=10.0, duration=1.0,
                            seed=1.5), "seed must be an integer"),
    "bursty_trace-seed-negative": (
        bursty_trace, dict(pool=np.arange(4), rate=10.0, duration=1.0,
                           seed=-1), "seed must be >= 0"),
    "run_random_walks-n_roots-zero": (_walks, dict(n_roots=0, walk_length=2),
                                      "n_roots must be > 0"),
    "run_random_walks-n_roots-float": (
        _walks, dict(n_roots=2.5, walk_length=2), "n_roots must be an integer"),
    "run_random_walks-walk_length-float": (
        _walks, dict(n_roots=2, walk_length=2.5),
        "walk_length must be an integer"),
    "ShardedMap-n_keys-past-MAX_KEY": (
        ShardedMap, dict(n_keys=ShardedMap.MAX_KEY + 2),
        f"n_keys must be <= {ShardedMap.MAX_KEY + 1}"),
}
#: a declared key domain (``ShardedMap``) or node domain (the PPR states)
#: that is not a positive integer
_CONSTRUCTOR_HOLES.update({
    f"{make.__name__}-{name}-{case}": (
        make, {**kwargs, name: value}, f"{name} must be {error}")
    for make, name, kwargs in (
        (ShardedMap, "n_keys", {}),
        (MultiSSPPR, "n_nodes", dict(sources=[0], params=PPRParams(),
                                     source_wdegs=[1.0])),
        (SSPPR, "n_nodes", dict(source=0, params=PPRParams(),
                                source_wdeg=1.0)))
    for case, value, error in (("bool", True, "an integer"),
                               ("float", 64.0, "an integer"),
                               ("nan", float("nan"), "an integer"),
                               ("zero", 0, "> 0"),
                               ("negative", -64, "> 0"))})


class TestConstructorHoles:
    """Public constructors reject a bad value where it is written."""

    @pytest.mark.parametrize("make, kwargs, error",
                             list(_CONSTRUCTOR_HOLES.values()),
                             ids=list(_CONSTRUCTOR_HOLES))
    def test_rejected(self, make, kwargs, error):
        if make is TemporalEdgeStream:
            kwargs = {"graph": powerlaw_cluster(30, 3, seed=0), "seed": 0,
                      **kwargs}
        with pytest.raises(ValueError, match=error):
            make(**kwargs)

    def test_defaults_and_edges_pass(self):
        RunRequest(n_queries=1, seed=np.int64(0), max_spans=1)
        EngineConfig(seed=np.uint32(3))
        TemporalEdgeStream(powerlaw_cluster(30, 3, seed=0), seed=0,
                           batch_size=np.int64(1))
        RebalancePolicy(top_k=0, min_heat=0, migrate_frac=1.0,
                        max_migrations=0)
        TemporalEdgeStream(powerlaw_cluster(30, 3, seed=0),
                           seed=np.int64(0))
        FaultPlan(seed=np.int64(3))
        poisson_trace(np.arange(4), rate=10.0, duration=1.0,
                      seed=np.uint32(2))
        bursty_trace(np.arange(4), rate=10.0, duration=1.0, seed=0)
        run = _walks(n_roots=np.int64(2), walk_length=np.int64(3))
        assert run.walks.shape == (2, 4)
        assert ShardedMap(n_keys=np.int64(1)).key_indexed
        assert not ShardedMap(n_keys=ShardedMap.MAX_KEY + 1).key_indexed
        assert MultiSSPPR([0, 1], PPRParams(), [1.0, 1.0],
                          n_nodes=np.uint32(2)).map.top_key == 3
        assert SSPPR(0, PPRParams(), 1.0, n_nodes=1).map.top_key == 0


class TestKnobCombinations:
    def test_skip_remote_rejected_on_tensor_mode(self):
        """The dense baseline has no ``abandon``: it would fail fast."""
        with pytest.raises(ValueError, match='mode="tensor"'):
            RunRequest(n_queries=1, mode="tensor",
                       degradation=DegradationMode.SKIP_REMOTE)
        with pytest.raises(ValueError, match='mode="tensor"'):
            SessionConfig(mode="tensor",
                          degradation=DegradationMode.SKIP_REMOTE)

    def test_session_default_mode_is_batched(self):
        config = SessionConfig(degradation=DegradationMode.SKIP_REMOTE)
        assert config.mode == "batched"

    def test_skip_remote_with_engine_mode_is_accepted(self):
        RunRequest(n_queries=1, degradation=DegradationMode.SKIP_REMOTE)
        SessionConfig(mode="engine",
                      degradation=DegradationMode.SKIP_REMOTE)

    def test_skip_remote_with_batched_mode_is_accepted(self):
        RunRequest(n_queries=1, mode="batched",
                   degradation=DegradationMode.SKIP_REMOTE)
        SessionConfig(mode="batched",
                      degradation=DegradationMode.SKIP_REMOTE)


class TestKnobSurface:
    """Every independently settable field, by name.  Adding one doubles
    the configurations tests and benches must cover: it has to show up
    here, next to the non-test caller that needs it."""

    def test_engine_config_fields(self):
        assert tuple(f.name for f in dataclasses.fields(EngineConfig)) == (
            "n_machines", "procs_per_machine", "partitioner", "network",
            "opt", "halo_hops", "seed",
        )

    def test_run_request_fields(self):
        assert tuple(f.name for f in dataclasses.fields(RunRequest)) == (
            "n_queries", "sources", "params", "mode", "keep_states",
            "seed", "trace", "max_spans", "fault_plan", "retry_policy",
            "degradation", "sanitize",
        )

    def test_session_config_fields(self):
        assert tuple(f.name for f in dataclasses.fields(SessionConfig)) == (
            "mode", "params", "runtime", "tenants", "queue_cap", "batch_cap",
            "slo", "batch_window", "fault_plan", "retry_policy",
            "degradation",
        )

    def test_stream_config_fields(self):
        """Streaming steps are priced from the engine's own counts: no
        cost-coefficient field, no stream cost-model class."""
        assert tuple(f.name for f in dataclasses.fields(StreamConfig)) == (
            "runtime", "params", "refresh_every", "fault_plan",
            "retry_policy", "rebalance",
        )
        assert not hasattr(repro.stream, "StreamCostModel")

    def test_retry_policy_fields(self):
        """The knobs inside the knobs.  The backoff schedule (base, factor,
        cap, jitter) was set by nothing, tests included: module constants."""
        assert tuple(f.name for f in dataclasses.fields(RetryPolicy)) == (
            "max_attempts", "timeout",
        )

    def test_fault_plan_fields(self):
        """Drops and crash windows are what commands, benches and examples
        inject; spikes, link latency and stragglers had one unit test."""
        assert tuple(f.name for f in dataclasses.fields(FaultPlan)) == (
            "seed", "drop_prob", "crashes",
        )

    def test_gnn_signatures(self):
        """Figure 7 trains one model: a two-layer ShaDow-SAGE under Adam.
        Layer count, conv type, dropout, betas/eps, the PPR params and the
        model seed are constants, not knobs."""
        def params(fn):
            return tuple(inspect.signature(fn).parameters)

        assert params(repro.gnn.ShadowSage) == (
            "in_dim", "hidden_dim", "n_classes", "seed")
        assert params(repro.gnn.Adam) == ("parameters", "lr")
        assert params(repro.gnn.run_distributed_training) == (
            "graph", "features", "labels", "config", "n_steps",
            "batch_size", "topk", "lr", "seed")

    def test_walk_estimator_signatures(self):
        """Monte-Carlo SSPPR and FORA share one walk kernel; neither grows
        a sampler switch."""
        def params(fn):
            return tuple(inspect.signature(fn).parameters)

        assert params(repro.ppr.monte_carlo_ssppr) == (
            "graph", "source", "alpha", "n_walks", "max_steps", "seed")
        assert params(repro.ppr.fora_ssppr) == (
            "graph", "source", "alpha", "push_epsilon", "walks_per_unit",
            "max_steps", "seed")

    def test_package_exports(self):
        """Re-adding an extra (a layer, an optimizer, a graph helper, a
        sync primitive, a second walk sampler) has to show up here."""
        assert sorted(repro.gnn.__all__) == [
            "Adam", "Batch", "Linear", "Parameter", "SageConv",
            "ShadowSage", "TrainingHistory", "community_task",
            "convert_batch", "relu", "relu_grad",
            "run_distributed_training", "topk_ppr_nodes",
        ]
        assert sorted(repro.graph.__all__) == [
            "CSRGraph", "DATASETS", "DatasetSpec", "GraphStats",
            "cap_degrees", "complete_graph", "compute_stats",
            "connected_components", "cycle_graph", "erdos_renyi",
            "load_dataset", "load_npz", "path_graph", "powerlaw_cluster",
            "rmat", "save_npz", "star_graph", "table1_rows",
        ]
        assert sorted(repro.simt.__all__) == [
            "COMPUTE", "Charge", "CrashWindow", "FaultPlan", "NetworkModel",
            "Scheduler", "SimFuture", "SimProcess", "Sleep", "Wait",
            "WaitAll",
        ]
        assert sorted(repro.ppr.__all__) == [
            "DegradationMode", "DenseSSPPR", "MultiSSPPR", "OptLevel",
            "PPRParams", "QueryView", "SSPPR", "ShardedMap",
            "distributed_sppr_query", "distributed_tensor_query",
            "fora_ssppr", "forward_push_parallel", "forward_push_sequential",
            "l1_error", "monte_carlo_ssppr", "power_iteration_ssppr",
            "topk_nodes", "topk_precision",
        ]


def _subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _arguments(parser) -> tuple:
    """Positionals by dest and options by their strings, in order."""
    return tuple(s for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)
                 for s in (a.option_strings or [a.dest]))


class TestCliSurface:
    """Every subcommand, and every flag of the gate and bench commands, by
    name — the CLI's counterpart of :class:`TestKnobSurface`."""

    def test_subcommands(self):
        assert tuple(_subcommands(build_parser())) == (
            "info", "partition", "query", "walk", "stream", "bench",
            "serve", "chaos", "profile", "doctor", "analyze",
        )

    def test_analyze_flags(self):
        analyze = _subcommands(build_parser())["analyze"]
        assert _arguments(analyze) == (
            "paths", "--rule", "--json", "--list-rules",
        )

    def test_doctor_flags(self):
        """The doctor reads end-of-run counters off ``run.metrics``; it has
        no timeline to sample."""
        doctor = _subcommands(build_parser())["doctor"]
        assert _arguments(doctor) == (
            "graph", "--scale", "--shards", "--machines", "--procs",
            "--seed", "--queries",
            "--alpha", "--epsilon", "--max-spans", "--drop", "--fault-seed",
            "--max-attempts", "--timeout", "--top", "--json", "--out",
            "--load", "--diff",
        )

    def test_profile_flags(self):
        profile = _subcommands(build_parser())["profile"]
        assert _arguments(profile) == (
            "graph", "--scale", "--shards", "--machines", "--procs",
            "--seed", "--queries", "--alpha", "--epsilon", "--mode",
            "--out", "--format",
        )

    @pytest.mark.parametrize("argv", [
        ["query", "products", "--queries", "0"],
        ["walk", "products", "--roots", "0"],
        ["chaos", "products", "--queries", "0"],
        ["profile", "products", "--queries", "0", "--format", "table"],
        ["serve", "--machines", "0"],
    ], ids=lambda argv: argv[0])
    def test_rejected_argument_is_a_usage_error(self, argv, capsys):
        """Every subcommand reports a rejected value as argparse does:
        ``error: ...`` on stderr and exit status 2, not a traceback."""
        from repro.cli import main
        assert main([*argv, "--scale", "0.02"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_walk_names_the_rejected_flag(self, capsys):
        """``walk --roots 0`` names ``n_roots``, not the query sampler's
        ``n_queries``."""
        from repro.cli import main
        assert main(["walk", "products", "--roots", "0",
                     "--scale", "0.02"]) == 2
        assert "n_roots must be > 0" in capsys.readouterr().err

    def test_bench_subcommands_and_flags(self):
        bench = _subcommands(_subcommands(build_parser())["bench"])
        assert {name: _arguments(p) for name, p in bench.items()} == {
            "run": ("--scale", "--select", "--benchmarks-dir",
                    "--results-dir", "--out"),
            "report": ("--scale", "--results-dir", "--out"),
            "diff": ("baseline", "current", "--results-dir"),
            "check": ("--scale", "--baseline", "--results-dir", "--no-lint"),
        }

    def test_shared_flag_groups_keep_each_commands_defaults(self):
        """The graph / engine / ppr / chaos groups are spelled once; what
        differs per subcommand is only these defaults."""
        engine_group = dict(scale=0.1, shards=None, machines=4, procs=1,
                            seed=0)
        ppr = dict(alpha=0.462, epsilon=1e-6)
        expected = {
            ("query", "products"): dict(engine_group, **ppr, queries=16),
            ("profile", "products"): dict(engine_group, **ppr, queries=8),
            ("chaos", "products"): dict(
                engine_group, **ppr, queries=16, drop=0.05, fault_seed=7,
                max_attempts=4, timeout=0.05),
            ("doctor",): dict(
                engine_group, **ppr, queries=8, graph="products", drop=0.0,
                fault_seed=7, max_attempts=6, timeout=0.05),
            ("serve",): dict(
                engine_group, graph="products", drop=0.0, fault_seed=7,
                max_attempts=6, timeout=0.05),
        }
        for argv, defaults in expected.items():
            args = vars(build_parser().parse_args(list(argv)))
            assert {k: args[k] for k in defaults} == defaults, argv


class TestLatencyPercentiles:
    def _result(self, latencies):
        return QueryRunResult(
            n_queries=len(latencies), makespan=1.0, throughput=1.0,
            phases={}, per_proc_clocks={}, remote_requests=0, local_calls=0,
            latencies=latencies,
        )

    def test_zero_samples(self):
        out = self._result({}).latency_percentiles()
        assert out == {50.0: 0.0, 90.0: 0.0, 99.0: 0.0}

    def test_one_sample_is_that_sample(self):
        out = self._result({7: 0.125}).latency_percentiles(q=(1, 50, 99.9))
        assert out == {1.0: 0.125, 50.0: 0.125, 99.9: 0.125}

    def test_keys_are_floats_regardless_of_spelling(self):
        out = self._result({1: 0.1, 2: 0.3}).latency_percentiles(q=(50, 95))
        assert set(out) == {50.0, 95.0}
        assert all(isinstance(k, float) for k in out)

    def test_many_samples_are_ordered(self):
        lat = {i: 0.01 * (i + 1) for i in range(20)}
        out = self._result(lat).latency_percentiles(q=(10, 50, 90))
        assert out[10.0] <= out[50.0] <= out[90.0]
        assert min(lat.values()) <= out[10.0]
        assert out[90.0] <= max(lat.values())

    def test_engine_run_populates_latencies(self, engine):
        run = engine.run(RunRequest(n_queries=3))
        assert len(run.latencies) == 3
        pct = run.latency_percentiles()
        assert pct[50.0] > 0
