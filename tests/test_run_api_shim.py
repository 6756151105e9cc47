"""The stable ``QueryRunResult`` schema and latency-percentile edges.

``engine.run(RunRequest(...))`` is the one batch entry point (the
deprecated ``run_queries`` shim was removed once serving landed); these
tests pin the result-schema contract — the typed serving counters default
to zero on plain batch runs, convenience wrappers return the same shape —
plus the degenerate ``latency_percentiles`` inputs (0 and 1 samples) that
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

import numpy as np
import pytest

import repro.stream
from repro.cli import build_parser
from repro.engine import EngineConfig, GraphEngine, QueryRunResult, RunRequest
from repro.engine.query import sample_sources
from repro.errors import ShardError
from repro.graph import powerlaw_cluster
from repro.ppr import DegradationMode, PPRParams
from repro.rpc import RetryPolicy
from repro.serving import Query, SessionConfig
from repro.simt.faults import FaultPlan
from repro.stream import StreamConfig


@pytest.fixture(scope="module")
def engine():
    graph = powerlaw_cluster(400, 6, mixing=0.2, seed=7)
    return GraphEngine(graph, EngineConfig(n_machines=2))


class TestResultSchema:
    def test_shim_is_gone(self, engine):
        assert not hasattr(engine, "run_queries")

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

    def test_wrappers_share_the_run_path(self, engine):
        """Convenience wrappers are pure forwarders over ``run``: same
        deterministic outputs as the equivalent explicit request."""
        sources = sample_sources(engine.sharded, 4, seed=9)
        old = engine.run_queries_batched(sources=sources)
        new = engine.run(RunRequest(sources=sources, mode="batched"))
        assert isinstance(old, QueryRunResult)
        assert old.n_queries == new.n_queries
        assert old.remote_requests == new.remote_requests
        assert old.local_calls == new.local_calls
        assert old.states.keys() == new.states.keys()
        n = engine.graph.n_nodes
        for gid in old.states:
            np.testing.assert_array_equal(
                old.states[gid].dense_result(engine.sharded, n),
                new.states[gid].dense_result(engine.sharded, n),
            )

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


class TestKnobCombinations:
    @pytest.mark.parametrize("mode", ["batched", "tensor"])
    def test_skip_remote_needs_engine_mode(self, mode):
        with pytest.raises(ValueError, match='mode="engine"'):
            RunRequest(n_queries=1, mode=mode,
                       degradation=DegradationMode.SKIP_REMOTE)
        with pytest.raises(ValueError, match='mode="engine"'):
            SessionConfig(mode=mode,
                          degradation=DegradationMode.SKIP_REMOTE)

    def test_session_default_mode_is_batched(self):
        with pytest.raises(ValueError, match='mode="engine"'):
            SessionConfig(degradation=DegradationMode.SKIP_REMOTE)

    def test_skip_remote_with_engine_mode_is_accepted(self):
        RunRequest(n_queries=1, degradation=DegradationMode.SKIP_REMOTE)
        SessionConfig(mode="engine",
                      degradation=DegradationMode.SKIP_REMOTE)


class TestKnobSurface:
    """Every independently settable field, by name.  Adding one doubles
    the configurations tests and benches must cover: it has to show up
    here, next to the non-test caller that needs it."""

    def test_engine_config_fields(self):
        assert tuple(f.name for f in dataclasses.fields(EngineConfig)) == (
            "n_machines", "procs_per_machine", "partitioner", "network",
            "opt", "halo_hops", "fetch_split", "fetch_cache_bytes",
            "fetch_coalesce", "seed",
        )

    def test_run_request_fields(self):
        assert tuple(f.name for f in dataclasses.fields(RunRequest)) == (
            "n_queries", "sources", "params", "mode", "keep_states",
            "seed", "trace", "max_spans", "fault_plan", "retry_policy",
            "degradation", "sanitize", "timeline",
        )

    def test_session_config_fields(self):
        assert tuple(f.name for f in dataclasses.fields(SessionConfig)) == (
            "mode", "params", "runtime", "tenants", "queue_cap", "batch_cap",
            "slo", "batch_window", "cost_model", "fault_plan",
            "retry_policy", "degradation",
        )

    def test_stream_config_fields(self):
        """``cost_model`` / ``serving`` / ``max_pushes`` had no caller and
        are gone; the cost coefficients are module constants."""
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

    def test_bench_subcommands_and_flags(self):
        bench = _subcommands(_subcommands(build_parser())["bench"])
        assert {name: _arguments(p) for name, p in bench.items()} == {
            "run": ("--scale", "--select", "--benchmarks-dir",
                    "--results-dir", "--out"),
            "report": ("--scale", "--results-dir", "--out"),
            "diff": ("baseline", "current", "--results-dir", "--wall-rtol"),
            "check": ("--scale", "--baseline", "--results-dir",
                      "--wall-rtol", "--no-lint"),
        }

    def test_shared_flag_groups_keep_each_commands_defaults(self):
        """The graph / engine / ppr / chaos groups are spelled once; what
        differs per subcommand is only these defaults."""
        engine_group = dict(scale=0.1, shards=None, machines=4, procs=1,
                            seed=0, no_fetch=False, fetch_cache_bytes=None)
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
