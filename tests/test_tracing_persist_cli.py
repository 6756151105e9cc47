"""Tests for RPC tracing, sharded-graph persistence, and the CLI."""

import numpy as np
import pytest

from repro import EngineConfig, GraphEngine, RunRequest
from repro.graph import powerlaw_cluster, save_npz
from repro.obs import SpanTracer
from repro.obs.analysis import rpc_summary
from repro.partition import MetisLitePartitioner
from repro.storage import build_shards
from repro.storage.persist import load_sharded, save_sharded


def machine_map(cfg):
    """Process name -> machine id for every server and computing process."""
    out = {cfg.server_name(m): m for m in range(cfg.n_machines)}
    out.update({cfg.worker_name(m, p): m for m in range(cfg.n_machines)
                for p in range(cfg.procs_per_machine)})
    return out


class TestRpcTracer:
    """Tracing RPCs: per-call records ride on the SpanTracer's client
    spans and ``rpc_summary`` folds them."""

    def test_engine_tracing(self):
        g = powerlaw_cluster(400, 6, mixing=0.2, seed=0)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        run = engine.run(RunRequest(n_queries=4, seed=1, trace=True))
        s = rpc_summary(run.obs.tracer, machine_map(engine.config))
        assert s["calls_remote"] == run.remote_requests > 0
        assert s["request_bytes_remote"] == run.metrics["rpc.request_bytes"]
        assert sum(s["by_method"].values()) == run.remote_requests

    def test_tracing_disabled_by_default(self):
        g = powerlaw_cluster(200, 5, seed=1)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        run = engine.run(RunRequest(n_queries=2))
        assert run.obs.tracer is None

    def test_machine_matrix_off_diagonal(self):
        g = powerlaw_cluster(400, 6, mixing=0.3, seed=2)
        engine = GraphEngine(g, EngineConfig(n_machines=3, seed=0))
        run = engine.run(RunRequest(n_queries=6, seed=3, trace=True))
        m = np.array(rpc_summary(run.obs.tracer,
                                 machine_map(engine.config))["machine_matrix"])
        assert m.shape == (3, 3)
        assert np.trace(m) == 0  # local calls leave no client span
        assert m.sum() == run.remote_requests

    def test_summary_fields(self):
        g = powerlaw_cluster(300, 5, seed=3)
        engine = GraphEngine(g, EngineConfig(n_machines=2, seed=0))
        run = engine.run(RunRequest(n_queries=3, seed=4, trace=True))
        s = rpc_summary(run.obs.tracer, machine_map(engine.config))
        assert set(s) == {"calls_remote", "request_bytes_remote", "by_method",
                          "machine_matrix", "payload_percentiles"}
        assert "get_neighbor_batch" in s["by_method"] or \
            "get_vertex_props" in s["by_method"]
        assert set(s["payload_percentiles"]) == {50, 90, 99}
        p = s["payload_percentiles"]
        assert 0 < p[50] <= p[90] <= p[99]

    def test_empty_tracer(self):
        s = rpc_summary(SpanTracer(), {"a": 0, "b": 1})
        assert s["calls_remote"] == s["request_bytes_remote"] == 0
        assert s["by_method"] == {}
        assert s["payload_percentiles"] == {50: 0.0, 90: 0.0, 99: 0.0}
        assert s["machine_matrix"] == [[0, 0], [0, 0]]

    def test_manual_record(self):
        t = SpanTracer()
        t.record("rpc:m", "a", 0.0, 1.0, kind="client",
                 attrs={"owner": "b", "method": "m",
                        "request_nbytes": 100, "request_tensors": 2})
        t.record("serve:m", "b", 0.2, 0.8, kind="server", link=1)
        s = rpc_summary(t, {"a": 0, "b": 1})
        assert s["calls_remote"] == 1
        assert s["request_bytes_remote"] == 100
        assert s["by_method"] == {"m": 1}
        assert s["machine_matrix"] == [[0, 1], [0, 0]]


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        g = powerlaw_cluster(300, 6, mixing=0.2, seed=4)
        sharded = build_shards(
            g, MetisLitePartitioner(seed=0).partition(g, 3)
        )
        path = tmp_path / "sharded.npz"
        save_sharded(path, sharded)
        loaded = load_sharded(path)
        assert loaded.n_shards == 3
        np.testing.assert_array_equal(loaded.result.assignment,
                                      sharded.result.assignment)
        for a, b in zip(loaded.shards, sharded.shards):
            np.testing.assert_array_equal(a.core_global, b.core_global)
            np.testing.assert_array_equal(a.rows.ids, b.rows.ids)
            np.testing.assert_allclose(a.rows.weights, b.rows.weights)

    def test_halo_hops_preserved(self, tmp_path):
        g = powerlaw_cluster(200, 5, seed=5)
        sharded = build_shards(
            g, MetisLitePartitioner(seed=0).partition(g, 2), halo_hops=2
        )
        path = tmp_path / "sharded2.npz"
        save_sharded(path, sharded, halo_hops=2)
        loaded = load_sharded(path)
        assert loaded.shards[0].has_halo_cache

    def test_malformed_file(self, tmp_path):
        from repro.errors import GraphFormatError
        path = tmp_path / "junk.npz"
        np.savez(path, nonsense=np.zeros(3))
        with pytest.raises(GraphFormatError):
            load_sharded(path)

    def test_loaded_graph_queryable(self, tmp_path):
        g = powerlaw_cluster(300, 6, mixing=0.2, seed=6)
        sharded = build_shards(
            g, MetisLitePartitioner(seed=0).partition(g, 2)
        )
        path = tmp_path / "s.npz"
        save_sharded(path, sharded)
        loaded = load_sharded(path)
        engine = GraphEngine(loaded.graph, EngineConfig(n_machines=2),
                             sharded=loaded)
        run = engine.run(RunRequest(n_queries=3))
        assert run.throughput > 0


class TestCli:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        g = powerlaw_cluster(250, 5, mixing=0.2, seed=7)
        path = tmp_path / "g.npz"
        save_npz(path, g)
        return str(path)

    def test_info(self, graph_file, capsys):
        from repro.cli import main
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "250" in out and "d_max" in out

    def test_partition_and_query(self, graph_file, tmp_path, capsys):
        from repro.cli import main
        out_path = str(tmp_path / "shards.npz")
        assert main(["partition", graph_file, "--machines", "2",
                     "--output", out_path]) == 0
        assert main(["query", graph_file, "--shards", out_path,
                     "--queries", "3", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "edge cut" in out
        assert "SSPPR queries" in out
        assert "top-3" in out

    def test_query_batched(self, graph_file, capsys):
        from repro.cli import main
        assert main(["query", graph_file, "--machines", "2", "--queries",
                     "3", "--batch-queries", "--top", "0"]) == 0
        assert "SSPPR queries" in capsys.readouterr().out

    def test_walk(self, graph_file, capsys):
        from repro.cli import main
        assert main(["walk", graph_file, "--machines", "2", "--roots", "4",
                     "--length", "3"]) == 0
        assert "walks/s" in capsys.readouterr().out

    def test_unknown_graph(self):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["info", "not-a-dataset-or-file"])
