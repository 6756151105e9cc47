"""The outside-in tracer: exact restore, conserving ledger."""

import json

import pytest

from perfbench import workloads
from perfbench.spec import WORKLOAD_BY_NAME
from perfbench.trace import ROOT_SPAN, TARGETS, Tracer, _resolve
from perfbench.worker import run_region


def _raw_targets():
    return {(module, path): _resolve(module, path)[2]
            for sites in TARGETS.values() for module, path in sites}


def test_install_wraps_and_restore_puts_every_original_back():
    before = _raw_targets()
    tracer = Tracer()
    with tracer:
        during = _raw_targets()
        assert all(during[k] is not before[k] for k in before)
        from repro.storage.shard import GraphShard
        assert getattr(GraphShard.get_neighbor_batch, "__rpc_handler__", False)
    assert all(_raw_targets()[k] is before[k] for k in before)
    tracer.restore()  # idempotent


def test_restore_runs_when_the_region_raises():
    before = _raw_targets()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert all(_raw_targets()[k] is before[k] for k in before)


@pytest.mark.parametrize("name", ["ssppr_products", "serve_mixed",
                                  "stream_updates"])
def test_self_times_sum_to_the_root(name, quick_graph, tmp_path):
    driver = workloads.make(WORKLOAD_BY_NAME[name])
    dep = driver.deploy(quick_graph, {})
    inputs = driver.make_inputs(quick_graph, dep, seed=3)
    driver.warm(dep, inputs, {})
    tracer = Tracer()
    tally = run_region(driver, dep, inputs, seconds=None, n_batches=2,
                       tracer=tracer)
    assert tally.failed == 0 and tally.ops > 0
    ledger = tracer.ledger()
    root = ledger[ROOT_SPAN]
    assert root["calls"] == 1
    total_self = sum(row["self_s"] for row in ledger.values())
    assert total_self == pytest.approx(root["total_s"], rel=0.02)
    assert root["self_s"] <= 0.02 * root["total_s"]  # harness.unattributed_s
    n = tracer.write_jsonl(tmp_path / "trace.jsonl")
    spans = [json.loads(line)
             for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert len(spans) == n == sum(row["calls"] for row in ledger.values())
    assert spans[0]["name"] == ROOT_SPAN and spans[0]["parent"] == -1
    assert {s["batch"] for s in spans[1:]} == {0, 1}
    assert all(spans[s["parent"]]["start"] <= s["start"]
               and s["end"] <= spans[s["parent"]]["end"] for s in spans[1:])
