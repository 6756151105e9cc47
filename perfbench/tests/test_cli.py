"""The command line honours the driver's contract."""

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import compare
from perfbench.spec import END_TO_END, PER_LAYER

from conftest import ROOT


def _run(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "perfbench", *argv],
                          cwd=cwd, capture_output=True, text=True)


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_last_line_is_the_contract_json(trace, declared):
    proc = _run("run", "--quick", "--workload", "ssppr_products",
                "--seed", "2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert list(doc["metrics"]) == [m.name for m in declared]
    for metric in declared:
        assert doc["metrics"][metric.name]["unit"] == metric.unit
    if trace == 0:
        assert all(m["value"] > 0 for m in doc["metrics"].values())
    else:
        assert (ROOT / "perfbench" / "results"
                / "trace_ssppr_products.jsonl").exists()


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "results",
                                                  "__pycache__"))
    proc = _run("run", "--quick", "--workload", "ssppr_products",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _metric(value, reps):
    return {"value": value, "reps": reps}


def test_compare_verdicts():
    ops = next(m for m in END_TO_END if m.name == "ops_per_s")
    inside, outside = 100 * (1 - ops.bound / 2), 100 * (1 - ops.bound * 1.5)

    def reps(centre, width=0.01):
        return _metric(centre, [centre * (1 - width), centre,
                                centre * (1 + width)])

    steady = reps(100.0)
    assert compare.verdict(ops, steady, reps(inside))[1] == "ok"
    assert compare.verdict(ops, steady, reps(outside))[1] == "regressed"
    noisy = reps(100.0, width=ops.bound)
    assert compare.verdict(ops, noisy, reps(inside))[1] == "unresolved"
    assert compare.verdict(ops, noisy, reps(200.0))[1] == "ok"
