"""BENCHMARK.json is the manifest, and the manifest fits the contract."""

import json
import re

from perfbench import spec

from conftest import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_committed_file_is_the_manifest():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()


def test_manifest_fits_the_contract():
    doc = spec.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    runs = 4 + 22 * len(doc["workloads"])
    # set-up, input generation and checks cost 9.5 s per run on average
    assert runs * (doc["run_seconds"] + 12) <= 3420
    names = [w["name"] for w in doc["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for metric in doc[group]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = {m["name"]: m for m in doc["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc, indent=2)) <= 64 * 1024
