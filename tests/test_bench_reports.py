"""The benchmark observatory: reports, expectations, baselines, gating.

Covers ``repro.obs.bench`` in isolation (schema validation, the
expectations mini-language, the exact-vs-tolerance comparator, best-of-N
merging, the txt/json linter) and the ``repro.cli bench`` surface (check
exit codes, diff rendering, the legacy ``bench <graph>`` shim) plus the
scale-keyed bench caches.
"""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    BenchReport,
    REPORT_SCHEMA,
    build_trajectory,
    compare_trajectories,
    evaluate_expectations,
    expectation_applies,
    lint_results,
    load_report,
    merge_reports,
    regressions,
    render_diff,
    validate_report,
    write_report,
)


def make_report(rows=None, **kw):
    defaults = dict(
        name="demo", title="Demo bench", scale="tiny",
        rows=rows or [
            {"Dataset": "a", "RPCs": 10, "Time (s)": 1.5, "q/s": 8.0},
            {"Dataset": "b", "RPCs": 20, "Time (s)": 3.0, "q/s": 4.0},
        ],
        key=("Dataset",), deterministic=("RPCs",),
        higher_is_better=("q/s",), lower_is_better=("Time (s)",),
        git_rev="abc1234", env={"python": "3"}, created_unix=1.0,
    )
    defaults.update(kw)
    return BenchReport(**defaults)


class TestInjectableClock:
    def test_created_unix_uses_injected_clock(self):
        from repro.obs.bench import set_wall_clock

        set_wall_clock(lambda: 1234.5)
        try:
            rep = BenchReport(name="c", title="Clock", scale="tiny",
                              rows=[{"K": "a", "V": 1}], key=("K",))
            assert rep.created_unix == 1234.5
            traj = build_trajectory([rep.to_dict()], "tiny")
            assert traj["created_unix"] == 1234.5
        finally:
            set_wall_clock(None)

    def test_restored_clock_is_wall_time(self):
        from repro.obs.bench import set_wall_clock
        from repro.utils.timer import wall_unix

        assert set_wall_clock(None) is wall_unix
        rep = BenchReport(name="c", title="Clock", scale="tiny",
                          rows=[{"K": "a", "V": 1}], key=("K",))
        assert rep.created_unix > 1.6e9  # a real Unix timestamp

    def test_explicit_created_unix_wins(self):
        rep = make_report()  # created_unix=1.0 passed explicitly
        assert rep.created_unix == 1.0


class TestReportSchema:
    def test_roundtrip(self, tmp_path):
        rep = make_report(extra={"fitted": 2.5}, metrics={"rpc.calls": 30},
                          wall_s=0.5, virtual_s=4.5)
        path = write_report(tmp_path / "demo.json", rep)
        d = load_report(path)
        assert d["schema"] == REPORT_SCHEMA
        back = BenchReport.from_dict(d)
        assert back.rows == rep.rows
        assert back.key == ("Dataset",)
        assert back.metrics == {"rpc.calls": 30}
        assert back.wall_s == 0.5 and back.virtual_s == 4.5

    def test_numeric_records_excludes_keys_and_strings(self):
        rep = make_report(rows=[
            {"Dataset": "a", "RPCs": 10, "note": "fast", "ok": True},
        ])
        recs = rep.numeric_records()
        assert recs == {"a": {"RPCs": 10, "ok": True}}

    def test_validate_catches_structure(self):
        good = make_report().to_dict()
        assert validate_report(good) == []
        assert validate_report({"schema": "nope"})
        bad = make_report().to_dict()
        bad["scale"] = "huge"
        assert any("scale" in e for e in validate_report(bad))
        bad = make_report().to_dict()
        bad["rows"] = []
        assert any("non-empty" in e for e in validate_report(bad))
        bad = make_report().to_dict()
        del bad["rows"][1]["Dataset"]
        assert any("key column" in e for e in validate_report(bad))
        bad = make_report().to_dict()
        bad["rows"][1]["Dataset"] = "a"  # duplicate row key
        assert any("duplicate" in e for e in validate_report(bad))
        bad = make_report().to_dict()
        bad["rows"][0]["Time (s)"] = float("nan")
        assert any("non-finite" in e for e in validate_report(bad))
        bad = make_report().to_dict()
        bad["deterministic"] = ["Missing col"]
        assert any("deterministic" in e for e in validate_report(bad))

    def test_from_dict_rejects_invalid(self):
        bad = make_report().to_dict()
        bad["rows"] = []
        with pytest.raises(ValueError, match="invalid bench report"):
            BenchReport.from_dict(bad)


class TestExpectations:
    def run(self, exps, rows=None, extra=None, scale="tiny"):
        rep = make_report(rows=rows, expectations=list(exps),
                          extra=extra or {}, scale=scale)
        return evaluate_expectations(rep.to_dict())

    def test_cmp_with_factor_and_aggregates(self):
        exps = [{"kind": "cmp", "label": "b slower than a",
                 "left": {"col": "Time (s)", "where": {"Dataset": "b"}},
                 "op": "gt",
                 "right": {"col": "Time (s)", "where": {"Dataset": "a"}},
                 "factor": 1.5, "scales": "all"}]
        assert self.run(exps) == []
        exps[0]["factor"] = 3.0  # 3.0 !> 1.5*3.0
        (msg,) = self.run(exps)
        assert "b slower than a" in msg

    def test_cmp_extra_refs(self):
        exps = [{"kind": "cmp", "left": {"extra": "fitted"}, "op": "gt",
                 "right": 2.0, "scales": "all"}]
        assert self.run(exps, extra={"fitted": 2.5}) == []
        assert self.run(exps, extra={"fitted": 1.0})

    def test_per_row_against_column_and_literal(self):
        exps = [{"kind": "per_row", "left_col": "q/s", "op": "gt",
                 "right": 0, "scales": "all"},
                {"kind": "per_row", "left_col": "RPCs", "op": "le",
                 "right_col": "RPCs", "scales": "all"}]
        assert self.run(exps) == []
        bad = [{"kind": "per_row", "label": "impossible",
                "left_col": "q/s", "op": "gt", "right": 100,
                "scales": "all"}]
        (msg,) = self.run(bad)
        assert "impossible" in msg and "!gt" in msg

    def test_monotone_with_order_col(self):
        rows = [{"Dataset": "a", "n": 3, "v": 30.0},
                {"Dataset": "b", "n": 1, "v": 10.0},
                {"Dataset": "c", "n": 2, "v": 20.0}]
        exps = [{"kind": "monotone", "col": "v", "order_col": "n",
                 "direction": "increasing", "scales": "all"}]
        assert self.run(exps, rows=rows) == []
        rows[0]["v"] = 5.0  # now not increasing in n-order
        assert self.run(exps, rows=rows)

    def test_bounds_and_all_true(self):
        rows = [{"Dataset": "a", "ratio": 1.2, "Correct": True},
                {"Dataset": "b", "ratio": 2.9, "Correct": True}]
        exps = [{"kind": "bounds", "col": "ratio", "lo": 1.0, "hi": 3.0,
                 "scales": "all"},
                {"kind": "all_true", "col": "Correct", "scales": "all"}]
        assert self.run(exps, rows=rows) == []
        rows[1]["ratio"] = 3.5
        rows[0]["Correct"] = False
        msgs = self.run(exps, rows=rows)
        assert len(msgs) == 2

    def test_ratio_of_ratios(self):
        rows = [{"Dataset": "a", "hi": 8.0, "lo": 2.0}]
        exps = [{"kind": "ratio",
                 "left": [{"col": "hi"}, {"col": "lo"}],
                 "op": "gt", "right": 3.0, "scales": "all"}]
        assert self.run(exps, rows=rows) == []
        exps[0]["right"] = 5.0
        assert self.run(exps, rows=rows)

    def test_scale_gating(self):
        full_only = {"kind": "per_row", "left_col": "q/s", "op": "gt",
                     "right": 100}  # default scales: ["full"]
        assert not expectation_applies(full_only, "tiny")
        assert expectation_applies(full_only, "full")
        assert expectation_applies({**full_only, "scales": "all"}, "tiny")
        # gated out at tiny -> no failure even though the claim is false
        assert self.run([full_only], scale="tiny") == []

    def test_unevaluable_reports_not_crashes(self):
        exps = [{"kind": "cmp", "left": {"col": "No such"}, "op": "gt",
                 "right": 0, "scales": "all"}]
        (msg,) = self.run(exps)
        assert "unevaluable" in msg


class TestComparator:
    def trajectories(self, mutate=None):
        base_rep = make_report()
        cur_rep = make_report()
        if mutate:
            mutate(cur_rep)
        base = build_trajectory([base_rep.to_dict()], "tiny")
        cur = build_trajectory([cur_rep.to_dict()], "tiny")
        return base, cur

    def test_identical_is_clean(self):
        base, cur = self.trajectories()
        assert compare_trajectories(base, cur) == []

    def test_deterministic_drift_names_bench_and_field(self):
        def mutate(rep):
            rep.rows[0]["RPCs"] = 11
        base, cur = self.trajectories(mutate)
        (d,) = regressions(compare_trajectories(base, cur))
        assert d.bench == "demo" and d.field == "a.RPCs"
        assert d.kind == "deterministic" and d.base == 10 and d.cur == 11
        assert "demo.a.RPCs" in d.describe()

    def test_wall_fields_skipped_without_rtol(self):
        def mutate(rep):
            rep.rows[0]["q/s"] = 1.0  # huge throughput drop
        base, cur = self.trajectories(mutate)
        assert compare_trajectories(base, cur) == []

    def test_wall_rtol_gates_by_direction(self):
        def slower(rep):
            rep.rows[0]["q/s"] = 6.0       # fell 25%
            rep.rows[0]["Time (s)"] = 1.2  # improved — fine
        base, cur = self.trajectories(slower)
        regs = regressions(compare_trajectories(base, cur, wall_rtol=0.1))
        assert [d.field for d in regs] == ["a.q/s"]

        def faster(rep):
            rep.rows[0]["q/s"] = 50.0  # improvement is never a regression
        base, cur = self.trajectories(faster)
        deltas = compare_trajectories(base, cur, wall_rtol=0.1)
        assert deltas and not regressions(deltas)

    def test_structural_drift_always_regresses(self):
        def drop_row(rep):
            del rep.rows[1]
        base, cur = self.trajectories(drop_row)
        regs = regressions(compare_trajectories(base, cur))
        assert any(d.field == "n_rows" for d in regs)
        assert any("disappeared" in d.note for d in regs)

        base, _ = self.trajectories()
        regs = regressions(compare_trajectories(base, {"benches": {}}))
        assert any(d.field == "<bench>" for d in regs)

    def test_new_bench_is_note_only(self):
        base, cur = self.trajectories()
        extra = make_report(name="newbench")
        cur2 = build_trajectory([make_report().to_dict(),
                                 extra.to_dict()], "tiny")
        deltas = compare_trajectories(base, cur2)
        assert len(deltas) == 1 and not deltas[0].regressed

    def test_render_diff_readable(self):
        def mutate(rep):
            rep.rows[0]["RPCs"] = 99
        base, cur = self.trajectories(mutate)
        text = render_diff(base, cur)
        assert "baseline: scale=tiny" in text
        assert "-- demo" in text
        assert "a.RPCs" in text and "10 -> 99" in text
        assert "1 regression(s)" in text
        base, cur = self.trajectories()
        assert "no differences." in render_diff(base, cur)


class TestMergeReports:
    def reps(self, qps):
        out = []
        for v in qps:
            rep = make_report()
            rep.rows[0]["q/s"] = v
            out.append(rep.to_dict())
        return out

    def test_best_of_n_picks_by_direction(self):
        merged = merge_reports(self.reps([8.0, 12.0, 10.0]))
        assert merged["rows"][0]["q/s"] == 12.0  # higher_is_better -> max
        assert merged["reps"] == 3

    def test_lower_is_better_takes_min(self):
        reps = self.reps([8.0, 8.0])
        reps[1]["rows"][0]["Time (s)"] = 0.9
        merged = merge_reports(reps)
        assert merged["rows"][0]["Time (s)"] == 0.9

    def test_deterministic_mismatch_raises(self):
        reps = self.reps([8.0, 8.0])
        reps[1]["rows"][0]["RPCs"] = 11
        with pytest.raises(ValueError, match="deterministic field a.RPCs"):
            merge_reports(reps)


class TestResultsLinter:
    def write_pair(self, tmp_path, rows=None, body_lines=None):
        rep = make_report(rows=rows)
        write_report(tmp_path / "demo.json", rep)
        if body_lines is None:
            body_lines = ["  ".join(str(v) for v in row.values())
                          for row in rep.rows]
        txt = "\n".join(["== Demo bench ==", "Dataset RPCs Time q/s",
                         "-" * 30] + body_lines)
        (tmp_path / "demo.txt").write_text(txt + "\n")
        return rep

    def test_consistent_pair_is_clean(self, tmp_path):
        self.write_pair(tmp_path)
        assert lint_results(tmp_path) == []

    def test_missing_txt_sibling(self, tmp_path):
        write_report(tmp_path / "demo.json", make_report())
        (msg,) = lint_results(tmp_path)
        assert "missing .txt sibling" in msg

    def test_row_count_mismatch(self, tmp_path):
        self.write_pair(tmp_path, body_lines=["a 10 1.5 8.0"])
        (msg,) = lint_results(tmp_path)
        assert "row count mismatch" in msg

    def test_headline_value_drift(self, tmp_path):
        self.write_pair(tmp_path,
                        body_lines=["a 999 1.5 8.0", "b 20 3.0 4.0"])
        (msg,) = lint_results(tmp_path)
        assert "RPCs" in msg and "10" in msg


class TestBenchCli:
    @pytest.fixture()
    def results_dir(self, tmp_path):
        d = tmp_path / "results"
        d.mkdir()
        rep = make_report()
        write_report(d / "demo.json", rep)
        body = ["  ".join(str(v) for v in row.values()) for row in rep.rows]
        (d / "demo.txt").write_text("\n".join(
            ["== Demo bench ==", "Dataset RPCs Time q/s", "-" * 30] + body
        ) + "\n")
        return d

    def write_baseline(self, tmp_path, mutate=None):
        rep = make_report()
        if mutate:
            mutate(rep)
        traj = build_trajectory([rep.to_dict()], "tiny")
        path = tmp_path / "BENCH_tiny.json"
        path.write_text(json.dumps(traj))
        return path

    def test_check_ok(self, tmp_path, results_dir, capsys):
        baseline = self.write_baseline(tmp_path)
        rc = main(["bench", "check", "--scale", "tiny",
                   "--baseline", str(baseline),
                   "--results-dir", str(results_dir)])
        assert rc == 0
        assert "bench check OK" in capsys.readouterr().out

    def test_check_fails_naming_metric(self, tmp_path, results_dir, capsys):
        def mutate(rep):
            rep.rows[0]["RPCs"] = 11
        baseline = self.write_baseline(tmp_path, mutate)
        rc = main(["bench", "check", "--scale", "tiny",
                   "--baseline", str(baseline),
                   "--results-dir", str(results_dir)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "REGRESSION" in out and "demo.a.RPCs" in out
        assert "bench check FAILED" in out

    def test_check_fails_on_stored_expectation(self, tmp_path, capsys):
        d = tmp_path / "results"
        d.mkdir()
        rep = make_report(expectations=[
            {"kind": "per_row", "label": "impossible", "left_col": "q/s",
             "op": "gt", "right": 100, "scales": "all"},
        ])
        write_report(d / "demo.json", rep)
        baseline = self.write_baseline(tmp_path)
        rc = main(["bench", "check", "--scale", "tiny",
                   "--baseline", str(baseline), "--results-dir", str(d),
                   "--no-lint"])
        out = capsys.readouterr().out
        assert rc == 1 and "EXPECTATION" in out and "impossible" in out

    def test_diff_command(self, tmp_path, results_dir, capsys):
        def mutate(rep):
            rep.rows[0]["RPCs"] = 99
        baseline = self.write_baseline(tmp_path, mutate)
        rc = main(["bench", "diff", str(baseline),
                   "--results-dir", str(results_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a.RPCs" in out and "99 -> 10" in out

    def test_check_lints_txt_json_siblings(self, tmp_path, results_dir,
                                           capsys):
        baseline = self.write_baseline(tmp_path)
        argv = ["bench", "check", "--scale", "tiny",
                "--baseline", str(baseline),
                "--results-dir", str(results_dir)]
        (results_dir / "demo.txt").write_text("== Demo ==\nh\n---\nonly\n")
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "LINT" in out and "1 lint problem(s)" in out
        assert main(argv + ["--no-lint"]) == 0

    def test_report_command(self, results_dir, capsys):
        rc = main(["bench", "report", "--scale", "tiny",
                   "--results-dir", str(results_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "demo" in out and "bench" in out


class TestScaleKeyedCaches:
    def test_get_graph_keyed_on_scale(self, monkeypatch):
        from benchmarks import common
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        g_tiny = common.get_graph("products")
        assert g_tiny is common.get_graph("products")  # cached
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        g_small = common.get_graph("products")
        assert g_small is not g_tiny
        assert g_small.n_nodes > g_tiny.n_nodes
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert common.get_graph("products") is g_tiny

    def test_get_sharded_keyed_on_scale(self, monkeypatch):
        from benchmarks import common
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        s_tiny = common.get_sharded("products", 2)
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        s_small = common.get_sharded("products", 2)
        assert s_small is not s_tiny
        assert s_small.graph.n_nodes > s_tiny.graph.n_nodes
