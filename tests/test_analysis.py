"""The determinism & concurrency sanitizer suite (``repro.analysis``).

Pillars, tested in order: the custom AST lint engine and its eight
rules (against per-rule positive/negative fixtures under
``tests/fixtures/analysis/`` and against the shipped tree, which must be
clean and carry no stale suppression — the tier-1 gate); REP010's
cross-file RPC contract; the Eraser-style lockset race detector wired
through ``ShardedMap`` / ``ThreadRuntime`` /
``RunRequest(sanitize=True)``; and the scheduler deadlock detector that
names the blocked coroutine and the future it awaits when the event
queue drains early.
"""

import contextlib
import io
import json
import re
import threading

import numpy as np
import pytest

from repro.analysis import (
    AnalysisConfig,
    RaceDetector,
    diagnose,
    installed,
    load_config,
    run_lint,
    uninstall,
)
from repro.analysis import lint
from repro.analysis.lint import FileContext, Violation, collect_pragmas, \
    pragma_comments
from repro.analysis.rules import ALL_RULE_IDS, ALL_RULES, get_rules
from repro.cli import main
from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.errors import SimulationError
from repro.graph import powerlaw_cluster
from repro.ppr.hashmap import ShardedMap
from repro.simt.events import Wait
from repro.simt.futures import SimFuture
from repro.simt.scheduler import Scheduler

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "fixtures" / "analysis"

#: rule -> (positive fixture, negative fixture, expected positive hits)
FIXTURE_MAP = {
    "REP001": ("rep001_bad.py", "rep001_ok.py", 3),
    "REP002": ("rep002_bad.py", "rep002_ok.py", 3),
    "REP003": ("simt/rep003_bad.py", "simt/rep003_ok.py", 3),
    "REP005": ("simt/rep005_bad.py", "simt/rep005_ok.py", 3),
    "REP006": ("rpc/rep006_bad.py", "rpc/rep006_ok.py", 2),
    "REP007": ("rep007_bad.py", "rep007_ok.py", 3),
    "REP010": ("rpc/rep010_bad.py", "rpc/rep010_ok.py", 3),
    "REP011": ("storage/shard.py", "storage/neighbor_batch.py", 3),
}


def lint_fixture(rel, rule_id):
    return run_lint([FIXTURES / rel], rules=get_rules([rule_id]),
                    root=REPO_ROOT)


# ---------------------------------------------------------------------------
# the lint framework
# ---------------------------------------------------------------------------

class TestFramework:
    def test_all_rules_registered(self):
        assert ALL_RULE_IDS == ("REP001", "REP002", "REP003", "REP005",
                                "REP006", "REP007", "REP010", "REP011")
        assert all(r.title for r in ALL_RULES)

    def test_rules_hold_no_per_run_state(self, tmp_path):
        # ALL_RULES are shared singletons: a run must leave them untouched
        (tmp_path / "mod.py").write_text("x = 1\n")
        run_lint([tmp_path], root=tmp_path)
        assert all(vars(rule) == {} for rule in ALL_RULES)

    def test_get_rules_unknown_id(self):
        with pytest.raises(KeyError, match="REP999"):
            get_rules(["REP999"])

    def test_violation_format_names_rule_and_location(self):
        v = Violation(path="src/x.py", line=3, col=4, rule="REP001",
                      message="boom")
        assert v.format() == "src/x.py:3:4: REP001 boom"
        assert v.as_dict()["line"] == 3

    def test_pragma_covers_own_and_next_line(self):
        src = ("import time\n"
               "# repro: allow=REP001 legit timestamp\n"
               "t = time.time()\n"
               "u = time.time()\n")
        pragmas = collect_pragmas(src)
        assert pragmas[2] == {"REP001"} and pragmas[3] == {"REP001"}
        assert 4 not in pragmas

    def test_pragma_suppresses_violation(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("import time\n"
                       "# repro: allow=REP001\n"
                       "t = time.time()\n"
                       "u = time.time()\n")
        out = run_lint([bad], rules=get_rules(["REP001"]))
        assert len(out) == 1 and out[0].line == 4

    def test_pragma_comma_list(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("import time\n"
                       "t = time.time()  # repro: allow=REP001,REP002\n")
        assert run_lint([bad], rules=get_rules(["REP001"])) == []

    def test_config_allowlist_glob(self):
        cfg = AnalysisConfig(allow=("REP001:src/repro/utils/*.py",
                                    "*:tools/scratch.py"))
        assert cfg.allows("REP001", "src/repro/utils/timer.py")
        assert not cfg.allows("REP002", "src/repro/utils/timer.py")
        assert cfg.allows("REP006", "tools/scratch.py")
        assert not cfg.allows("REP001", "src/repro/cli.py")

    def test_load_config_roundtrip(self, tmp_path):
        py = tmp_path / "pyproject.toml"
        py.write_text("[tool.repro.analysis]\n"
                      'allow = ["REP001:src/a.py"]\n')
        assert load_config(py).allow == ("REP001:src/a.py",)
        assert load_config(tmp_path / "missing.toml").allow == ()

    def test_load_config_rejects_non_string_entries(self, tmp_path):
        py = tmp_path / "pyproject.toml"
        py.write_text("[tool.repro.analysis]\nallow = [1]\n")
        with pytest.raises(ValueError, match="allow"):
            load_config(py)

    @pytest.mark.parametrize("entry", ["REP001", "REP001:"])
    def test_load_config_rejects_entry_without_glob(self, tmp_path, entry):
        # a missing glob would exempt every file from the rule
        py = tmp_path / "pyproject.toml"
        py.write_text(f'[tool.repro.analysis]\nallow = ["{entry}"]\n')
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            load_config(py)

    @pytest.mark.parametrize("entry", ["REP04:src/a.py", "REP008:src/a.py"])
    def test_load_config_rejects_unknown_or_retired_rule(self, tmp_path,
                                                         entry):
        # an entry naming no registered rule would exempt nothing
        py = tmp_path / "pyproject.toml"
        py.write_text(f'[tool.repro.analysis]\nallow = ["{entry}"]\n')
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            load_config(py)
        py.write_text('[tool.repro.analysis]\nallow = ["*:src/a.py"]\n')
        assert load_config(py).allow == ("*:src/a.py",)

    def test_config_allowlist_applied_by_run_lint(self, tmp_path):
        bad = tmp_path / "timer_shim.py"
        bad.write_text("import time\nt = time.time()\n")
        cfg = AnalysisConfig(allow=(f"REP001:{bad.as_posix()}",))
        assert run_lint([bad], rules=get_rules(["REP001"]),
                        config=cfg) == []

    def test_import_alias_resolution(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("from time import perf_counter as pc\n"
                       "import time as clock\n"
                       "a = pc()\n"
                       "b = clock.monotonic()\n")
        out = run_lint([bad], rules=get_rules(["REP001"]))
        assert [v.line for v in out] == [3, 4]

    def test_local_variable_root_not_resolved(self, tmp_path):
        ok = tmp_path / "mod.py"
        ok.write_text("def f(time):\n    return time.time()\n")
        assert run_lint([ok], rules=get_rules(["REP001"])) == []

    def test_scoped_rule_skips_unscoped_paths(self, tmp_path):
        # identical hazard outside simt/rpc/engine/partition: not flagged
        mod = tmp_path / "mod.py"
        mod.write_text((FIXTURES / "simt/rep003_bad.py").read_text())
        assert run_lint([mod], rules=get_rules(["REP003"])) == []

    def test_relpath_is_repo_relative(self):
        ctx = FileContext.parse(FIXTURES / "rep001_bad.py", root=REPO_ROOT)
        assert ctx.relpath == "tests/fixtures/analysis/rep001_bad.py"
        assert "tests" in ctx.parts


# ---------------------------------------------------------------------------
# per-rule fixtures
# ---------------------------------------------------------------------------

class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_MAP))
    def test_positive_fixture_flagged(self, rule_id):
        bad, _ok, n_expected = FIXTURE_MAP[rule_id]
        out = lint_fixture(bad, rule_id)
        assert len(out) == n_expected, [v.format() for v in out]
        assert all(v.rule == rule_id for v in out)
        assert all(v.path.endswith(bad) and v.line > 0 for v in out)

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_MAP))
    def test_negative_fixture_clean(self, rule_id):
        _bad, ok, _n = FIXTURE_MAP[rule_id]
        assert lint_fixture(ok, rule_id) == []

    def test_rep006_exempts_reraising_handler(self):
        out = lint_fixture("rpc/rep006_ok.py", "REP006")
        assert out == []

    def test_rep006_flags_a_broad_except_whatever_its_body_calls(
            self, tmp_path):
        # per-file: no call graph decides the body is fault-free; a
        # handler that must swallow says why in a pragma
        rpc = tmp_path / "rpc"
        rpc.mkdir()
        body = ("import numpy as np\n"
                "def summarize(rows):\n"
                "    try:\n"
                "        return float(np.mean(rows))\n"
                "    except Exception:{}\n"
                "        return 0.0\n")
        (rpc / "mod.py").write_text(body.format(""))
        out = run_lint([tmp_path], rules=get_rules(["REP006"]),
                       root=tmp_path)
        assert [v.line for v in out] == [5]
        (rpc / "mod.py").write_text(
            body.format("  # repro: allow=REP006 mean of a list"))
        assert run_lint([tmp_path], rules=get_rules(["REP006"]),
                        root=tmp_path) == []

    def test_rep007_names_the_bad_metric(self):
        out = lint_fixture("rep007_bad.py", "REP007")
        messages = " ".join(v.message for v in out)
        assert "'cache.hits'" in messages
        assert "'serv.queue_depth'" in messages
        assert "metrics_catalog" in messages

    def test_rep007_judges_fstring_literal_heads(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "def f(m, tenant):\n"
            "    m.inc(f'serve.tenant.{tenant}.admitted')\n"  # catalogued
            "    m.inc(f'svc.{tenant}.admitted')\n"           # drifted
            "    m.inc(f'{tenant}.admitted')\n"               # unjudgeable
        )
        out = run_lint([mod], rules=get_rules(["REP007"]))
        assert [v.line for v in out] == [3]

    def test_rep011_scope_is_path_suffix_not_directory(self, tmp_path):
        # the identical hazard outside the two hot-path files is ignored,
        # even inside a directory named "storage"
        storage = tmp_path / "storage"
        storage.mkdir()
        body = ("import numpy as np\n"
                "def gather(arena, starts, counts):\n"
                "    return arena[np.repeat(starts, counts)].copy()\n")
        (storage / "helpers.py").write_text(body)
        assert run_lint([storage / "helpers.py"],
                        rules=get_rules(["REP011"])) == []
        (storage / "shard.py").write_text(body)
        out = run_lint([storage / "shard.py"], rules=get_rules(["REP011"]))
        assert len(out) == 2

    def test_rep011_flags_a_whole_arena_splice(self, tmp_path):
        # staging appends replaced rows; a splice_rows call re-copies
        # every arena column, so it needs a pragma in the scoped files
        storage = tmp_path / "storage"
        storage.mkdir()
        body = ("from repro.graph.csr import splice_rows\n"
                "def stage(indptr, columns, rows, starts, ends, block):\n"
                "    return splice_rows(indptr, columns, rows, starts,\n"
                "                       ends, block)\n")
        (storage / "shard.py").write_text(body)
        out = run_lint([storage / "shard.py"], rules=get_rules(["REP011"]))
        assert [v.line for v in out] == [3]
        assert "'splice_rows'" in out[0].message
        assert "replace_rows" in out[0].message
        (storage / "vertex_prop.py").write_text(body.replace(
            "    return splice_rows(",
            "    # repro: allow=REP011 a rebuild, not a stage\n"
            "    return splice_rows("))
        assert run_lint([storage / "vertex_prop.py"],
                        rules=get_rules(["REP011"])) == []
        (storage / "dynamic.py").write_text(body)  # out of scope
        assert run_lint([storage / "dynamic.py"],
                        rules=get_rules(["REP011"])) == []

    def test_rep011_message_names_the_pragma(self):
        out = lint_fixture("storage/shard.py", "REP011")
        messages = " ".join(v.message for v in out)
        assert "repro: allow=REP011" in messages
        assert "'np.repeat'" in messages
        assert "'np.concatenate'" in messages
        assert "'.copy()'" in messages

    def test_rep007_catalog_matches_documented_namespaces(self):
        from repro.obs.metrics_catalog import METRIC_NAMESPACES, \
            is_catalogued

        doc = (REPO_ROOT / "docs" / "observability.md").read_text()
        for namespace in METRIC_NAMESPACES:
            assert f"{namespace}." in doc, (
                f"namespace {namespace!r} is catalogued but never "
                f"mentioned in docs/observability.md")
        assert is_catalogued("rpc.calls")
        assert is_catalogued("serve.tenant.")
        assert not is_catalogued("cache.hits")


# ---------------------------------------------------------------------------
# the tree gate + CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tree_analysis():
    """One ``cli analyze`` of the shipped tree: (exit code, stdout), plus
    the files it parsed and their raw findings before suppression."""
    seen = {}

    def recording(files, rules=None):
        seen["files"], seen["raw"] = files, lint_files(files, rules)
        return seen["raw"]

    lint_files = lint.lint_files
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, \
            contextlib.redirect_stdout(out):
        mp.setattr(lint, "lint_files", recording)
        rc = main(["analyze"])
    return rc, out.getvalue(), seen["files"], seen["raw"]


class TestTreeGateAndCli:
    def test_shipped_tree_is_clean(self, tree_analysis):
        rc, out, _files, _raw = tree_analysis
        # a violation prints one line before the verdict
        assert out.splitlines() == [
            f"analyze OK: {len(ALL_RULES)} rule(s), 0 violations"], out

    def test_cli_analyze_exits_zero_on_tree(self, tree_analysis):
        rc, out, _files, _raw = tree_analysis
        assert rc == 0
        assert "analyze OK" in out

    def test_every_suppression_suppresses_something(self, tree_analysis):
        # each real pragma comment (not a docstring example) and each
        # allowlist entry must cover a raw finding of a rule it names;
        # one that covers nothing is stale, or names a retired rule
        _rc, _out, files, raw = tree_analysis
        hits = {(v.path, v.line, rule) for v in raw for rule in (v.rule, "*")}
        stale = [
            f"{ctx.relpath}:{line} allow={','.join(sorted(rules))}"
            for ctx in files
            for line, rules in pragma_comments(
                (REPO_ROOT / ctx.relpath).read_text())
            if not hits & {(ctx.relpath, at, rule)
                           for at in (line, line + 1) for rule in rules}
        ]
        config = load_config(REPO_ROOT / "pyproject.toml")
        stale += [entry for entry in config.allow
                  if not any(AnalysisConfig(allow=(entry,)).allows(
                      v.rule, v.path) for v in raw)]
        assert stale == []

    def test_cli_analyze_nonzero_names_rule_and_location(self, capsys):
        bad = FIXTURES / "rep001_bad.py"
        assert main(["analyze", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "rep001_bad.py:5" in out  # file:line of the first hit

    def test_cli_rule_filter(self, capsys):
        bad = FIXTURES / "rep001_bad.py"
        # rep001_bad only violates REP001; filtering to REP002 is clean
        assert main(["analyze", str(bad), "--rule", "REP002"]) == 0
        assert main(["analyze", str(bad), "--rule", "REP001",
                     "--rule", "REP002"]) == 1
        capsys.readouterr()

    def test_cli_json_output(self, capsys):
        bad = FIXTURES / "rpc" / "rep006_bad.py"
        assert main(["analyze", str(bad), "--rule", "REP006",
                     "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        assert {v["rule"] for v in payload} == {"REP006"}

    def test_cli_list_rules(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_cli_lints_whole_fixture_dir(self, capsys):
        # every registered rule fires somewhere under the fixture tree
        assert main(["analyze", str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out, f"{rule_id} missing from:\n{out}"


# ---------------------------------------------------------------------------
# REP010's cross-file RPC contract and REP006's per-file verdicts
# ---------------------------------------------------------------------------

class TestCallGraph:
    """REP010 judges every linted file at once: a dispatch site binds a
    handler declared in another file without any call graph."""

    def test_dispatch_site_in_another_file_binds_the_handler(self, tmp_path):
        rpc = tmp_path / "rpc"
        rpc.mkdir()
        (rpc / "server.py").write_text(
            "from repro.rpc.handlers import rpc_handler\n"
            "class S:\n"
            "    @rpc_handler\n"
            "    def ok(self):\n"
            "        return 1\n")
        (rpc / "client.py").write_text(
            "def go(ctx, ref):\n"
            "    ctx.rpc_async(ref, 'ok')\n"
            "    ctx.rpc_async(ref, 'gone')\n")
        # S.ok is no orphan (its only dispatch site lives in client.py);
        # 'gone' has no handler anywhere
        out = run_lint([tmp_path], rules=get_rules(["REP010"]),
                       root=tmp_path)
        assert [(v.path, v.line) for v in out] == [("rpc/client.py", 3)]


class TestInterproceduralRules:
    """REP010 resolves a forwarded method name one bare-name call out, in
    the same module; REP006 flags a broad except whatever its body calls."""

    def test_rep010_forwarded_method_param_resolves_one_hop(self, tmp_path):
        rpc = tmp_path / "rpc"
        rpc.mkdir()
        (rpc / "mod.py").write_text(
            "from repro.rpc.handlers import rpc_handler\n"
            "class S:\n"
            "    @rpc_handler\n"
            "    def present(self):\n"
            "        return 1\n"
            "def _send(ctx, ref, method):\n"
            "    ctx.rpc_async(ref, method)\n"
            "def go(ctx, ref):\n"
            "    _send(ctx, ref, 'present')\n"
            "    _send(ctx, ref, 'absent')\n")
        out = run_lint([tmp_path], rules=get_rules(["REP010"]),
                       root=tmp_path)
        assert len(out) == 1
        # reported at the *outer* call, where the literal lives
        assert out[0].line == 10 and "'absent'" in out[0].message

    def test_rep010_quiet_without_declared_handlers(self, tmp_path):
        # ad-hoc test doubles: dispatch literals but no @rpc_handler
        # anywhere in the analyzed project -> contract checking stays off
        (tmp_path / "mod.py").write_text(
            "def go(ctx, ref):\n"
            "    ctx.rpc_async(ref, 'anything_at_all')\n")
        assert run_lint([tmp_path], rules=get_rules(["REP010"]),
                        root=tmp_path) == []

    def test_rep006_fault_capable_bodies_still_flagged(self, tmp_path):
        rpc = tmp_path / "rpc"
        rpc.mkdir()
        (rpc / "mod.py").write_text(
            "def drain(fut):\n"
            "    try:\n"
            "        yield fut\n"               # simt faults throw here
            "    except Exception:\n"
            "        pass\n"
            "def dynamic(call):\n"
            "    try:\n"
            "        call()\n"                  # unknown callable: suspect
            "    except Exception:\n"
            "        pass\n")
        out = run_lint([tmp_path], rules=get_rules(["REP006"]),
                       root=tmp_path)
        assert [v.line for v in out] == [4, 9]

    def test_deleting_a_handler_is_caught(self, tmp_path):
        """The ISSUE acceptance scenario: drop a handler, REP010 fires."""
        rpc = tmp_path / "rpc"
        rpc.mkdir()
        before = (
            "from repro.rpc.handlers import rpc_handler\n"
            "class S:\n"
            "    @rpc_handler\n"
            "    def alpha(self):\n"
            "        return 1\n"
            "    @rpc_handler\n"
            "    def beta(self):\n"
            "        return 2\n"
            "def go(ctx, ref):\n"
            "    ctx.rpc_async(ref, 'alpha')\n"
            "    ctx.rpc_async(ref, 'beta')\n")
        mod = rpc / "mod.py"
        mod.write_text(before)
        assert run_lint([tmp_path], rules=get_rules(["REP010"]),
                        root=tmp_path) == []
        mod.write_text(before.replace(
            "    @rpc_handler\n    def beta(self):\n        return 2\n",
            ""))
        out = run_lint([tmp_path], rules=get_rules(["REP010"]),
                       root=tmp_path)
        assert len(out) == 1 and "'beta'" in out[0].message


# ---------------------------------------------------------------------------
# the lockset race detector
# ---------------------------------------------------------------------------

def hammer(fn, n_threads=2):
    """Run ``fn(i)`` on ``n_threads`` named threads; join all."""
    threads = [threading.Thread(target=fn, args=(i,), name=f"hammer-{i}")
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestRaceDetector:
    def test_unsynchronized_sharded_map_writes_flagged(self):
        detector = RaceDetector()
        table = ShardedMap(64)
        with installed(detector):
            hammer(lambda i: table.get_or_insert(
                np.arange(i * 8, i * 8 + 8, dtype=np.int64)))
        violations = detector.report()
        assert len(violations) == 1
        v = violations[0]
        assert v.location.startswith("ShardedMap@")
        assert v.first.thread_id != v.second.thread_id
        assert v.first.write and v.second.write
        assert v.first.lockset == () and v.second.lockset == ()
        # acquiring stacks name the instrumented call site
        assert any("get_or_insert" in frame for frame in v.second.stack)
        assert "race on ShardedMap@" in v.describe()

    def test_lock_disciplined_access_is_clean(self):
        detector = RaceDetector()
        table = ShardedMap(64)
        lock = detector.tracked_lock("table_lock")

        def writer(i):
            with lock:
                table.get_or_insert(
                    np.arange(i * 8, i * 8 + 8, dtype=np.int64))

        with installed(detector):
            hammer(writer)
        assert detector.report() == ()
        assert detector.accesses == 2

    def test_single_thread_never_flagged(self):
        detector = RaceDetector()
        table = ShardedMap(64)
        with installed(detector):
            for i in range(4):
                table.get_or_insert(np.array([i], dtype=np.int64))
                table.lookup(np.array([i], dtype=np.int64))
        assert detector.report() == ()
        assert detector.accesses == 8

    def test_concurrent_reads_without_writes_are_clean(self):
        detector = RaceDetector()
        table = ShardedMap(64)
        table.get_or_insert(np.arange(16, dtype=np.int64))
        with installed(detector):
            hammer(lambda i: table.lookup(np.arange(8, dtype=np.int64)))
        assert detector.report() == ()

    def test_install_uninstall_restores_hook(self):
        detector = RaceDetector()
        assert ShardedMap._sanitizer is None
        with installed(detector):
            assert ShardedMap._sanitizer is detector
        assert ShardedMap._sanitizer is None
        # uninstall(other) leaves an unrelated hook in place
        other = RaceDetector()
        with installed(detector):
            uninstall(other)
            assert ShardedMap._sanitizer is detector
            uninstall(detector)
            assert ShardedMap._sanitizer is None

    def test_summary_structure(self):
        detector = RaceDetector()
        table = ShardedMap(64)
        with installed(detector):
            hammer(lambda i: table.get_or_insert(
                np.array([i], dtype=np.int64)))
        s = detector.summary()
        assert s["accesses"] == 2 and s["locations"] == 1
        assert len(s["violations"]) == 1
        assert s["violations"][0]["first"]["write"] is True


class TestSanitizedRuns:
    @pytest.fixture(scope="class")
    def engine(self):
        graph = powerlaw_cluster(300, 5, mixing=0.2, seed=3)
        return GraphEngine(graph, EngineConfig(n_machines=2))

    def test_clean_sim_run_reports_zero_violations(self, engine):
        run = engine.run(RunRequest(n_queries=4, sanitize=True))
        assert run.race_violations == []
        assert run.metrics["sanitizer.violations"] == 0
        assert run.metrics["sanitizer.accesses"] > 0
        assert ShardedMap._sanitizer is None  # uninstalled after the run

    def test_sanitize_off_keeps_metrics_quiet(self, engine):
        run = engine.run(RunRequest(n_queries=4))
        assert run.race_violations == []
        assert "sanitizer.accesses" not in run.metrics

    def test_sanitize_does_not_change_results(self, engine):
        plain = engine.run(RunRequest(n_queries=4, keep_states=True))
        sane = engine.run(RunRequest(n_queries=4, keep_states=True,
                                     sanitize=True))
        n = engine.graph.n_nodes
        for gid in plain.states:
            np.testing.assert_array_equal(
                plain.states[gid].dense_result(engine.sharded, n),
                sane.states[gid].dense_result(engine.sharded, n))

    def test_clean_threaded_run_reports_zero_violations(self, engine):
        from repro.engine.cluster import deploy
        from repro.engine.query import assign_queries, multi_query_driver, \
            sample_sources
        from repro.ppr import OptLevel, PPRParams
        from repro.storage import DistGraphStorage

        cfg = engine.config
        sharded = engine.sharded
        sources = sharded.nodes_of(sample_sources(sharded, 4, seed=0))
        cluster = deploy(sharded, cfg, "threads", sanitize=True)
        seen_installed = []

        def watched(body):
            # the hook is installed for exactly the duration of run()
            seen_installed.append(ShardedMap._sanitizer is cluster.sanitizer)
            return (yield from body)

        for (machine, p), chunk in assign_queries(
                sharded, sources, cfg.procs_per_machine).items():
            proc = cluster.worker(machine, p)
            g = DistGraphStorage(cluster.rrefs, machine, proc.name,
                                 compress=True)
            cluster.spawn_compute(machine, p, watched(multi_query_driver(
                g, proc, chunk, sharded, PPRParams(epsilon=1e-5),
                opt=OptLevel.OVERLAP, collect={},
            )))
        assert ShardedMap._sanitizer is None
        cluster.run()
        assert seen_installed and all(seen_installed)
        assert ShardedMap._sanitizer is None
        assert cluster.sanitizer.report() == ()
        assert cluster.sanitizer.accesses > 0
        assert cluster.obs.sanitizer is cluster.sanitizer


# ---------------------------------------------------------------------------
# the deadlock detector
# ---------------------------------------------------------------------------

class TestDeadlockDetector:
    def test_unresolved_future_names_coroutine_and_tag(self):
        sched = Scheduler()
        orphan = SimFuture(tag="rpc:server0.fetch")

        def body():
            yield Wait(orphan)

        sched.spawn("worker0", body())
        with pytest.raises(SimulationError) as err:
            sched.run()
        msg = str(err.value)
        assert "worker0" in msg
        assert "rpc:server0.fetch" in msg
        assert "blocked with an empty event queue" in msg

    def test_circular_wait_reported_as_cycle(self):
        sched = Scheduler()

        def wait_for(name):
            yield Wait(sched.processes[name].completion)

        sched.spawn("a", wait_for("b"))
        sched.spawn("b", wait_for("a"))
        with pytest.raises(SimulationError) as err:
            sched.run()
        assert "circular wait: a -> b -> a" in str(err.value)

    def test_diagnose_none_when_everyone_finished(self):
        sched = Scheduler()

        def body():
            yield Wait(SimFuture.resolved(1, ready_time=sched.now))

        sched.spawn("fine", body())
        sched.run()
        assert diagnose(sched) is None

    def test_report_structure(self):
        sched = Scheduler()
        orphan = SimFuture(tag="never")

        def body():
            yield Wait(orphan)

        sched.spawn("stuck", body())
        with pytest.raises(SimulationError):
            sched.run()
        report = diagnose(sched)
        assert report is not None
        d = report.as_dict()
        assert d["blocked"] == [{"name": "stuck", "pending": ["never"],
                                 "waits_on": []}]
        assert d["cycles"] == []
        assert "stuck awaits never" in report.render()

    def test_untagged_future_still_described(self):
        sched = Scheduler()
        orphan = SimFuture()

        def body():
            yield Wait(orphan)

        sched.spawn("stuck", body())
        with pytest.raises(SimulationError) as err:
            sched.run()
        assert "<untagged SimFuture>" in str(err.value)

    def test_passive_processes_not_reported(self):
        sched = Scheduler()
        sched.add_passive("server0")
        orphan = SimFuture(tag="t")

        def body():
            yield Wait(orphan)

        sched.spawn("stuck", body())
        with pytest.raises(SimulationError):
            sched.run()
        report = diagnose(sched)
        assert [b.name for b in report.blocked] == ["stuck"]
