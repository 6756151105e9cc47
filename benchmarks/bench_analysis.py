"""Static-analysis cost and rule yield (docs/static-analysis.md).

Lints two corpora with every REP rule: the shipped `src/repro` tree
(which must be clean under every rule — the tier-1 gate this bench
re-asserts as a deterministic column) and the per-rule fixture corpus
under `tests/fixtures/analysis/` (where every rule must fire — the
gate's non-vacuity check).  A rule row's `Check (ms)` is that rule's
pass over the parsed tree; the `ALL` row's is the end-to-end analyze
cost, parsing plus every rule, the same work
`python -m repro.cli analyze` does.

Wall times are reported but named `ungated`; finding counts are
deterministic and gated exactly by `cli bench check`.
"""

import time
from pathlib import Path

from benchmarks import common
from repro.analysis import load_config, run_lint
from repro.analysis.lint import lint_files, parse_files
from repro.analysis.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"


def rule_row(rule, *, files, tree, fixture) -> dict:
    t0 = time.perf_counter()
    lint_files(files, [rule])
    ms = (time.perf_counter() - t0) * 1e3
    tree_hits = sum(v.rule == rule.id for v in tree)
    fixture_hits = sum(v.rule == rule.id for v in fixture)
    return {
        "Rule": rule.id,
        "Tree findings": tree_hits,
        "Fixture findings": fixture_hits,
        "Check (ms)": round(ms, 2),
        "Tree clean": not tree_hits,
        "Fires on fixtures": bool(fixture_hits),
    }


EXPECTATIONS = [
    {"kind": "all_true",
     "label": "the shipped tree is clean under every rule",
     "col": "Tree clean", "scales": "all"},
    {"kind": "all_true",
     "label": "every rule fires somewhere in its fixture corpus "
              "(the gate is not vacuous)",
     "col": "Fires on fixtures", "scales": "all"},
]

UNGATED = {"Check (ms)": "host-timed with perf_counter"}


def test_analysis_gate(benchmark):
    config = load_config(REPO_ROOT / "pyproject.toml")

    def run_all():
        t0 = time.perf_counter()
        everything = run_lint([SRC], config=config, root=REPO_ROOT)
        all_ms = (time.perf_counter() - t0) * 1e3
        fixture = run_lint([FIXTURES], root=REPO_ROOT)
        files = parse_files([SRC], root=REPO_ROOT)
        rows = [rule_row(r, files=files, tree=everything, fixture=fixture)
                for r in ALL_RULES]
        rows.append({
            "Rule": "ALL",
            "Tree findings": len(everything),
            "Fixture findings": len(fixture),
            "Check (ms)": round(all_ms, 2),
            "Tree clean": not everything,
            "Fires on fixtures": all(r["Fires on fixtures"] for r in rows),
        })
        return rows

    rows = common.run_once(benchmark, run_all)
    common.publish(
        "analysis",
        "Static-analysis gate: per-rule cost, tree cleanliness, fixture "
        "yield",
        rows, key=("Rule",),
        ungated=UNGATED, expectations=EXPECTATIONS,
    )
