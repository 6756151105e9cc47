"""Static-analysis cost and rule yield (docs/static-analysis.md).

Builds the whole-program model once per analyzed tree, then times each
REP rule's check pass over two corpora: the shipped `src/repro` tree
(which must be clean under every rule — the tier-1 gate this bench
re-asserts as a deterministic column) and the per-rule fixture corpus
under `tests/fixtures/analysis/` (where every rule must fire — the
gate's non-vacuity check).  The `ALL` row is the end-to-end analyze
cost: project build plus all eleven rules, the same work
`python -m repro.cli analyze` does.

Per-rule and end-to-end wall times and the model's size are reported
but named `ungated`; finding counts are deterministic and gated exactly
by `cli bench check`.
"""

import time
from pathlib import Path

from benchmarks import common
from repro.analysis import build_project, load_config, run_lint
from repro.analysis.rules import ALL_RULES, get_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"


def rule_row(rule_id, *, tree_project, fixture_project, config) -> dict:
    rules = get_rules([rule_id])
    t0 = time.perf_counter()
    tree = run_lint([SRC], rules=rules, config=config, root=REPO_ROOT,
                    project=tree_project)
    ms = (time.perf_counter() - t0) * 1e3
    fixture = run_lint([FIXTURES], rules=rules, root=REPO_ROOT,
                       project=fixture_project)
    return {
        "Rule": rule_id,
        "Tree findings": len(tree),
        "Fixture findings": len(fixture),
        "Check (ms)": round(ms, 2),
        "Tree clean": not tree,
        "Fires on fixtures": bool(fixture),
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

_TREE_SIZE = "counts the source tree itself, which every code change moves"
UNGATED = {
    "Check (ms)": "host-timed with perf_counter",
    "build_ms": "host-timed with perf_counter",
    "functions": _TREE_SIZE,
    "handlers": _TREE_SIZE,
    "rpc_sites": _TREE_SIZE,
    "lock_sites": _TREE_SIZE,
}


def test_analysis_gate(benchmark):
    config = load_config(REPO_ROOT / "pyproject.toml")

    def run_all():
        t0 = time.perf_counter()
        tree_project = build_project([SRC], root=REPO_ROOT)
        build_ms = (time.perf_counter() - t0) * 1e3
        fixture_project = build_project([FIXTURES], root=REPO_ROOT)
        rows = [rule_row(r.id, tree_project=tree_project,
                         fixture_project=fixture_project, config=config)
                for r in ALL_RULES]
        t0 = time.perf_counter()
        everything = run_lint([SRC], config=config, root=REPO_ROOT)
        rows.append({
            "Rule": "ALL",
            "Tree findings": len(everything),
            "Fixture findings": sum(r["Fixture findings"] for r in rows),
            "Check (ms)": round((time.perf_counter() - t0) * 1e3
                                + build_ms, 2),
            "Tree clean": not everything,
            "Fires on fixtures": all(r["Fires on fixtures"] for r in rows),
        })
        stats = {
            "functions": len(tree_project.functions),
            "handlers": len(tree_project.rpc_handlers),
            "rpc_sites": len(tree_project.rpc_call_sites),
            "lock_sites": sum(len(f.locks)
                              for f in tree_project.functions.values()),
            "build_ms": round(build_ms, 2),
        }
        return rows, stats

    rows, stats = common.run_once(benchmark, run_all)
    common.publish(
        "analysis",
        "Static-analysis gate: per-rule cost, tree cleanliness, fixture "
        "yield (REP001–REP011, whole-program model)",
        rows, key=("Rule",),
        ungated=UNGATED, expectations=EXPECTATIONS, extra=stats,
    )
    benchmark.extra_info["model"] = (
        f"functions={stats['functions']} lock_sites={stats['lock_sites']} "
        f"handlers={stats['handlers']} build_ms={stats['build_ms']}"
    )
