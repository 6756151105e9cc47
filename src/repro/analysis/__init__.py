"""``repro.analysis`` — determinism & concurrency sanitizers.

The engine's central correctness claim is that the deterministic
virtual-time runtime (:mod:`repro.simt`) and the real-thread runtime
(:class:`~repro.rpc.thread_runtime.ThreadRuntime`) execute the *same*
driver coroutines with identical results.  The differential tests can
detect a divergence but not localize its cause; this package catches the
hazard *classes* behind such divergences — wall-clock leakage, unseeded
randomness, ordering-nondeterministic iteration, unsizeable RPC payloads,
blocking calls in coroutines, swallowed fault injections, data races,
scheduler deadlocks — at lint time and at runtime:

* :mod:`repro.analysis.lint` — a small AST visitor framework with
  per-rule allowlists (``# repro: allow=REPnnn`` pragmas and the
  ``[tool.repro.analysis]`` table in ``pyproject.toml``); the repo-specific
  rules live in :mod:`repro.analysis.rules` (REP001–REP011);
* :mod:`repro.analysis.callgraph` — the whole-program model (module
  import graph, alias-aware call graph, lock-site index) behind the
  interprocedural rules REP008–REP010 and the project-refined
  REP004/REP006 verdicts;
* :mod:`repro.analysis.race` — an Eraser-style lockset race detector that
  instruments :class:`~repro.ppr.hashmap.ShardedMap` and
  :class:`~repro.rpc.thread_runtime.ThreadRuntime` shared state behind a
  zero-overhead-when-off flag (``RunRequest(sanitize=True)``);
* :mod:`repro.analysis.deadlock` — a wait-for-graph diagnoser the
  virtual-time scheduler invokes when its event queue drains with
  unresolved futures, naming each blocked coroutine and what it awaits.

``python -m repro.cli analyze`` runs the lint suite over ``src/`` and is
gated in tier-1 by ``tests/test_analysis.py``; any finding fails, and an
intentional hit is suppressed by a pragma or an allowlist entry.  See
``docs/static-analysis.md`` for the rule catalog and allowlist syntax.
"""

from __future__ import annotations

from repro.analysis.callgraph import Project, build_project
from repro.analysis.deadlock import DeadlockReport, diagnose
from repro.analysis.lint import (
    AnalysisConfig,
    FileContext,
    ProjectRule,
    Rule,
    Violation,
    load_config,
    run_lint,
)
from repro.analysis.race import (
    RaceAccess,
    RaceDetector,
    RaceViolation,
    TrackedLock,
    install,
    installed,
    uninstall,
)
from repro.analysis.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "AnalysisConfig",
    "DeadlockReport",
    "FileContext",
    "Project",
    "ProjectRule",
    "RaceAccess",
    "RaceDetector",
    "RaceViolation",
    "Rule",
    "TrackedLock",
    "Violation",
    "build_project",
    "diagnose",
    "get_rules",
    "install",
    "installed",
    "load_config",
    "run_lint",
    "uninstall",
]
