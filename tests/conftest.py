"""Shared pytest wiring: the tier-1 wall-clock budget.

The tier-1 selection (``pytest -m "not slow"``, the default via addopts)
must stay fast enough to run on every change.  ``pyproject.toml`` declares
the budget (``tier1_budget_seconds``, registered by the repo-root
``conftest.py``); this hook asserts it, but only when
``REPRO_CI_BUDGET=1`` is set — local runs on loaded machines should not
flake on timing.
"""

from __future__ import annotations

import os
import sys
import time


def pytest_sessionstart(session):
    session.config._repro_t0 = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    if os.environ.get("REPRO_CI_BUDGET") != "1":
        return
    # Only the tier-1 selection carries the budget; `-m slow` or `-m ""`
    # runs are allowed to take as long as they take.
    if "not slow" not in (session.config.getoption("-m") or ""):
        return
    budget = float(session.config.getini("tier1_budget_seconds"))
    elapsed = time.perf_counter() - session.config._repro_t0
    if elapsed > budget:
        print(
            f"\nERROR: tier-1 wall-clock budget exceeded: {elapsed:.1f}s > "
            f"{budget:.0f}s (see tier1_budget_seconds in pyproject.toml)",
            file=sys.stderr,
        )
        session.exitstatus = 1
