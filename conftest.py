"""Repo-wide pytest wiring: the ini options ``pyproject.toml`` declares.

Registered here rather than in ``tests/conftest.py`` so that runs outside
``tests/`` (``pytest perfbench/tests``, ``pytest benchmarks/...``) know
them too.  The tier-1 budget hook that reads ``tier1_budget_seconds``
stays in ``tests/conftest.py``.
"""


def pytest_addoption(parser):
    parser.addini(
        "tier1_budget_seconds",
        "wall-clock budget for the tier-1 (not slow) selection, "
        "enforced when REPRO_CI_BUDGET=1",
        default="60",
    )
