"""Observability rules: metric names must match the central catalog.

REP007 pins every ``MetricsRegistry.inc/set/observe`` call site whose
first argument is a string literal (or an f-string with a literal head)
to the namespaces declared in :mod:`repro.obs.metrics_catalog`.  The
catalog mirrors the counter tables in ``docs/observability.md``, so a
typo'd or undeclared namespace (``serv.completed``, ``cache.hits``)
fails ``python -m repro.cli analyze`` instead of silently forking the
metric surface that the cross-runtime differential tests and the bench
observatory read.

Dynamic names (variables, computed keys) are skipped — only literals
can drift silently.  F-strings are judged by their leading literal
fragment (``f"serve.tenant.{t}.admitted"`` passes through ``serve``);
an f-string that *starts* with a placeholder cannot be judged and is
skipped too.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import FileContext, Rule, Violation
from repro.obs.metrics_catalog import METRIC_NAMESPACES, is_catalogued

#: MetricsRegistry convenience methods that take an instrument name first
METRIC_METHODS = ("inc", "set", "observe")


def _literal_head(node: ast.expr) -> str | None:
    """The statically-known leading text of a name argument, if any."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


class Rep007MetricNamespace(Rule):
    """Flag metric-name literals outside the catalogued namespaces."""

    id = "REP007"
    title = "metric name outside the namespaces in obs/metrics_catalog.py"

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        for ctx, node in self.walk(files):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in METRIC_METHODS:
                continue
            name = _literal_head(node.args[0])
            if name is None or is_catalogued(name):
                continue
            yield self.violation(
                ctx, node,
                f"metric name {name!r} is outside the declared namespaces "
                f"({', '.join(sorted(METRIC_NAMESPACES))}); declare it in "
                f"repro/obs/metrics_catalog.py and document it in "
                f"docs/observability.md",
            )
