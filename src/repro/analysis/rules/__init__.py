"""The repo-specific rule registry: eight rules, REP001–REP011.

Every rule implements one hook, ``check(files)``, over the parsed
:class:`~repro.analysis.lint.FileContext` list that
:func:`~repro.analysis.lint.run_lint` builds once per run.  The rules
live by hazard class:

* :mod:`~repro.analysis.rules.determinism` — REP001 wall clocks,
  REP002 unseeded randomness, REP003 unordered iteration;
* :mod:`~repro.analysis.rules.concurrency` — REP005 blocking calls in
  coroutines, REP006 broad excepts that can swallow injected faults;
* :mod:`~repro.analysis.rules.observability` — REP007 metric names
  outside the catalogued namespaces;
* :mod:`~repro.analysis.rules.rpc_contract` — REP010 dispatch literals
  that bind no ``@rpc_handler``, and orphan handlers;
* :mod:`~repro.analysis.rules.hotpath` — REP011 copies on the zero-copy
  read path.

``docs/static-analysis.md`` is the catalog, and it names what carries
the contracts of the retired REP004, REP008 and REP009.
"""

from __future__ import annotations

from repro.analysis.rules.concurrency import (
    Rep005BlockingCall,
    Rep006BroadExcept,
)
from repro.analysis.rules.determinism import (
    Rep001WallClock,
    Rep002UnseededRandomness,
    Rep003UnorderedIteration,
)
from repro.analysis.rules.hotpath import Rep011HotPathCopy
from repro.analysis.rules.observability import Rep007MetricNamespace
from repro.analysis.rules.rpc_contract import Rep010RpcContract

#: every registered rule, in ID order
ALL_RULES = (
    Rep001WallClock(),
    Rep002UnseededRandomness(),
    Rep003UnorderedIteration(),
    Rep005BlockingCall(),
    Rep006BroadExcept(),
    Rep007MetricNamespace(),
    Rep010RpcContract(),
    Rep011HotPathCopy(),
)

ALL_RULE_IDS = tuple(rule.id for rule in ALL_RULES)


def get_rules(ids=None):
    """Resolve rule IDs to rule instances (all rules when ``ids`` is None)."""
    if not ids:
        return list(ALL_RULES)
    by_id = {rule.id: rule for rule in ALL_RULES}
    unknown = [i for i in ids if i not in by_id]
    if unknown:
        raise KeyError(
            f"unknown rule id(s) {unknown}; known: {list(by_id)}"
        )
    return [by_id[i] for i in ids]


__all__ = ["ALL_RULES", "ALL_RULE_IDS", "get_rules"]
