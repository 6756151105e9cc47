"""The repo-specific rule registry (REP001–REP011).

Every rule implements one hook, ``check(project)``, over the
:mod:`repro.analysis.callgraph` model that
:func:`~repro.analysis.lint.run_lint` builds once per run.

Determinism rules (:mod:`repro.analysis.rules.determinism`):

* **REP001** — wall-clock calls outside the sanctioned
  ``utils/timer.py`` shims;
* **REP002** — unseeded randomness outside ``utils/rng.py``;
* **REP003** — ordering-nondeterministic iteration (``set`` /
  ``dict.keys()``) in scheduling / RPC dispatch / partition paths.

Concurrency rules (:mod:`repro.analysis.rules.concurrency`):

* **REP004** — statically unsizeable payloads at the model's RPC
  dispatch sites (cross-checked against the
  :mod:`repro.rpc.serialization` cost model);
* **REP005** — blocking calls inside simt coroutines;
* **REP006** — broad ``except`` clauses that can swallow injected faults
  in retry paths.

Observability rules (:mod:`repro.analysis.rules.observability`):

* **REP007** — metric-name literals passed to
  ``MetricsRegistry.inc/set/observe`` outside the namespaces declared in
  :mod:`repro.obs.metrics_catalog` (drift against
  ``docs/observability.md``).

Whole-program rules (:mod:`repro.analysis.rules.interprocedural`):

* **REP008** — lock-acquisition-order cycles across the call graph
  (static deadlock complement of ``analysis/deadlock.py``);
* **REP009** — module-level / class-variable containers mutated with no
  lock held on any call path (static complement of ``analysis/race.py``);
* **REP010** — RPC dispatch literals must bind a registered
  ``@rpc_handler`` with compatible arity; orphan handlers are flagged.

Hot-path rules (:mod:`repro.analysis.rules.hotpath`):

* **REP011** — ``.copy()`` / ``np.repeat`` / ``np.concatenate`` in the
  fetch hot-path modules (``storage/shard.py``,
  ``storage/neighbor_batch.py``, ``storage/vertex_prop.py``) without an
  explicit
  ``# repro: allow=REP011`` pragma naming the sanctioned copy.
"""

from __future__ import annotations

from repro.analysis.rules.concurrency import (
    Rep004UnsizeablePayload,
    Rep005BlockingCall,
    Rep006BroadExcept,
)
from repro.analysis.rules.determinism import (
    Rep001WallClock,
    Rep002UnseededRandomness,
    Rep003UnorderedIteration,
)
from repro.analysis.rules.hotpath import Rep011HotPathCopy
from repro.analysis.rules.interprocedural import (
    Rep008LockOrder,
    Rep009SharedMutableEscape,
    Rep010RpcContract,
)
from repro.analysis.rules.observability import Rep007MetricNamespace

#: every registered rule, in ID order
ALL_RULES = (
    Rep001WallClock(),
    Rep002UnseededRandomness(),
    Rep003UnorderedIteration(),
    Rep004UnsizeablePayload(),
    Rep005BlockingCall(),
    Rep006BroadExcept(),
    Rep007MetricNamespace(),
    Rep008LockOrder(),
    Rep009SharedMutableEscape(),
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


__all__ = [
    "ALL_RULES",
    "ALL_RULE_IDS",
    "Rep001WallClock",
    "Rep002UnseededRandomness",
    "Rep003UnorderedIteration",
    "Rep004UnsizeablePayload",
    "Rep005BlockingCall",
    "Rep006BroadExcept",
    "Rep007MetricNamespace",
    "Rep008LockOrder",
    "Rep009SharedMutableEscape",
    "Rep010RpcContract",
    "Rep011HotPathCopy",
    "get_rules",
]
