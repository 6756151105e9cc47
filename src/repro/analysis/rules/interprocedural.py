"""Whole-program rules: lock order, shared-state escape, RPC contracts.

These read the :class:`~repro.analysis.callgraph.Project` model's call
graph, lock and RPC indexes rather than walking files one at a time, so
they see hazards no per-file rule can: a lock-order inversion split
across two modules, a module-level dict mutated from an RPC handler
three calls deep, a dispatch literal whose handler was deleted last
week.

* **REP008** — the static complement of the runtime deadlock detector
  (:mod:`repro.analysis.deadlock`): held-lock sets are propagated along
  resolved call-graph edges, and any cycle in the resulting
  acquired-while-holding order is a potential deadlock, reported at each
  witnessing acquisition.
* **REP009** — the static complement of the Eraser lockset detector
  (:mod:`repro.analysis.race`): a module-level or class-variable
  container mutated with no lock held (and not exclusively reached from
  locked callers) is shared state any thread/process interleaving can
  corrupt.
* **REP010** — RPC contract checking: every ``rpc_async`` /
  ``rpc_sync_effect`` / ``rref_call`` method-name literal must name an
  ``@rpc_handler``-decorated method (:mod:`repro.rpc.handlers`) whose
  signature accepts the payload; decorated handlers nothing dispatches
  to are flagged as orphans.  Literals forwarded through a helper
  parameter (``_phase(rrefs, caller, "stage_updates", ...)``) are
  resolved one call-graph hop out.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import Project, RpcCallSite
from repro.analysis.lint import Rule, Violation


class Rep008LockOrder(Rule):
    """Lock-acquisition-order cycles across the call graph.

    An edge ``A -> B`` is recorded when some path acquires lock B while
    holding lock A — a nested ``with`` in one function, or a call under
    A whose transitive callee acquires B.  Two threads traversing a
    cycle ``A -> B -> A`` from different entry points deadlock; the fix
    is a single global acquisition order (or merging the locks).  One
    violation is reported per edge of each cycle, at the acquisition
    site witnessing it.
    """

    id = "REP008"
    title = "lock-order cycle (potential static deadlock)"

    def check(self, project: Project) -> Iterator[Violation]:
        edges = project.lock_order_edges()
        for cycle in project.lock_cycles():
            ring = cycle + cycle[:1]
            arrow = " -> ".join(ring)
            for a, b in zip(ring, ring[1:]):
                witness = edges[(a, b)]
                yield Violation(
                    path=project.functions[witness.function].relpath,
                    line=witness.lineno, col=witness.col,
                    rule=self.id,
                    message=(
                        f"acquires {b!r} while holding {a!r}, closing the "
                        f"lock-order cycle {arrow} — pick one global "
                        "acquisition order or merge the locks"
                    ),
                )


class Rep009SharedMutableEscape(Rule):
    """Unsynchronized mutation of module-level / class-variable containers.

    The thread runtime executes handlers and drivers concurrently; any
    container shared wider than one instance (module global, class
    variable) mutated with an empty held-lock set is an Eraser-style
    race waiting for an unlucky interleaving.  A mutation is accepted
    when a lock is held at the site, or when every resolved project call
    path into the mutating function already holds one (lock-protected
    helper methods).
    """

    id = "REP009"
    title = "shared mutable state mutated without a lock"
    scope_dirs = ("simt", "rpc", "engine", "storage", "serving", "stream",
                  "obs", "ppr", "walk")

    def check(self, project: Project) -> Iterator[Violation]:
        for fq in sorted(project.functions):
            fn = project.functions[fq]
            for mut in fn.mutations:
                if mut.held:
                    continue
                if project.always_called_locked(fq):
                    continue
                sdef = project.shared_defs.get(mut.target)
                where = (f" (defined at {sdef.relpath}:{sdef.lineno})"
                         if sdef is not None else "")
                yield Violation(
                    path=fn.relpath, line=mut.lineno, col=mut.col,
                    rule=self.id,
                    message=(
                        f"mutates shared container {mut.target!r}{where} "
                        "with no lock held on any call path — guard it "
                        "with a TrackedLock/threading.Lock or confine it "
                        "to one logical process"
                    ),
                )


class Rep010RpcContract(Rule):
    """Dispatch literals must bind to registered handlers; no orphans.

    Three sub-checks, each gated so partial lints stay quiet:

    * **unregistered method** — a dispatch literal naming no
      ``@rpc_handler`` method (only when the project declares at least
      one handler, so ad-hoc test doubles lint clean);
    * **arity mismatch** — the named handler cannot bind the payload's
      positional/keyword shape (skipped for starred payloads);
    * **orphan handler** — a decorated method no call site dispatches
      (only when the project has at least one resolvable dispatch site,
      so linting a server module alone doesn't flag its whole surface).
    """

    id = "REP010"
    title = "RPC dispatch contract violation"

    def check(self, project: Project) -> Iterator[Violation]:
        handlers = project.handlers_by_name()
        resolved: list[RpcCallSite] = []
        for site in project.rpc_call_sites:
            if site.method is not None:
                resolved.append(site)
            elif site.method_param is not None:
                resolved.extend(self._propagated(project, site))
        used: set[str] = set()
        if handlers:
            for site in resolved:
                named = handlers.get(site.method)
                if named is None:
                    yield self._at(site, (
                        f"{site.attr}() dispatches {site.method!r} but no "
                        "@rpc_handler method with that name exists — "
                        "the call fails at runtime on both runtimes"
                    ))
                    continue
                used.add(site.method)
                if site.n_args is None:
                    continue
                reasons = [h.params.accepts(site.n_args, site.kw_names)
                           for h in named]
                if all(r is not None for r in reasons):
                    h = named[0]
                    yield self._at(site, (
                        f"{site.attr}() payload does not bind "
                        f"{site.method!r}: handler "
                        f"{h.cls.split(':')[-1]}.{h.name} "
                        f"({h.params.describe()}) {reasons[0]}"
                    ))
        if resolved:
            for h in project.rpc_handlers:
                if h.name not in used:
                    yield Violation(
                        path=h.relpath, line=h.lineno, col=h.col,
                        rule=self.id,
                        message=(
                            f"@rpc_handler {h.cls.split(':')[-1]}."
                            f"{h.name} is never dispatched by any "
                            "rpc_async/rpc_sync_effect/rref_call site — "
                            "dead remote surface; remove the handler or "
                            "the decorator"
                        ),
                    )

    def _at(self, site: RpcCallSite, message: str) -> Violation:
        return Violation(path=site.relpath, line=site.node.lineno,
                         col=site.node.col_offset, rule=self.id,
                         message=message)

    @staticmethod
    def _propagated(project: Project, site: RpcCallSite
                    ) -> list[RpcCallSite]:
        """Resolve a forwarded method parameter one call-graph hop out.

        For a dispatch whose method argument is a parameter of the
        enclosing function, every project call into that function with a
        string literal at the parameter's position contributes one
        effective dispatch, located at the *outer* call (where the
        literal lives).  Payload arity is unknowable here, so these
        sites only feed the registration and orphan checks.
        """
        params = project.functions[site.function].params.positional
        pos = params.index(site.method_param) \
            if site.method_param in params else None
        out = []
        for call in project.callers.get(site.function, ()):
            arg: ast.expr | None = None
            if pos is not None and pos < len(call.node.args):
                candidate = call.node.args[pos]
                if not isinstance(candidate, ast.Starred):
                    arg = candidate
            for kw in call.node.keywords:
                if kw.arg == site.method_param:
                    arg = kw.value
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                out.append(RpcCallSite(
                    relpath=project.functions[call.caller].relpath,
                    node=call.node, attr=site.attr, function=call.caller,
                    method=arg.value, method_param=None, n_args=None,
                    kw_names=(),
                ))
        return out
