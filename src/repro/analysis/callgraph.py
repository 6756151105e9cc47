"""Whole-program resolution: modules, call graph, locks, RPC surface.

The per-file rules (REP001–REP007) judge one ``FileContext`` at a time;
the interprocedural rules (REP008–REP010, and the exception-flow upgrade
to REP006) need to see the *program*: which function calls which, where
locks are acquired while other locks are held, and which methods the RPC
layer can actually dispatch to.  :func:`build_project` parses every file
once (reusing :class:`~repro.analysis.lint.FileContext`) and assembles:

* a **module graph** — project-internal imports, alias-aware;
* a **function index** — one :class:`FunctionInfo` per ``def`` (methods
  qualified as ``module:Class.method``) with parameter shape, resolved
  call edges, raised exception names, lock acquisitions, and mutation
  sites over shared state;
* a **lock-site index** — every ``with <lock>:`` block over a
  ``threading.Lock`` / :class:`~repro.analysis.race.TrackedLock` /
  lock-named ``self`` attribute, identified by ``(owning class,
  attribute)`` or ``module:name`` so REP008 can order acquisitions
  program-wide;
* an **RPC surface** — methods marked ``@rpc_handler``
  (:mod:`repro.rpc.handlers`) plus every ``rpc_async`` /
  ``rpc_sync_effect`` / ``rref_call`` dispatch site with its method-name
  literal (or the parameter forwarding one, resolved a hop later by
  REP010).

Resolution is deliberately conservative and purely syntactic: ``self.m()``
binds inside the enclosing class (and project-internal bases),
``module.f()`` through the import map (following one package re-export),
``x = ClassName(...)`` through the same single-assignment environment
REP004 uses, and a bare method call on an unknown receiver only when
exactly one project class defines that method name.  Anything else
resolves to nothing — the rules treat unresolved calls as opaque (REP006
keeps them *suspect*; REP008/REP009 propagate nothing through them).

Derived fixpoints (:meth:`Project.acquires_closure`,
:meth:`Project.raises_fault`, :meth:`Project.always_called_locked`) are
memoized on the project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.lint import FileContext, iter_python_files

#: RRef dispatch attributes: ``rref.rpc_async(caller, "method", *payload)``
RPC_DISPATCH_ATTRS = ("rpc_async", "rpc_sync_effect")
#: context dispatch: ``ctx.rref_call(caller, rref, "method", args, kwargs)``
RPC_CONTEXT_ATTR = "rref_call"

#: canonical names of the ``@rpc_handler`` marker decorator
HANDLER_DECORATOR_NAMES = frozenset({
    "repro.rpc.handlers.rpc_handler",
    "repro.rpc.rpc_handler",
})

#: exception names whose *raise* is an injected fault (chaos layer)
FAULT_ERROR_NAMES = frozenset({
    "RpcTimeoutError", "WorkerCrashedError",
    "repro.errors.RpcTimeoutError", "repro.errors.WorkerCrashedError",
})

#: canonical constructors recognized as locks at assignment sites
LOCK_CONSTRUCTORS = frozenset({
    "threading.Lock", "threading.RLock",
    "repro.analysis.race.TrackedLock",
})

#: container methods that mutate their receiver in place
MUTATOR_ATTRS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort",
})


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/<pkg>/...`` drops the ``src`` layout root so in-project imports
    (``from repro.storage import shard``) resolve; anything else (tests,
    fixtures) keeps its full dotted path, which is unique either way.
    """
    parts = list(Path(relpath).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class ParamShape:
    """Callable acceptance of one function (``self``/``cls`` excluded)."""

    positional: tuple[str, ...]        # posonly + regular
    kwonly: tuple[str, ...]
    required: int                      # leading positionals without defaults
    required_kwonly: tuple[str, ...]
    has_varargs: bool
    has_kwargs: bool

    def accepts(self, n_pos: int, kw_names: Iterable[str]) -> str | None:
        """None when ``(n_pos, kw_names)`` binds; else a human reason."""
        kw = set(kw_names)
        if n_pos > len(self.positional) and not self.has_varargs:
            return (f"takes at most {len(self.positional)} positional "
                    f"argument(s), got {n_pos}")
        if not self.has_kwargs:
            unknown = kw - set(self.positional) - set(self.kwonly)
            if unknown:
                return f"got unexpected keyword(s) {sorted(unknown)}"
        missing = [p for i, p in enumerate(self.positional)
                   if i >= n_pos and i < self.required and p not in kw]
        if missing:
            return f"missing required argument(s) {missing}"
        missing_kw = [k for k in self.required_kwonly if k not in kw]
        if missing_kw:
            return f"missing required keyword-only argument(s) {missing_kw}"
        return None

    def describe(self) -> str:
        hi = "*" if self.has_varargs else str(len(self.positional))
        return f"{self.required}..{hi} positional"


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    raw: str                        # best-effort printable callee
    callee: str | None              # resolved function qname, if any
    held: tuple[str, ...]           # lock ids held at this site


@dataclass
class LockAcquisition:
    """One ``with <lock>:`` entry."""

    lock_id: str
    function: str                   # enclosing function qname
    lineno: int
    col: int
    held_before: tuple[str, ...]


@dataclass
class MutationSite:
    """One in-place mutation of a module-level or class-level container."""

    target: str                     # "module:NAME" or "Class.attr"
    kind: str                       # subscript | method | augassign | del
    lineno: int
    col: int
    held: tuple[str, ...]


@dataclass
class RpcCallSite:
    """One ``rpc_async``/``rpc_sync_effect``/``rref_call`` dispatch site."""

    relpath: str
    node: ast.Call
    attr: str
    function: str | None            # enclosing function qname
    method: str | None              # literal method name, if static
    method_param: str | None        # parameter forwarding the name, if so
    n_args: int | None              # payload positional count (None: unknown)
    kw_names: tuple[str, ...]


@dataclass
class HandlerInfo:
    """One ``@rpc_handler``-marked method."""

    qname: str                      # module:Class.method
    cls: str                        # class qname
    name: str                       # method name
    relpath: str
    lineno: int
    col: int
    params: ParamShape


@dataclass
class SharedDef:
    """A module-level or class-body mutable container definition."""

    target: str                     # "module:NAME" or "Class.attr"
    relpath: str
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """Everything the interprocedural rules need about one ``def``."""

    qname: str
    module: str
    cls: str | None                 # enclosing class qname, if a method
    name: str
    relpath: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: ParamShape
    calls: list[CallSite] = field(default_factory=list)
    locks: list[LockAcquisition] = field(default_factory=list)
    mutations: list[MutationSite] = field(default_factory=list)
    raises: set[str] = field(default_factory=set)
    has_yield: bool = False


@dataclass
class ClassInfo:
    qname: str
    module: str
    name: str
    relpath: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()     # resolved project class qnames
    methods: dict[str, str] = field(default_factory=dict)
    lock_attrs: set[str] = field(default_factory=set)


def _attr_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` -> ("a", "b", "c"); None for non-name-rooted chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return tuple(reversed(parts))


def _looks_lockish(name: str) -> bool:
    return "lock" in name.lower()


def _describe_callee(func: ast.expr) -> str:
    chain = _attr_chain(func)
    return ".".join(chain) if chain else "<dynamic>"


def _param_shape(node: ast.FunctionDef | ast.AsyncFunctionDef, *,
                 method: bool) -> ParamShape:
    a = node.args
    positional = [p.arg for p in (*a.posonlyargs, *a.args)]
    required = len(positional) - len(a.defaults)
    if method and positional and positional[0] in ("self", "cls"):
        positional = positional[1:]
        required -= 1
    kw_required = tuple(
        p.arg for p, default in zip(a.kwonlyargs, a.kw_defaults)
        if default is None
    )
    return ParamShape(
        positional=tuple(positional),
        kwonly=tuple(p.arg for p in a.kwonlyargs),
        required=max(0, required),
        required_kwonly=kw_required,
        has_varargs=a.vararg is not None,
        has_kwargs=a.kwarg is not None,
    )


class Project:
    """The assembled whole-program model.  Build via :func:`build_project`."""

    def __init__(self, root: Path | None) -> None:
        self.root = root
        self.modules: dict[str, FileContext] = {}
        self.module_of_relpath: dict[str, str] = {}
        #: module name -> imported *project* module names
        self.imports: dict[str, set[str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: method name -> class qnames defining it (unique-name fallback)
        self.method_index: dict[str, list[str]] = {}
        #: lock attr name -> owning class qnames
        self.lock_attr_index: dict[str, list[str]] = {}
        #: module-level lock ids: "module:NAME"
        self.module_locks: set[str] = set()
        #: module-level / class-body mutable container definitions
        self.shared_defs: dict[str, SharedDef] = {}
        self.rpc_handlers: list[HandlerInfo] = []
        self.rpc_call_sites: list[RpcCallSite] = []
        self._acquires_memo: dict[str, frozenset[str]] = {}
        self._fault_memo: dict[str, bool] = {}
        self._callers: dict[str, list[tuple[str, CallSite]]] | None = None
        self._locked_memo: dict[str, bool] = {}

    # -- lookups -----------------------------------------------------------
    def ctx_for(self, relpath: str) -> FileContext | None:
        mod = self.module_of_relpath.get(relpath)
        return self.modules.get(mod) if mod else None

    def handlers_by_name(self) -> dict[str, list[HandlerInfo]]:
        out: dict[str, list[HandlerInfo]] = {}
        for h in self.rpc_handlers:
            out.setdefault(h.name, []).append(h)
        return out

    def resolve_dotted(self, dotted: str, _depth: int = 0) -> str | None:
        """Map a canonical dotted name to a project function/class qname.

        Tries the longest module prefix first, then follows one package
        re-export (``from repro.storage import GraphShard`` in an
        ``__init__``) so facade imports resolve to the defining module.
        """
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod not in self.modules:
                continue
            rest = parts[cut:]
            qname = f"{mod}:" + ".".join(rest)
            if qname in self.functions or qname in self.classes:
                return qname
            if _depth < 2:
                reexport = self.modules[mod].imports.aliases.get(rest[0])
                if reexport is not None:
                    chained = ".".join([reexport, *rest[1:]])
                    resolved = self.resolve_dotted(chained, _depth + 1)
                    if resolved is not None:
                        return resolved
        return None

    def resolve_method_on(self, cls_qname: str, method: str) -> str | None:
        """Method lookup through project-internal bases (BFS, shallow)."""
        seen: set[str] = set()
        queue = [cls_qname]
        while queue:
            c = queue.pop(0)
            if c in seen:
                continue
            seen.add(c)
            info = self.classes.get(c)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def lock_attr_of(self, cls_qname: str, attr: str) -> str | None:
        """Resolve ``self.<attr>`` to a lock id through the base chain."""
        seen: set[str] = set()
        queue = [cls_qname]
        while queue:
            c = queue.pop(0)
            if c in seen:
                continue
            seen.add(c)
            info = self.classes.get(c)
            if info is None:
                continue
            if attr in info.lock_attrs:
                return f"{info.name}.{attr}"
            queue.extend(info.bases)
        return None

    # -- derived fixpoints -------------------------------------------------
    def acquires_closure(self, qname: str) -> frozenset[str]:
        """Lock ids ``qname`` may acquire, directly or via resolved callees."""
        memo = self._acquires_memo
        if qname in memo:
            return memo[qname]
        memo[qname] = frozenset()  # cycle guard: in-flight contributes nothing
        fn = self.functions.get(qname)
        if fn is None:
            return frozenset()
        acc = {a.lock_id for a in fn.locks}
        for call in fn.calls:
            if call.callee is not None:
                acc |= self.acquires_closure(call.callee)
        memo[qname] = frozenset(acc)
        return memo[qname]

    def raises_fault(self, qname: str) -> bool:
        """Whether ``qname`` can transitively raise an injected fault type.

        True when the function raises ``RpcTimeoutError`` /
        ``WorkerCrashedError`` itself, dispatches RPC (the fault travels
        back through the returned future), or calls a project function
        that can.  Unresolved calls contribute nothing here — REP006
        treats them as *suspect* separately.
        """
        memo = self._fault_memo
        if qname in memo:
            return memo[qname]
        memo[qname] = False  # cycle guard
        fn = self.functions.get(qname)
        if fn is None:
            return False
        out = bool(fn.raises & FAULT_ERROR_NAMES)
        if not out:
            for call in fn.calls:
                func = call.node.func
                if isinstance(func, ast.Attribute) and \
                        func.attr in (*RPC_DISPATCH_ATTRS, RPC_CONTEXT_ATTR):
                    out = True
                    break
                if call.callee is not None and self.raises_fault(call.callee):
                    out = True
                    break
        memo[qname] = out
        return out

    def always_called_locked(self, qname: str) -> bool:
        """Whether every resolved project call path into ``qname`` holds a
        lock.  Entry points (no resolved callers) count as unlocked.  Lets
        REP009 accept helpers only ever invoked under a caller's lock."""
        if self._callers is None:
            callers: dict[str, list[tuple[str, CallSite]]] = {}
            for fn in self.functions.values():
                for call in fn.calls:
                    if call.callee is not None:
                        callers.setdefault(call.callee, []).append(
                            (fn.qname, call))
            self._callers = callers

        def locked(q: str, stack: frozenset[str]) -> bool:
            if q in self._locked_memo:
                return self._locked_memo[q]
            if q in stack:
                return True  # recursive edge: neutral
            sites = self._callers.get(q, [])
            if not sites:
                return False
            out = all(bool(c.held) or locked(owner, stack | {q})
                      for owner, c in sites)
            if not stack:  # only memoize top-level verdicts
                self._locked_memo[q] = out
            return out

        return locked(qname, frozenset())

    # -- lock-order graph --------------------------------------------------
    def lock_order_edges(self) -> dict[tuple[str, str], LockAcquisition]:
        """``(held, acquired)`` pairs, each mapped to a witness site.

        An edge A→B means some path acquires B while holding A: a nested
        ``with`` in one function, or a call made under A whose transitive
        callee acquires B.
        """
        edges: dict[tuple[str, str], LockAcquisition] = {}
        for fq in sorted(self.functions):
            fn = self.functions[fq]
            for acq in fn.locks:
                for held in acq.held_before:
                    if held != acq.lock_id:
                        edges.setdefault((held, acq.lock_id), acq)
            for call in fn.calls:
                if not call.held or call.callee is None:
                    continue
                for inner in sorted(self.acquires_closure(call.callee)):
                    for held in call.held:
                        if held != inner:
                            edges.setdefault((held, inner), LockAcquisition(
                                lock_id=inner, function=fn.qname,
                                lineno=call.node.lineno,
                                col=call.node.col_offset,
                                held_before=call.held,
                            ))
        return edges

    def lock_cycles(self) -> list[list[str]]:
        """Cycles in the lock-order graph, canonicalized + deduplicated.

        Each cycle is discovered once, rooted at its smallest lock id —
        the DFS only extends through nodes greater than the root.
        """
        edges = self.lock_order_edges()
        adj: dict[str, list[str]] = {}
        for a, b in sorted(edges):
            adj.setdefault(a, []).append(b)
        cycles: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()

        def dfs(start: str, node: str, path: list[str],
                on_path: set[str]) -> None:
            for nxt in adj.get(node, ()):
                if nxt == start:
                    cyc = tuple(path)
                    if cyc not in seen:
                        seen.add(cyc)
                        cycles.append(cyc)
                elif nxt not in on_path and nxt > start:
                    path.append(nxt)
                    on_path.add(nxt)
                    dfs(start, nxt, path, on_path)
                    on_path.discard(nxt)
                    path.pop()

        for start in sorted(adj):
            dfs(start, start, [start], {start})
        return [list(c) for c in sorted(cycles)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                     ast.ListComp, ast.SetComp)
_MUTABLE_CTORS = ("dict", "list", "set", "defaultdict", "deque",
                  "OrderedDict", "Counter")


def _is_mutable_container(value: ast.expr) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _MUTABLE_CTORS
    return False


class _ModuleBuilder:
    """Extracts classes/functions/calls/locks from one parsed module."""

    def __init__(self, project: Project, modname: str,
                 ctx: FileContext) -> None:
        self.project = project
        self.modname = modname
        self.ctx = ctx
        self.local_funcs: dict[str, str] = {}
        self.local_classes: dict[str, str] = {}

    def qname(self, *parts: str) -> str:
        return f"{self.modname}:" + ".".join(parts)

    # -- pass 1: declarations -------------------------------------------
    def declare(self) -> None:
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                q = self.qname(node.name)
                self.local_funcs[node.name] = q
                self.project.functions[q] = self._function(q, None, node)
            elif isinstance(node, ast.ClassDef):
                self._declare_class(node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                target = f"{self.modname}:{name}"
                if self._is_lock_value(node.value):
                    self.project.module_locks.add(target)
                elif _is_mutable_container(node.value) and \
                        not name.startswith("__"):
                    self.project.shared_defs[target] = SharedDef(
                        target=target, relpath=self.ctx.relpath,
                        lineno=node.lineno, col=node.col_offset)

    def _declare_class(self, node: ast.ClassDef) -> None:
        cq = self.qname(node.name)
        self.local_classes[node.name] = cq
        cls = ClassInfo(qname=cq, module=self.modname, name=node.name,
                        relpath=self.ctx.relpath, node=node)
        self.project.classes[cq] = cls
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fq = self.qname(node.name, item.name)
                cls.methods[item.name] = fq
                self.project.functions[fq] = self._function(fq, cq, item)
                self.project.method_index.setdefault(
                    item.name, []).append(cq)
                self._maybe_handler(cq, item, fq)
            elif isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name) and \
                    _is_mutable_container(item.value):
                # class *variable* holding a container: shared across
                # every instance, every thread
                target = f"{node.name}.{item.targets[0].id}"
                self.project.shared_defs[target] = SharedDef(
                    target=target, relpath=self.ctx.relpath,
                    lineno=item.lineno, col=item.col_offset)
        self._collect_lock_attrs(cls)

    def _function(self, qname: str, cls: str | None,
                  node: ast.FunctionDef | ast.AsyncFunctionDef
                  ) -> FunctionInfo:
        return FunctionInfo(
            qname=qname, module=self.modname, cls=cls, name=node.name,
            relpath=self.ctx.relpath, node=node,
            params=_param_shape(node, method=cls is not None),
        )

    def _maybe_handler(self, cls_q: str, item, fq: str) -> None:
        for dec in item.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = self.ctx.imports.resolve(target)
            bare = target.id if isinstance(target, ast.Name) else None
            if name in HANDLER_DECORATOR_NAMES or bare == "rpc_handler":
                self.project.rpc_handlers.append(HandlerInfo(
                    qname=fq, cls=cls_q, name=item.name,
                    relpath=self.ctx.relpath, lineno=item.lineno,
                    col=item.col_offset,
                    params=self.project.functions[fq].params,
                ))
                return

    def _collect_lock_attrs(self, cls: ClassInfo) -> None:
        """``self.X = threading.Lock()`` (possibly behind a conditional
        expression, e.g. ``TrackedLock(..) if sanitize else Lock()``)."""
        for item in ast.walk(cls.node):
            if not isinstance(item, ast.Assign) or len(item.targets) != 1:
                continue
            t = item.targets[0]
            if isinstance(t, ast.Attribute) and \
                    isinstance(t.value, ast.Name) and t.value.id == "self":
                if self._is_lock_value(item.value) and \
                        t.attr not in cls.lock_attrs:
                    cls.lock_attrs.add(t.attr)
                    self.project.lock_attr_index.setdefault(
                        t.attr, []).append(cls.qname)

    def _is_lock_value(self, value: ast.expr) -> bool:
        for node in ast.walk(value):
            if not isinstance(node, ast.Call):
                continue
            name = self.ctx.imports.resolve(node.func)
            if name in LOCK_CONSTRUCTORS:
                return True
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("TrackedLock",
                                                          "RLock", "Lock"):
                return True
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("tracked_lock", "TrackedLock"):
                return True
        return False

    # -- pass 2: bodies --------------------------------------------------
    def link(self) -> None:
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._link_function(self.local_funcs[node.name], node)
            elif isinstance(node, ast.ClassDef):
                cq = self.local_classes[node.name]
                bases = []
                for b in node.bases:
                    resolved = self._resolve_class_expr(b)
                    if resolved is not None:
                        bases.append(resolved)
                self.project.classes[cq].bases = tuple(bases)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        self._link_function(
                            self.project.classes[cq].methods[item.name],
                            item, cls=cq)

    def _resolve_class_expr(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name) and node.id in self.local_classes:
            return self.local_classes[node.id]
        name = self.ctx.imports.resolve(node)
        if name is None:
            return None
        q = self.project.resolve_dotted(name)
        return q if q in self.project.classes else None

    def _link_function(self, qname: str,
                       node: ast.FunctionDef | ast.AsyncFunctionDef,
                       cls: str | None = None) -> None:
        fn = self.project.functions[qname]
        env = self._instance_env(node)
        local_defs = {
            s.name: f"{qname}.<locals>.{s.name}" for s in node.body
            if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._walk_stmts(fn, node.body, cls, env, (), local_defs)

    def _instance_env(self, node: ast.AST) -> dict[str, str]:
        """Single-assignment ``x = ClassName(...)`` typings in one scope."""
        counts: dict[str, int] = {}
        for n in _own_nodes(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store,
                                                              ast.Del)):
                counts[n.id] = counts.get(n.id, 0) + 1
        env: dict[str, str] = {}
        for n in _own_nodes(node):
            if isinstance(n, ast.Assign) and len(n.targets) == 1 and \
                    isinstance(n.targets[0], ast.Name) and \
                    isinstance(n.value, ast.Call):
                target = n.targets[0].id
                if counts.get(target) != 1:
                    continue
                func = n.value.func
                if isinstance(func, ast.Name) and \
                        func.id in self.local_classes:
                    env[target] = self.local_classes[func.id]
                    continue
                name = self.ctx.imports.resolve(func)
                if name is not None:
                    q = self.project.resolve_dotted(name)
                    if q in self.project.classes:
                        env[target] = q
        return env

    def _walk_stmts(self, fn: FunctionInfo, stmts: list, cls: str | None,
                    env: dict[str, str], held: tuple[str, ...],
                    local_defs: dict[str, str] | None = None) -> None:
        """Statement walk threading the held-lock stack through ``with``."""
        local_defs = local_defs if local_defs is not None else {}
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_nested_def(fn, stmt, cls, env, held, local_defs)
                continue
            if isinstance(stmt, ast.ClassDef):
                continue  # function-local classes are separate scopes
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: list[str] = []
                for item in stmt.items:
                    inner = tuple(held) + tuple(acquired)
                    self._scan_expr(fn, item.context_expr, cls, env, inner,
                                    local_defs)
                    lock_id = self._lock_id(item.context_expr, cls, env)
                    if lock_id is not None:
                        fn.locks.append(LockAcquisition(
                            lock_id=lock_id, function=fn.qname,
                            lineno=item.context_expr.lineno,
                            col=item.context_expr.col_offset,
                            held_before=inner,
                        ))
                        acquired.append(lock_id)
                self._walk_stmts(fn, stmt.body, cls, env,
                                 tuple(held) + tuple(acquired), local_defs)
                continue
            if isinstance(stmt, ast.Raise):
                if stmt.exc is not None:
                    target = stmt.exc.func if isinstance(stmt.exc, ast.Call) \
                        else stmt.exc
                    name = self.ctx.imports.resolve(target)
                    if name is None and isinstance(target, ast.Name):
                        name = target.id
                    if name is None and isinstance(target, ast.Attribute):
                        name = target.attr
                    if name is not None:
                        fn.raises.add(name)
                    self._scan_expr(fn, stmt.exc, cls, env, held, local_defs)
                if stmt.cause is not None:
                    self._scan_expr(fn, stmt.cause, cls, env, held,
                                    local_defs)
                continue
            self._record_mutation(fn, stmt, cls, held)
            for _name, value in ast.iter_fields(stmt):
                if isinstance(value, ast.expr):
                    self._scan_expr(fn, value, cls, env, held, local_defs)
                elif isinstance(value, list):
                    for sub in value:
                        if isinstance(sub, ast.expr):
                            self._scan_expr(fn, sub, cls, env, held,
                                            local_defs)
                        elif isinstance(sub, ast.stmt):
                            self._walk_stmts(fn, [sub], cls, env, held,
                                             local_defs)
                        elif isinstance(sub, ast.ExceptHandler):
                            if sub.type is not None:
                                self._scan_expr(fn, sub.type, cls, env,
                                                held, local_defs)
                            self._walk_stmts(fn, sub.body, cls, env, held,
                                             local_defs)
                        elif isinstance(sub, ast.match_case):
                            self._walk_stmts(fn, sub.body, cls, env, held,
                                             local_defs)

    def _walk_nested_def(self, fn: FunctionInfo,
                         stmt: ast.FunctionDef | ast.AsyncFunctionDef,
                         cls: str | None, env: dict[str, str],
                         held: tuple[str, ...],
                         local_defs: dict[str, str]) -> None:
        """Catalogue a nested def as its own function scope.

        The body runs at *call* time, so it starts with an empty held-lock
        stack (no false order edges from the definition site), but keeps
        the enclosing instance environment and ``self`` binding — closures
        capture them.  Decorators and defaults evaluate in the enclosing
        scope right now, under the current held set.
        """
        nq = f"{fn.qname}.<locals>.{stmt.name}"
        local_defs[stmt.name] = nq
        for dec in stmt.decorator_list:
            self._scan_expr(fn, dec, cls, env, held, local_defs)
        for default in (*stmt.args.defaults, *stmt.args.kw_defaults):
            if default is not None:
                self._scan_expr(fn, default, cls, env, held, local_defs)
        if nq in self.project.functions:  # pragma: no cover - dup names
            return
        nested = self._function(nq, None, stmt)
        self.project.functions[nq] = nested
        nested_env = dict(env)
        nested_env.update(self._instance_env(stmt))
        self._walk_stmts(nested, stmt.body, cls, nested_env, (),
                         dict(local_defs))

    def _scan_expr(self, fn: FunctionInfo, expr: ast.expr, cls: str | None,
                   env: dict[str, str], held: tuple[str, ...],
                   local_defs: dict[str, str] | None = None) -> None:
        """Record calls/yields/mutator-calls in one expression tree."""
        for node in ast.walk(expr):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                fn.has_yield = True
            elif isinstance(node, ast.Call):
                callee = self._resolve_call(node, cls, env, local_defs)
                fn.calls.append(CallSite(
                    node=node, raw=_describe_callee(node.func),
                    callee=callee, held=tuple(held)))
                self._maybe_rpc_site(fn, node)
                self._maybe_mutator_call(fn, node, cls, held)

    # -- shared-state mutations ------------------------------------------
    def _shared_target(self, node: ast.expr, cls: str | None) -> str | None:
        """Map an lvalue root to a tracked shared definition, if any."""
        if isinstance(node, ast.Name):
            target = f"{self.modname}:{node.id}"
            return target if target in self.project.shared_defs else None
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name):
            base = node.value.id
            if base in ("self", "cls") and cls is not None:
                target = f"{self.project.classes[cls].name}.{node.attr}"
                return target if target in self.project.shared_defs else None
            if base in self.local_classes:
                target = f"{base}.{node.attr}"
                return target if target in self.project.shared_defs else None
        return None

    def _record_mutation(self, fn: FunctionInfo, stmt: ast.stmt,
                         cls: str | None, held: tuple[str, ...]) -> None:
        hits: list[tuple[str, str, ast.AST]] = []
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Subscript):
                    hit = self._shared_target(t.value, cls)
                    if hit:
                        hits.append((hit, "subscript", t))
        elif isinstance(stmt, ast.AugAssign):
            node = stmt.target
            if isinstance(node, ast.Subscript):
                node = node.value
            hit = self._shared_target(node, cls)
            if hit:
                hits.append((hit, "augassign", stmt))
        elif isinstance(stmt, ast.Delete):
            for t in stmt.targets:
                if isinstance(t, ast.Subscript):
                    hit = self._shared_target(t.value, cls)
                    if hit:
                        hits.append((hit, "del", t))
        for target, kind, node in hits:
            fn.mutations.append(MutationSite(
                target=target, kind=kind, lineno=node.lineno,
                col=node.col_offset, held=tuple(held)))

    def _maybe_mutator_call(self, fn: FunctionInfo, node: ast.Call,
                            cls: str | None, held: tuple[str, ...]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute) or \
                func.attr not in MUTATOR_ATTRS:
            return
        hit = self._shared_target(func.value, cls)
        if hit:
            fn.mutations.append(MutationSite(
                target=hit, kind="method", lineno=node.lineno,
                col=node.col_offset, held=tuple(held)))

    # -- rpc sites --------------------------------------------------------
    def _maybe_rpc_site(self, fn: FunctionInfo, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in RPC_DISPATCH_ATTRS:
            method_pos, payload_from = 1, 2
        elif func.attr == RPC_CONTEXT_ATTR:
            method_pos, payload_from = 2, 3
        else:
            return
        if len(node.args) <= method_pos:
            return
        marg = node.args[method_pos]
        method = method_param = None
        if isinstance(marg, ast.Constant) and isinstance(marg.value, str):
            method = marg.value
        elif isinstance(marg, ast.Name) and \
                marg.id in fn.params.positional + fn.params.kwonly:
            method_param = marg.id
        if method is None and method_param is None:
            return
        n_args: int | None
        kw_names: tuple[str, ...]
        if func.attr == RPC_CONTEXT_ATTR:
            # rref_call carries the payload as (args_tuple, kwargs_dict)
            n_args, kw_names = None, ()
            if len(node.args) > payload_from and \
                    isinstance(node.args[payload_from], ast.Tuple):
                elts = node.args[payload_from].elts
                if not any(isinstance(e, ast.Starred) for e in elts):
                    n_args = len(elts)
            if len(node.args) > payload_from + 1 and \
                    isinstance(node.args[payload_from + 1], ast.Dict):
                keys = node.args[payload_from + 1].keys
                if all(isinstance(k, ast.Constant) and
                       isinstance(k.value, str) for k in keys):
                    kw_names = tuple(k.value for k in keys)
        else:
            payload = node.args[payload_from:]
            n_args = None if any(isinstance(a, ast.Starred)
                                 for a in payload) else len(payload)
            kw_names = tuple(kw.arg for kw in node.keywords
                             if kw.arg is not None)
        self.project.rpc_call_sites.append(RpcCallSite(
            relpath=self.ctx.relpath, node=node, attr=func.attr,
            function=fn.qname, method=method, method_param=method_param,
            n_args=n_args, kw_names=kw_names))

    # -- call resolution --------------------------------------------------
    def _resolve_call(self, node: ast.Call, cls: str | None,
                      env: dict[str, str],
                      local_defs: dict[str, str] | None = None) -> str | None:
        func = node.func
        project = self.project
        if isinstance(func, ast.Name):
            if local_defs and func.id in local_defs:
                return local_defs[func.id]
            if func.id in self.local_funcs:
                return self.local_funcs[func.id]
            if func.id in self.local_classes:
                return project.resolve_method_on(
                    self.local_classes[func.id], "__init__")
        name = self.ctx.imports.resolve(func)
        if name is not None:
            q = project.resolve_dotted(name)
            if q in project.functions:
                return q
            if q in project.classes:
                return project.resolve_method_on(q, "__init__")
        if not isinstance(func, ast.Attribute):
            return None
        if isinstance(func.value, ast.Name):
            recv = func.value.id
            if recv in ("self", "cls") and cls is not None:
                resolved = project.resolve_method_on(cls, func.attr)
                if resolved is not None:
                    return resolved
            if recv in env:
                return project.resolve_method_on(env[recv], func.attr)
            if recv in self.local_classes:
                return project.resolve_method_on(
                    self.local_classes[recv], func.attr)
        owners = project.method_index.get(func.attr, ())
        if len(owners) == 1:
            return project.resolve_method_on(owners[0], func.attr)
        return None

    # -- lock identity ----------------------------------------------------
    def _lock_id(self, expr: ast.expr, cls: str | None,
                 env: dict[str, str]) -> str | None:
        """Stable identity of a with-item if it acquires a lock.

        ``with self._lock:`` → ``Class._lock`` (declaring class, through
        bases); ``with MODULE_LOCK:`` → ``module:MODULE_LOCK``; a typed or
        unique lock attribute on another receiver → ``Owner.attr``.
        Anything else is not treated as a lock — a fabricated shared
        identity would invent lock-order edges that don't exist.
        """
        chain = _attr_chain(expr)
        if chain is None:
            return None
        project = self.project
        if len(chain) == 1:
            target = f"{self.modname}:{chain[0]}"
            return target if target in project.module_locks else None
        root, attr = chain[0], chain[-1]
        if root == "self" and cls is not None:
            resolved = project.lock_attr_of(cls, attr)
            if resolved is not None:
                return resolved
            if _looks_lockish(attr):
                return f"{project.classes[cls].name}.{attr}"
            return None
        if root in env:
            cinfo = project.classes.get(env[root])
            if cinfo is not None:
                resolved = project.lock_attr_of(env[root], attr)
                if resolved is not None:
                    return resolved
                if _looks_lockish(attr):
                    return f"{cinfo.name}.{attr}"
            return None
        owners = project.lock_attr_index.get(attr, ())
        if len(owners) == 1:
            return f"{project.classes[owners[0]].name}.{attr}"
        return None


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested def/class bodies."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def build_project(paths: Iterable[str | Path], *,
                  root: Path | None = None) -> Project:
    """Parse every .py under ``paths`` and assemble the program model."""
    project = Project(root)
    builders: list[_ModuleBuilder] = []
    for path in iter_python_files(paths):
        try:
            ctx = FileContext.parse(path, root=root)
        except SyntaxError:  # pragma: no cover - unparsable input skipped
            continue
        modname = module_name_for(ctx.relpath)
        if modname in project.modules:
            continue
        project.modules[modname] = ctx
        project.module_of_relpath[ctx.relpath] = modname
        builders.append(_ModuleBuilder(project, modname, ctx))
    for b in builders:
        b.declare()
    for b in builders:
        b.link()
    for modname, ctx in project.modules.items():
        deps = set()
        for target in ctx.imports.aliases.values():
            parts = target.split(".")
            for cut in range(len(parts), 0, -1):
                cand = ".".join(parts[:cut])
                if cand in project.modules and cand != modname:
                    deps.add(cand)
                    break
        project.imports[modname] = deps
    return project
