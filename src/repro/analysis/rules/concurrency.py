"""Concurrency rules: RPC payloads, blocking calls, swallowed faults.

These guard the runtime-equivalence contract between the virtual-time
scheduler and :class:`~repro.rpc.thread_runtime.ThreadRuntime`: payloads
must be sizeable by the RPC cost model on both runtimes, coroutines must
suspend only through simt effects (a real block stalls one runtime but not
the other), and injected faults must reach the retry layer instead of
dying in a broad ``except``.

All three read the program model: REP004 judges the payloads of its
dispatch catalogue, REP006 traces a ``try`` body's calls through its
call-site index, and REP005 walks the in-scope modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    FAULT_ERROR_NAMES,
    Project,
    _own_nodes,
    is_dispatch,
    raised_name,
    single_assignments,
)
from repro.analysis.lint import FileContext, Rule, Violation

#: canonical names whose call blocks the OS thread
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.system",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "socket.create_connection",
})

#: attribute names that are file I/O regardless of receiver
FILE_IO_ATTRS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
})

BROAD_EXCEPTION_NAMES = ("Exception", "BaseException")


class Rep004UnsizeablePayload(Rule):
    """Payloads at RPC dispatch sites the cost model rejects.

    Every RPC argument is priced by
    :func:`repro.rpc.serialization.payload_sizes`; a payload it cannot size
    (lambdas, generators, arbitrary objects without ``rpc_payload()``)
    raises at dispatch on both runtimes.  The sites are the program
    model's dispatch catalogue — ``rpc_async`` / ``rpc_sync_effect``
    arguments and the elements of ``rref_call``'s args tuple / kwargs
    dict, the same surfaces REP006 and REP010 read.  Literal arguments
    are cross-checked against the cost model itself at lint time;
    lambdas and generator expressions are rejected outright.

    Light dataflow: a plain-name argument assigned exactly once in the
    enclosing function is resolved to its assigned value and judged by
    the same rules, so ``handler = lambda ...; ref.rpc_async(caller,
    "m", handler)`` is caught too.  Names bound more than once, bound by
    loops/with/walrus targets, or declared global/nonlocal are left
    unjudged, and a value produced by ``.rpc_payload()`` is accepted as
    sizeable by construction.

    The dataflow also follows one call-graph hop: an argument (or
    single-assignment value) that is a call into a project function
    whose *every* return expression is statically unsizeable is flagged
    too — ``ref.rpc_async(caller, "m", make_handler())`` where
    ``make_handler`` returns a lambda.
    """

    id = "REP004"
    title = "statically unsizeable RPC payload"

    def check(self, project: Project) -> Iterator[Violation]:
        for site in project.rpc_call_sites:
            env = single_assignments(project.functions[site.function].node)
            ctx = project.ctx_for(site.relpath)
            for arg in site.payload:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                hit = self._check_arg(arg, env)
                if hit is None:
                    hit = self._check_call_returns(project, arg, env)
                if hit is not None:
                    yield self.violation(
                        ctx, arg,
                        f"{site.attr}() argument {hit} — the "
                        "rpc.serialization cost model cannot size it; "
                        "send arrays/scalars/containers or a type "
                        "implementing rpc_payload()",
                    )

    def _check_call_returns(self, project: Project, arg: ast.expr,
                            env: dict[str, ast.expr]) -> str | None:
        """One call-graph hop: judge the returns of a called project fn.

        Flags only when every return expression of the callee is judged
        unsizeable — a single sizeable (or unjudgeable) return path
        clears the argument, keeping the check conservative.
        """
        call = arg
        via = ""
        if isinstance(arg, ast.Name):
            value = env.get(arg.id)
            if isinstance(value, ast.Call):
                call = value
                via = f" via local {arg.id!r}"
        site = project.call_sites.get(call)
        if site is None or site.callee is None:
            return None
        callee = project.functions.get(site.callee)
        if callee is None:
            return None
        returns = [n.value for n in _own_nodes(callee.node)
                   if isinstance(n, ast.Return) and n.value is not None]
        if not returns:
            return None
        hits = [self._judge(r) for r in returns]
        if all(h is not None for h in hits):
            short = site.callee.split(":")[-1]
            return (f"{hits[0]} (returned by {short}(){via}; every return "
                    "path is unsizeable)")
        return None

    @classmethod
    def _check_arg(cls, arg: ast.expr,
                   env: dict[str, ast.expr]) -> str | None:
        hit = cls._judge(arg)
        if hit is not None:
            return hit
        if isinstance(arg, ast.Name):
            value = env.get(arg.id)
            if value is None or cls._is_sized_by_construction(value):
                return None
            hit = cls._judge(value)
            if hit is not None:
                return (f"{hit} (via local {arg.id!r} assigned at "
                        f"line {value.lineno})")
        return None

    @staticmethod
    def _is_sized_by_construction(value: ast.expr) -> bool:
        """``x = something.rpc_payload()`` results are sizeable tuples."""
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr == "rpc_payload")

    @staticmethod
    def _judge(arg: ast.expr) -> str | None:
        if isinstance(arg, ast.Lambda):
            return "is a lambda"
        if isinstance(arg, ast.GeneratorExp):
            return "is a generator expression"
        try:
            value = ast.literal_eval(arg)
        except (ValueError, SyntaxError):
            return None  # not a literal; cannot judge statically
        from repro.rpc.serialization import payload_sizes

        try:
            payload_sizes(value)
        except TypeError as exc:
            return f"is rejected by payload_sizes ({exc})"
        return None


def _is_generator(func: ast.AST) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _own_nodes(func))


def _receiver_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class Rep005BlockingCall(Rule):
    """Blocking calls inside simt coroutine bodies.

    A driver coroutine suspends only by yielding :mod:`repro.simt.events`
    effects.  A real block — ``time.sleep``, file I/O, ``queue.get()``
    with no timeout — freezes the single-threaded virtual-time scheduler
    and desynchronizes the two runtimes.  Model delays with ``Sleep``/
    ``Charge`` effects instead; do I/O outside the driver.
    """

    id = "REP005"
    title = "blocking call inside a simt coroutine"
    scope_dirs = ("simt", "rpc", "engine", "ppr", "walk", "storage",
                  "serving", "stream")

    def check(self, project: Project) -> Iterator[Violation]:
        for ctx, func in self.walk(project):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_generator(func):
                continue
            for node in _own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                hit = self._describe_blocking(ctx, node)
                if hit is not None:
                    yield self.violation(
                        ctx, node,
                        f"{hit} blocks the coroutine {func.name!r} — "
                        "suspend via simt effects (Sleep/Charge/Wait) "
                        "and keep I/O out of driver bodies",
                    )

    @staticmethod
    def _describe_blocking(ctx: FileContext, node: ast.Call) -> str | None:
        name = ctx.imports.resolve(node.func)
        if name in BLOCKING_CALLS:
            return f"{name}()"
        if isinstance(node.func, ast.Name) and node.func.id in ("open",
                                                                "input"):
            return f"{node.func.id}()"
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in FILE_IO_ATTRS:
                return f".{attr}() file I/O"
            if attr in ("get", "join", "acquire"):
                receiver = _receiver_name(node.func.value) or ""
                looks_blocking = "queue" in receiver.lower() or \
                    "lock" in receiver.lower() or receiver == "q"
                has_timeout = any(kw.arg == "timeout"
                                  for kw in node.keywords)
                if looks_blocking and not has_timeout:
                    return f"{receiver}.{attr}() without a timeout"
        return None


#: bare-name calls that cannot raise injected fault types
_SAFE_BUILTINS = frozenset({
    "int", "float", "str", "bool", "bytes", "len", "repr", "format",
    "sorted", "list", "dict", "set", "tuple", "frozenset", "min", "max",
    "sum", "abs", "round", "isinstance", "issubclass", "getattr",
    "hasattr", "setattr", "enumerate", "zip", "range", "print", "id",
    "hash", "iter", "next", "type", "vars", "divmod",
})


class Rep006BroadExcept(Rule):
    """Broad ``except`` clauses that can swallow injected faults.

    The fault-injection layer raises typed errors
    (:class:`~repro.errors.RpcTimeoutError`,
    :class:`~repro.errors.WorkerCrashedError`) that must reach the retry /
    degradation logic.  A bare ``except`` or ``except Exception`` in an
    rpc/engine/ppr/simt path that does not re-raise eats those faults and
    turns a chaos test into a silent wrong answer.  Catch the specific
    error types, or re-raise (a ``raise`` anywhere in the handler counts).

    Exception flow is traced through the call graph: the broad except is
    only a violation when its ``try`` body can actually *see* an injected
    fault — it dispatches RPC, yields (simt effects deliver faults by
    throwing at the yield point), raises one itself, calls a project
    function whose transitive callees can, or calls something
    unresolvable (a dynamic callable may wrap any of the above).  Faults
    originate only inside this codebase, so resolvable external calls
    (``np.argsort``, ``dict.get``) are provably safe and not flagged.
    """

    id = "REP006"
    title = "broad except can swallow injected faults"
    scope_dirs = ("rpc", "simt", "engine", "ppr")

    def check(self, project: Project) -> Iterator[Violation]:
        for ctx, node in self.walk(project):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not self._is_broad(handler.type):
                    continue
                if any(isinstance(n, ast.Raise) for child in handler.body
                       for n in ast.walk(child)):
                    continue
                if not self._try_sees_fault(project, ctx, node):
                    continue
                caught = "bare except" if handler.type is None else \
                    f"except {ast.unparse(handler.type)}"
                yield self.violation(
                    ctx, handler,
                    f"{caught} without re-raise can swallow injected "
                    "RpcTimeoutError/WorkerCrashedError — catch the typed "
                    "fault errors or re-raise",
                )

    @staticmethod
    def _try_sees_fault(project: Project, ctx: FileContext,
                        try_node: ast.Try) -> bool:
        """Whether the guarded body can deliver an injected fault."""
        for stmt in try_node.body:
            for n in ast.walk(stmt):
                if isinstance(n, (ast.Yield, ast.YieldFrom)):
                    return True
                if isinstance(n, ast.Raise) and \
                        raised_name(ctx, n) in FAULT_ERROR_NAMES:
                    return True
                if not isinstance(n, ast.Call):
                    continue
                if is_dispatch(n):
                    return True
                site = project.call_sites.get(n)
                if site is not None and site.callee is not None:
                    if project.raises_fault(site.callee):
                        return True
                    continue
                name = ctx.imports.resolve(n.func)
                if name is not None:
                    q = project.resolve_dotted(name)
                    if q is None:
                        continue  # resolvable external: provably fault-free
                    if q in project.functions and project.raises_fault(q):
                        return True
                    continue
                if isinstance(n.func, ast.Name) and \
                        n.func.id in _SAFE_BUILTINS:
                    continue
                return True  # dynamic/unknown callable: suspect
        return False

    @staticmethod
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        candidates = type_node.elts if isinstance(type_node, ast.Tuple) \
            else [type_node]
        return any(isinstance(t, ast.Name) and t.id in BROAD_EXCEPTION_NAMES
                   for t in candidates)
