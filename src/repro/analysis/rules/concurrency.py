"""Concurrency rules: blocking calls and swallowed faults.

These guard the runtime-equivalence contract between the virtual-time
scheduler and :class:`~repro.rpc.thread_runtime.ThreadRuntime`:
coroutines must suspend only through simt effects (a real block stalls
one runtime but not the other), and injected faults must reach the retry
layer instead of dying in a broad ``except``.  Both walk the in-scope
files one at a time.
"""

from __future__ import annotations

import ast
from typing import Iterator

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

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        for ctx, func in self.walk(files):
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


class Rep006BroadExcept(Rule):
    """Broad ``except`` clauses that can swallow injected faults.

    The fault-injection layer raises typed errors
    (:class:`~repro.errors.RpcTimeoutError`,
    :class:`~repro.errors.WorkerCrashedError`) that must reach the retry /
    degradation logic.  A bare ``except`` or ``except Exception`` in an
    rpc/engine/ppr/simt path that does not re-raise eats those faults and
    turns a chaos test into a silent wrong answer.  Catch the specific
    error types, or re-raise (a ``raise`` anywhere in the handler counts).

    Every such handler in scope is a finding, whatever its ``try`` body
    calls: whether a body can see an injected fault is a whole-program
    question, and a handler that must swallow one says why in a pragma.
    """

    id = "REP006"
    title = "broad except can swallow injected faults"
    scope_dirs = ("rpc", "simt", "engine", "ppr")

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        for ctx, node in self.walk(files):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not self._is_broad(handler.type):
                    continue
                if any(isinstance(n, ast.Raise) for child in handler.body
                       for n in ast.walk(child)):
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
    def _is_broad(type_node: ast.expr | None) -> bool:
        if type_node is None:
            return True
        candidates = type_node.elts if isinstance(type_node, ast.Tuple) \
            else [type_node]
        return any(isinstance(t, ast.Name) and t.id in BROAD_EXCEPTION_NAMES
                   for t in candidates)
