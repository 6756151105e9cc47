"""REP010: RPC dispatch literals must bind registered handlers."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.lint import FileContext, Rule, Violation

#: dispatch attribute -> position of its method-name argument
DISPATCH_ATTRS = {"rpc_async": 1, "rpc_sync_effect": 1, "rref_call": 2}

#: canonical names of the ``@rpc_handler`` marker decorator, as imported
HANDLER_DECORATOR_NAMES = frozenset({
    "repro.rpc.handlers.rpc_handler",
    "repro.rpc.rpc_handler",
})

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class _Dispatch:
    ctx: FileContext
    node: ast.Call                  # the call holding the method literal
    attr: str
    method: str
    n_args: int | None              # payload positional count (None: unknown)
    kw_names: tuple[str, ...]


def _payload_shape(call: ast.Call, attr: str
                   ) -> tuple[int | None, tuple[str, ...]]:
    """The payload's positional count (None if unknown) and keywords."""
    sent = call.args[DISPATCH_ATTRS[attr] + 1:]
    keys = [kw.arg for kw in call.keywords]
    if attr == "rref_call":  # the payload travels as (args, kwargs)
        args_t, kwargs_d = (*sent, None, None)[:2]
        if not isinstance(args_t, ast.Tuple):
            return None, ()
        sent = args_t.elts
        keys = [_literal(k) for k in kwargs_d.keys] \
            if isinstance(kwargs_d, ast.Dict) else []
    n_args = None if any(isinstance(a, ast.Starred) for a in sent) \
        else len(sent)
    return n_args, tuple(k for k in keys if k is not None)


def _literal(node: ast.expr | None) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _scan(ctx: FileContext) -> tuple[list[ast.FunctionDef], list[_Dispatch]]:
    """One walk of a file: its ``@rpc_handler`` methods and dispatches."""
    handlers, defs, calls = [], [], []
    bare_calls: dict[str, list[ast.Call]] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            handlers += [item for item in node.body
                         if isinstance(item, _FuncDef) and any(
                             ctx.imports.resolve(d) in HANDLER_DECORATOR_NAMES
                             for d in item.decorator_list)]
        elif isinstance(node, _FuncDef):
            defs.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            bare_calls.setdefault(node.func.id, []).append(node)
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr in DISPATCH_ATTRS:
            calls.append(node)
    sites = []
    for call in calls:
        attr = call.func.attr
        pos = DISPATCH_ATTRS[attr]
        marg = call.args[pos] if len(call.args) > pos else None
        if _literal(marg) is not None:
            sites.append(_Dispatch(ctx, call, attr, _literal(marg),
                                   *_payload_shape(call, attr)))
            continue
        # forwarded through a parameter of the innermost enclosing def:
        # each bare-name call of it with a literal there is one dispatch
        # of unknown payload shape
        fn = max((d for d in defs
                  if d.lineno <= call.lineno <= d.end_lineno),
                 key=lambda d: d.lineno, default=None)
        if fn is None or not isinstance(marg, ast.Name):
            continue
        positional = [p.arg for p in (*fn.args.posonlyargs, *fn.args.args)]
        if marg.id not in positional + [p.arg for p in fn.args.kwonlyargs]:
            continue
        at = positional.index(marg.id) if marg.id in positional else None
        for outer in bare_calls.get(fn.name, ()):
            arg = outer.args[at] if at is not None and \
                at < len(outer.args) else None
            for kw in outer.keywords:
                if kw.arg == marg.id:
                    arg = kw.value
            if _literal(arg) is not None:
                sites.append(_Dispatch(ctx, outer, attr, _literal(arg),
                                       None, ()))
    return handlers, sites


def _binding_error(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                   n_pos: int, kw_names: tuple[str, ...]) -> str | None:
    """None when the payload binds the handler; else a human reason."""
    a = fn.args
    names = [p.arg for p in (*a.posonlyargs, *a.args)]
    n_required = len(names) - len(a.defaults)
    if names and names[0] in ("self", "cls"):
        names, n_required = names[1:], n_required - 1
    if n_pos > len(names) and a.vararg is None:
        return (f"takes at most {len(names)} positional argument(s), "
                f"got {n_pos}")
    unknown = set(kw_names) - {*names, *(p.arg for p in a.kwonlyargs)}
    if unknown and a.kwarg is None:
        return f"got unexpected keyword(s) {sorted(unknown)}"
    required = names[n_pos:n_required] + [
        p.arg for p, default in zip(a.kwonlyargs, a.kw_defaults)
        if default is None]
    missing = [name for name in required if name not in kw_names]
    if missing:
        return f"missing required argument(s) {missing}"
    return None


class Rep010RpcContract(Rule):
    """Dispatch literals must bind to registered handlers; no orphans.

    A dispatch site is an ``rpc_async`` / ``rpc_sync_effect`` /
    ``rref_call`` call (:data:`DISPATCH_ATTRS`); a handler is a method
    marked ``@rpc_handler`` (:mod:`repro.rpc.handlers`).  A method name
    forwarded through a parameter resolves through bare-name calls of
    the enclosing function in the same module (``_phase(rrefs, caller,
    "stage_updates", ...)``), at the call holding the literal.  Three
    sub-checks, each gated so partial lints stay quiet:

    * **unregistered method** — a dispatch literal naming no
      ``@rpc_handler`` method (only when the linted files declare at
      least one handler, so ad-hoc test doubles lint clean);
    * **arity mismatch** — the named handler cannot bind the payload's
      positional/keyword shape (skipped for starred payloads);
    * **orphan handler** — a decorated method no dispatch names (only
      when the linted files hold at least one resolvable dispatch, so
      linting a server module alone doesn't flag its whole surface).
    """

    id = "REP010"
    title = "RPC dispatch contract violation"

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        #: handler name -> (file, def) of every method registering it
        handlers: dict[str, list[tuple[FileContext, ast.FunctionDef]]] = {}
        sites: list[_Dispatch] = []
        for ctx in files:
            file_handlers, file_sites = _scan(ctx)
            for node in file_handlers:
                handlers.setdefault(node.name, []).append((ctx, node))
            sites += file_sites
        if handlers:
            for site in sites:
                named = handlers.get(site.method)
                if named is None:
                    yield self.violation(site.ctx, site.node, (
                        f"{site.attr}() dispatches {site.method!r} but no "
                        "@rpc_handler method with that name exists — "
                        "the call fails at runtime on both runtimes"
                    ))
                    continue
                if site.n_args is None:
                    continue
                reasons = [_binding_error(node, site.n_args, site.kw_names)
                           for _, node in named]
                if all(r is not None for r in reasons):
                    yield self.violation(site.ctx, site.node, (
                        f"{site.attr}() payload does not bind the "
                        f"{site.method!r} handler: it {reasons[0]}"
                    ))
        if sites:
            used = {site.method for site in sites}
            for name in sorted(handlers.keys() - used):
                for ctx, node in handlers[name]:
                    yield self.violation(ctx, node, (
                        f"@rpc_handler {name!r} is never dispatched "
                        "by any rpc_async/rpc_sync_effect/rref_call site — "
                        "dead remote surface; remove the handler or the "
                        "decorator"
                    ))
