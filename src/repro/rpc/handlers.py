"""The ``@rpc_handler`` registry: the declared RPC surface of a class.

Remote objects are hosted by name (``ctx.create_remote(owner, key,
factory)``) and dispatched by string method name (``rref.rpc_async(caller,
"method", ...)``), so nothing ties a call-site literal to a real method
until the request lands — a typo'd or deleted handler only surfaces when a
chaos test happens to exercise that path.  Marking handlers explicitly
closes the loop twice:

* **statically** — REP010 (:mod:`repro.analysis.rules.rpc_contract`)
  checks every dispatch literal against the decorated surface with
  compatible arity, and flags decorated handlers nothing calls;
* **at runtime** — :meth:`~repro.rpc.worker.Worker.resolve_method` and
  the thread runtime's ``_ThreadServer.resolve_method`` restrict dispatch
  to the decorated surface, but only for classes that *opted in* by
  decorating at least one method (ad-hoc test doubles keep working).

The decorator is deliberately inert — it tags the function and returns
it unchanged, adding no call overhead::

    class GraphShard:
        @rpc_handler
        def get_neighbor_batch(self, ids): ...
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable)

#: attribute set on decorated functions
_MARKER = "__rpc_handler__"


def rpc_handler(fn: F) -> F:
    """Mark a method as part of its class's remote-dispatch surface."""
    setattr(fn, _MARKER, True)
    return fn


def is_rpc_handler(fn: Any) -> bool:
    """Whether ``fn`` (function or bound method) carries the marker."""
    return bool(getattr(fn, _MARKER, False))


def handler_surface(cls: type) -> frozenset[str] | None:
    """The declared dispatch surface of ``cls``, or None if undeclared.

    Returns the set of ``@rpc_handler``-decorated method names (walking
    the MRO, so subclasses inherit their bases' surface), or ``None``
    when no method anywhere in the MRO is decorated — meaning the class
    never opted into enforcement and any callable attribute remains
    dispatchable.
    """
    if "__rpc_surface__" in cls.__dict__:
        return cls.__dict__["__rpc_surface__"]
    names: set[str] = set()
    for klass in cls.__mro__:
        for name, member in vars(klass).items():
            if callable(member) and is_rpc_handler(member):
                names.add(name)
    surface = frozenset(names) if names else None
    try:
        cls.__rpc_surface__ = surface
    except TypeError:  # pragma: no cover - builtins reject attributes
        pass
    return surface


def check_dispatch(obj: Any, method: str) -> str | None:
    """Validate dispatching ``method`` on ``obj`` against its surface.

    Returns ``None`` when allowed (including when the class never opted
    in), else a human-readable reason for refusing dispatch.
    """
    surface = handler_surface(type(obj))
    if surface is None or method in surface:
        return None
    return (
        f"method {method!r} is not in the declared @rpc_handler surface of "
        f"{type(obj).__name__} (declared: {sorted(surface)})"
    )
