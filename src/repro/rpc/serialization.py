"""Payload sizing and buffer pooling for the RPC cost model.

A TensorPipe-style transport charges per message, per tensor, and per byte.
One walk (``_walk``) describes what an argument/result structure puts on
the wire — the ``(dtype, nbytes)`` of each tensor, plus the bytes of
everything else — and both consumers read it: :func:`payload_sizes`
prices a message as ``(nbytes, n_tensors)``, and :meth:`BufferPool.stage`
borrows one pooled buffer per tensor.  The walk's rules:

* a NumPy array is **one tensor** of ``arr.nbytes`` bytes;
* Python scalars cost 8 bytes (pickled fixed-size header approximation);
* strings/bytes cost their encoded length;
* containers are walked recursively;
* objects exposing ``rpc_tensors()`` describe themselves as the
  ``(dtype, nbytes)`` of each tensor they would serialize to — e.g. a
  CSR-compressed :class:`~repro.storage.neighbor_batch.NeighborBatch` is
  five tensors total, while the uncompressed list-of-lists response is one
  tensor *per source node per field*, which is exactly why compression
  wins.

Sizing is intentionally decoupled from actual serialization: within the
simulated cluster, objects are handed over by reference (the paper's
shared-memory zero-copy local path), and the cost model alone decides how
expensive the transfer *would* be over the wire.

Type dispatch is memoized per concrete type (``_DISPATCH``): the hot path
sizes millions of identically-shaped responses, so the isinstance chain is
resolved once per type instead of once per call.  The protocol check is
type-level (``rpc_tensors`` found on the class), matching every real
payload type in the tree.

:class:`BufferPool` models a deterministic size-class allocator for
response serialization buffers.  Serializing a response borrows one
pooled buffer per tensor (size class = next power of two of the tensor's
bytes, keyed by dtype) and returns them all once the response is on the
wire, so the inventory is the pool's whole state and converges to the
largest single-response demand per class.  A response's hits per class
are ``min(demand, inventory)``, so totals are order-independent — which
keeps the ``rpc.pool.*`` counters, booked by the RPC ledger from what
:meth:`BufferPool.stage` returns, bitwise-identical between the
virtual-time scheduler and :class:`~repro.rpc.thread_runtime.ThreadRuntime`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

_SCALAR_NBYTES = 8
#: smallest pooled buffer: sub-64-byte tensors share one class per dtype
_MIN_POOL_CLASS = 64


def _walk_none(obj: Any, tensors: list) -> int:
    return 0


def _walk_ndarray(obj: np.ndarray, tensors: list) -> int:
    tensors.append((obj.dtype, obj.nbytes))
    return 0


def _walk_described(obj: Any, tensors: list) -> int:
    for tensor in obj.rpc_tensors():
        if tensor[1] < 0:
            raise ValueError(
                f"{type(obj).__name__}.rpc_tensors() yielded a negative size"
            )
        tensors.append(tensor)
    return 0


def _walk_scalar(obj: Any, tensors: list) -> int:
    return _SCALAR_NBYTES


def _walk_str(obj: str, tensors: list) -> int:
    return len(obj.encode("utf-8"))


def _walk_bytes(obj: Any, tensors: list) -> int:
    return len(obj)


def _walk_dict(obj: dict, tensors: list) -> int:
    nbytes = 0
    for key, value in obj.items():
        nbytes += _walk(key, tensors) + _walk(value, tensors)
    return nbytes


def _walk_sequence(obj: Any, tensors: list) -> int:
    nbytes = 0
    for item in obj:
        # _walk(item, tensors), inline: every request is an args tuple
        tp = item.__class__
        nbytes += (_DISPATCH.get(tp) or _dispatch(tp))(item, tensors)
    return nbytes


def _walk_unsupported(obj: Any, tensors: list) -> int:
    raise TypeError(
        f"cannot size RPC payload of type {type(obj).__name__}; "
        "implement rpc_tensors() -> iterable of (dtype, nbytes)"
    )


def _resolve_handler(tp: type):
    """Pick the walk handler for one concrete type (isinstance order)."""
    if tp is type(None):
        return _walk_none
    if issubclass(tp, np.ndarray):
        return _walk_ndarray
    if getattr(tp, "rpc_tensors", None) is not None:
        return _walk_described
    if issubclass(tp, (bool, int, float, complex, np.generic)):
        return _walk_scalar
    if issubclass(tp, str):
        return _walk_str
    if issubclass(tp, (bytes, bytearray, memoryview)):
        return _walk_bytes
    if issubclass(tp, dict):
        return _walk_dict
    if issubclass(tp, (list, tuple, set, frozenset)):
        return _walk_sequence
    return _walk_unsupported


#: concrete type -> walk handler, filled lazily
_DISPATCH: dict[type, Any] = {}


def _dispatch(tp: type):
    """Resolve and memoize ``tp``'s walk handler."""
    handler = _DISPATCH[tp] = _resolve_handler(tp)
    return handler


def _walk(obj: Any, tensors: list) -> int:
    """Append the ``(dtype, nbytes)`` of each tensor ``obj`` puts on the
    wire to ``tensors``; return the bytes of everything else."""
    tp = obj.__class__
    return (_DISPATCH.get(tp) or _dispatch(tp))(obj, tensors)


def payload_sizes(obj: Any) -> tuple[int, int]:
    """Return ``(nbytes, n_tensors)`` for an RPC argument/result structure."""
    tensors: list = []
    tp = obj.__class__
    nbytes = (_DISPATCH.get(tp) or _dispatch(tp))(obj, tensors)
    for _, tensor_nbytes in tensors:
        nbytes += tensor_nbytes
    return nbytes, len(tensors)


def request_payload_sizes(args: tuple, kwargs: dict) -> tuple[int, int]:
    """Size a call's ``(args, kwargs)``: ``payload_sizes((args, kwargs))``
    without walking the wrapper (containers themselves are free)."""
    tensors: list = []
    nbytes = _walk_sequence(args, tensors)
    if kwargs:
        nbytes += _walk_dict(kwargs, tensors)
    for _, tensor_nbytes in tensors:
        nbytes += tensor_nbytes
    return nbytes, len(tensors)


def size_class(nbytes: int) -> int:
    """Pool size class for a tensor: next power of two, floored at 64 B."""
    if nbytes <= _MIN_POOL_CLASS:
        return _MIN_POOL_CLASS
    return 1 << (nbytes - 1).bit_length()


class BufferPool:
    """Deterministic size-class pool for modeled response buffers.

    One pool per RPC server.  :meth:`stage` accounts the serialization of
    one response: every tensor borrows a buffer of its ``(dtype,
    size-class)``, reusing an idle one when the class has any and growing
    inventory on a miss; all are idle again once the response is staged
    (the transport owns the bytes after copy-out).  Inventory per class
    only ever grows to the largest demand a *single* response has made,
    so total hits are independent of the order responses are served in.
    """

    __slots__ = ("_inventory",)

    def __init__(self) -> None:
        #: (dtype, size class) -> buffers allocated, all idle
        self._inventory: dict[tuple[np.dtype, int], int] = {}

    def stage(self, result: Any) -> tuple[int, int, int]:
        """Borrow/return pooled buffers for one serialized response:
        ``(tensors staged, hits on idle buffers, bytes of those hits)``."""
        inventory = self._inventory
        borrowed: dict[tuple[np.dtype, int], int] = {}
        tensors: list = []
        _walk(result, tensors)
        hits = reused = 0
        for dtype, nbytes in tensors:
            # size_class(nbytes), inline: this loop runs per staged tensor
            key = (dtype, _MIN_POOL_CLASS if nbytes <= _MIN_POOL_CLASS
                   else 1 << (nbytes - 1).bit_length())
            # the n-th buffer of a class hits iff the inventory has n
            n = borrowed[key] = borrowed.get(key, 0) + 1
            if n <= inventory.get(key, 0):
                hits += 1
                reused += key[1]
            else:
                inventory[key] = n
        return len(tensors), hits, reused

    def nbytes(self) -> int:
        """Resident bytes across all pooled buffers (memory accounting)."""
        return sum(cls * count
                   for (_, cls), count in self._inventory.items())
