"""Payload sizing and buffer pooling for the RPC cost model.

A TensorPipe-style transport charges per message, per tensor, and per byte.
:func:`payload_sizes` walks an arbitrary argument/result structure and
returns ``(nbytes, n_tensors)``:

* a NumPy array counts as **one tensor** of ``arr.nbytes`` bytes;
* Python scalars cost 8 bytes (pickled fixed-size header approximation);
* strings/bytes cost their encoded length;
* containers are walked recursively;
* objects exposing ``rpc_payload() -> (nbytes, n_tensors)`` report
  themselves — e.g. a CSR-compressed
  :class:`~repro.storage.neighbor_batch.NeighborBatch` reports five tensors
  total, while the uncompressed list-of-lists response reports one tensor
  *per source node per field*, which is exactly why compression wins.

Sizing is intentionally decoupled from actual serialization: within the
simulated cluster, objects are handed over by reference (the paper's
shared-memory zero-copy local path), and the cost model alone decides how
expensive the transfer *would* be over the wire.

Type dispatch is memoized per concrete type (``_DISPATCH``): the hot path
sizes millions of identically-shaped responses, so the isinstance chain is
resolved once per type instead of once per call.  The protocol check is
type-level (``rpc_payload`` found on the class), matching every real
payload type in the tree.

:class:`BufferPool` models a deterministic size-class allocator for
response serialization buffers.  Serializing a response borrows one
pooled buffer per tensor (size class = next power of two of the tensor's
bytes, keyed by dtype) and returns them all once the response is on the
wire, so steady-state serving allocates nothing: pool inventory per class
converges to the largest single-response demand.  All accounting is
order-independent across responses — total misses per class equal the
maximum per-response demand ever seen, hits are the remainder — which is
what keeps the ``rpc.pool.*`` counters bitwise-identical between the
virtual-time scheduler and :class:`~repro.rpc.thread_runtime.ThreadRuntime`.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

_SCALAR_NBYTES = 8
#: smallest pooled buffer: sub-64-byte tensors share one class per dtype
_MIN_POOL_CLASS = 64


def _size_none(obj: Any) -> tuple[int, int]:
    return 0, 0


def _size_ndarray(obj: np.ndarray) -> tuple[int, int]:
    return int(obj.nbytes), 1


def _size_custom(obj: Any) -> tuple[int, int]:
    nbytes, n_tensors = obj.rpc_payload()
    if nbytes < 0 or n_tensors < 0:
        raise ValueError(
            f"{type(obj).__name__}.rpc_payload() returned negative sizes"
        )
    return int(nbytes), int(n_tensors)


def _size_scalar(obj: Any) -> tuple[int, int]:
    return _SCALAR_NBYTES, 0


def _size_str(obj: str) -> tuple[int, int]:
    return len(obj.encode("utf-8")), 0


def _size_bytes(obj: Any) -> tuple[int, int]:
    return len(obj), 0


def _size_dict(obj: dict) -> tuple[int, int]:
    nbytes = n_tensors = 0
    for key, value in obj.items():
        kb, kt = payload_sizes(key)
        vb, vt = payload_sizes(value)
        nbytes += kb + vb
        n_tensors += kt + vt
    return nbytes, n_tensors


def _size_sequence(obj: Any) -> tuple[int, int]:
    nbytes = n_tensors = 0
    for item in obj:
        ib, it = payload_sizes(item)
        nbytes += ib
        n_tensors += it
    return nbytes, n_tensors


def _size_unsupported(obj: Any) -> tuple[int, int]:
    raise TypeError(
        f"cannot size RPC payload of type {type(obj).__name__}; "
        "implement rpc_payload() -> (nbytes, n_tensors)"
    )


def _resolve_handler(tp: type):
    """Pick the sizing handler for one concrete type (isinstance order)."""
    if tp is type(None):
        return _size_none
    if issubclass(tp, np.ndarray):
        return _size_ndarray
    if getattr(tp, "rpc_payload", None) is not None:
        return _size_custom
    if issubclass(tp, (bool, int, float, complex, np.generic)):
        return _size_scalar
    if issubclass(tp, str):
        return _size_str
    if issubclass(tp, (bytes, bytearray, memoryview)):
        return _size_bytes
    if issubclass(tp, dict):
        return _size_dict
    if issubclass(tp, (list, tuple, set, frozenset)):
        return _size_sequence
    return _size_unsupported


#: concrete type -> sizing handler, filled lazily
_DISPATCH: dict[type, Any] = {}


def payload_sizes(obj: Any) -> tuple[int, int]:
    """Return ``(nbytes, n_tensors)`` for an RPC argument/result structure."""
    tp = obj.__class__
    handler = _DISPATCH.get(tp)
    if handler is None:
        handler = _DISPATCH[tp] = _resolve_handler(tp)
    return handler(obj)


def request_payload_sizes(args: tuple, kwargs: dict) -> tuple[int, int]:
    """Size a call's ``(args, kwargs)`` without building wrapper containers.

    Byte- and tensor-identical to ``payload_sizes([list(args), kwargs])``
    (containers themselves are free), minus the per-call list allocation.
    """
    nbytes = n_tensors = 0
    for item in args:
        ib, it = payload_sizes(item)
        nbytes += ib
        n_tensors += it
    for key, value in kwargs.items():
        kb, kt = payload_sizes(key)
        vb, vt = payload_sizes(value)
        nbytes += kb + vb
        n_tensors += kt + vt
    return nbytes, n_tensors


def size_class(nbytes: int) -> int:
    """Pool size class for a tensor: next power of two, floored at 64 B."""
    if nbytes <= _MIN_POOL_CLASS:
        return _MIN_POOL_CLASS
    return 1 << (nbytes - 1).bit_length()


def _iter_tensors(obj: Any) -> Iterator[np.ndarray]:
    """Yield the tensors a serialized structure would put on the wire.

    Mirrors :func:`payload_sizes`' walk: bare arrays count directly,
    payload objects enumerate themselves through ``rpc_tensors()`` (when
    they offer it — objects without it carry no poolable tensors, e.g.
    the pointer-passing ``VertexProp``), containers recurse, scalar
    leaves yield nothing.
    """
    if isinstance(obj, np.ndarray):
        yield obj
        return
    tensors = getattr(obj, "rpc_tensors", None)
    if tensors is not None:
        yield from tensors()
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _iter_tensors(key)
            yield from _iter_tensors(value)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from _iter_tensors(item)


class BufferPool:
    """Deterministic size-class pool for modeled response buffers.

    One pool per RPC server.  :meth:`stage` accounts the serialization of
    one response: every tensor borrows a buffer of its ``(dtype,
    size-class)`` — reusing a free one when available, growing inventory
    on a miss — and all buffers return to the free lists when the
    response has been staged (the transport owns the bytes after copy-out,
    so the buffers are immediately reusable).

    Determinism: inventory per class only ever grows to the largest
    demand a *single* response has exhibited, so total misses (and
    therefore hits and reused bytes) are independent of the order in
    which responses are served — the property the cross-runtime
    differential tests rely on.

    ``enabled=False`` short-circuits :meth:`stage` to a single attribute
    check (zero overhead when off).
    """

    __slots__ = ("enabled", "_free", "_inventory",
                 "requests", "hits", "misses", "bytes_reused")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        #: (dtype str, size class) -> currently returned buffer count
        self._free: dict[tuple[str, int], int] = {}
        #: (dtype str, size class) -> total buffers ever allocated
        self._inventory: dict[tuple[str, int], int] = {}
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.bytes_reused = 0

    def stage(self, result: Any, metrics=None) -> None:
        """Borrow/return pooled buffers for one serialized response."""
        if not self.enabled:
            return
        borrowed: list[tuple[str, int]] = []
        hits = reused = 0
        for arr in _iter_tensors(result):
            key = (arr.dtype.str, size_class(int(arr.nbytes)))
            free = self._free.get(key, 0)
            if free:
                self._free[key] = free - 1
                hits += 1
                reused += key[1]
            else:
                self._inventory[key] = self._inventory.get(key, 0) + 1
            borrowed.append(key)
        for key in borrowed:
            self._free[key] = self._free.get(key, 0) + 1
        n = len(borrowed)
        if not n:
            return
        self.requests += n
        self.hits += hits
        self.misses += n - hits
        self.bytes_reused += reused
        if metrics is not None:
            metrics.inc("rpc.pool.requests", n)
            metrics.inc("rpc.pool.hits", hits)
            metrics.inc("rpc.pool.misses", n - hits)
            metrics.inc("rpc.pool.bytes_reused", reused)

    def nbytes(self) -> int:
        """Resident bytes across all pooled buffers (memory accounting)."""
        return sum(cls * count
                   for (_, cls), count in self._inventory.items())
