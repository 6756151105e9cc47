"""``repro.rpc`` — a PyTorch-RPC-like layer over the virtual-time runtime.

Mirrors the subset of ``torch.distributed.rpc`` the paper relies on:

* named **workers** (one storage-server worker per simulated machine plus
  one worker per computing process), see :class:`WorkerInfo`;
* **remote object creation** returning an :class:`RRef` (remote reference),
  the distributed shared pointer of Section 3.1;
* **asynchronous calls** (``rpc_async``) returning futures, so callers can
  overlap local compute with remote fetches;
* a **payload cost model**: every request/response is sized in bytes and in
  *tensor count*, because TensorPipe-style transports pay a per-tensor
  wrapping cost — the term the paper's CSR *Compress* optimization removes.

Two interchangeable executions (both a
:class:`~repro.rpc.worker.WorkerRegistry`, which owns the worker
registry, remote-object creation, retry-policy resolution and the
accounting of a remote call once; each adds its attempt loop):

* :class:`RpcContext` dispatches over :mod:`repro.simt` (virtual time,
  deterministic, used by all benchmarks);
* :class:`~repro.rpc.thread_runtime.ThreadRuntime` drives the *same*
  generator-coroutine code over real OS threads with blocking futures, used
  in tests to demonstrate the engine is correct under genuine concurrency.
"""

from repro.rpc.api import RpcContext
from repro.rpc.handlers import handler_surface, is_rpc_handler, rpc_handler
from repro.rpc.retry import RetryPolicy
from repro.rpc.rref import RRef
from repro.rpc.serialization import payload_sizes
from repro.rpc.thread_runtime import ThreadRuntime
from repro.rpc.worker import RpcServer, WorkerInfo

__all__ = [
    "RRef",
    "RetryPolicy",
    "RpcContext",
    "RpcServer",
    "ThreadRuntime",
    "WorkerInfo",
    "handler_surface",
    "is_rpc_handler",
    "payload_sizes",
    "rpc_handler",
]
