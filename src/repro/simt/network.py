"""Network cost model for simulated RPC transfers.

The paper's communication substrate is PyTorch RPC over TensorPipe, which it
characterizes as "designed for transferring large tensors with relatively low
frequency": each request pays a fixed dispatch overhead, each tensor in a
payload pays a wrapping/registration cost, and bulk bytes stream at high
bandwidth.  This model captures exactly those three terms plus a propagation
latency:

``transfer_time(nbytes, n_tensors) =
    rpc_overhead + n_tensors * tensor_wrap_cost + nbytes / bandwidth + latency``

The defaults are calibrated to a 100 Gbps-class interconnect with a
TensorPipe-like per-message cost, matching the paper's assumption that remote
communication on a fast cluster costs about the same as cross-socket shared
memory.  The relative magnitudes are what matter for reproducing the paper's
*shapes*: per-request overhead dominates for many small messages (hence RPC
batching wins), per-tensor cost dominates for list-of-small-tensor responses
(hence CSR compression wins).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class NetworkModel:
    """Cost model for one-way message transfer between simulated machines.

    Parameters
    ----------
    rpc_overhead:
        Fixed per-request dispatch cost in seconds (Python->RPC stack entry,
        scheduling, socket syscall).  Default 100 us.
    tensor_wrap_cost:
        Per-tensor serialization/registration cost in seconds.  Default 15 us;
        this is the term the paper's *Compress* optimization attacks by
        replacing a list of per-node tensors with five CSR arrays.
    bandwidth:
        Link bandwidth in bytes/second.  Default 12.5 GB/s (100 Gbps).
    latency:
        One-way propagation delay in seconds.  Default 10 us.
    local_call_overhead:
        Cost of a local (same-machine) storage call through the Python
        binding layer, in seconds.  Local fetches bypass the network but
        still cross the binding boundary once per call.  Default 2 us.
    """

    rpc_overhead: float = 100e-6
    tensor_wrap_cost: float = 15e-6
    bandwidth: float = 12.5e9
    latency: float = 10e-6
    local_call_overhead: float = 2e-6

    def __post_init__(self) -> None:
        check_nonnegative("rpc_overhead", self.rpc_overhead)
        check_nonnegative("tensor_wrap_cost", self.tensor_wrap_cost)
        check_positive("bandwidth", self.bandwidth)
        check_nonnegative("latency", self.latency)
        check_nonnegative("local_call_overhead", self.local_call_overhead)

    def transfer_time(self, nbytes: int, n_tensors: int) -> float:
        """One-way time to move a payload of ``nbytes`` in ``n_tensors`` tensors."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if n_tensors < 0:
            raise ValueError(f"n_tensors must be >= 0, got {n_tensors}")
        return (
            self.rpc_overhead
            + n_tensors * self.tensor_wrap_cost
            + nbytes / self.bandwidth
            + self.latency
        )

    def send_overhead(self) -> float:
        """Caller-side cost of *issuing* an async request.

        The caller is released after the local dispatch cost; propagation and
        serialization proceed off the caller's timeline (TensorPipe moves the
        payload on background threads).
        """
        return self.rpc_overhead

    @classmethod
    def instant(cls) -> "NetworkModel":
        """A near-zero-cost model for functional tests."""
        return cls(rpc_overhead=0.0, tensor_wrap_cost=0.0,
                   bandwidth=1e18, latency=0.0, local_call_overhead=0.0)
