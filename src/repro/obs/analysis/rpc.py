"""RPC accounting over the client spans of a traced run.

Every remote call leaves one ``kind="client"`` span — on the virtual-time
scheduler and on real threads alike — whose attrs carry what no counter
keeps per call: endpoints, method, request size and tensor count.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.obs.spans import SpanTracer


def rpc_summary(tracer: SpanTracer, machine_of: Mapping[str, int]) -> dict:
    """Summarize the remote calls a traced run recorded.

    Answers what the paper's evaluation asks of its communication layer —
    how many requests, how many bytes, between which machines, with what
    payload shapes (Table 3-style analyses on arbitrary workloads).
    ``machine_of`` maps process names to machine ids (the mapping
    :func:`repro.obs.chrome_trace` takes).  Counts cover the *retained*
    client spans: with no span dropped by the tracer's cap,
    ``calls_remote`` equals the run's ``rpc.calls_remote`` counter and
    ``request_bytes_remote`` its ``rpc.request_bytes``.

    Returns ``calls_remote``, ``request_bytes_remote``, ``by_method``
    (method -> remote calls), ``machine_matrix`` (``[i][j]`` = requests
    from machine i to machine j; the diagonal is zero, same-machine calls
    take the shared-memory path and leave no client span) and
    ``payload_percentiles`` (request bytes at p50/p90/p99).
    """
    n_machines = max(machine_of.values(), default=-1) + 1
    matrix = np.zeros((n_machines, n_machines), dtype=np.int64)
    by_method: dict[str, int] = {}
    sizes: list[int] = []
    for span in tracer.by_kind("client"):
        method = span.attrs["method"]
        by_method[method] = by_method.get(method, 0) + 1
        sizes.append(span.attrs["request_nbytes"])
        matrix[machine_of[span.process], machine_of[span.attrs["owner"]]] += 1
    arr = np.asarray(sizes, dtype=np.float64)
    return {
        "calls_remote": len(sizes),
        "request_bytes_remote": int(sum(sizes)),
        "by_method": dict(sorted(by_method.items())),
        "machine_matrix": matrix.tolist(),
        "payload_percentiles": {
            p: float(np.percentile(arr, p)) if sizes else 0.0
            for p in (50, 90, 99)
        },
    }
