"""``repro.ppr`` — SSPPR computation: Forward Push engines and baselines.

Implements every PPR method the paper evaluates:

* :class:`ShardedMap` (:mod:`~repro.ppr.hashmap`) — a vectorized
  direct-address slot table, key-indexed for a small declared domain and
  lazily paged otherwise, standing in for the lock-free parallel-hashmap
  the paper's C++ operators build on;
* :class:`MultiSSPPR` (:mod:`~repro.ppr.multi_query`) — the one
  slot-table push state: the local PPR operators ``pop`` / ``push`` of
  Section 3.3 ("PPR Ops") over a lockstep batch of queries, with per-query
  ``skip_remote`` accounting and one :class:`QueryView` per query;
  :class:`SSPPR` (:mod:`~repro.ppr.ppr_ops`) is its batch of one;
* :class:`DenseSSPPR` (:mod:`~repro.ppr.tensor_ops`) — the dense
  tensor-based state used by the "PyTorch Tensor" baseline, whose per-
  iteration cost is proportional to |V|;
* :func:`power_iteration_ssppr` — the high-precision "DGL SpMM" baseline
  (ground truth at eps' = 1e-10);
* sequential (Algorithm 1) and single-machine parallel Forward Push
  references for correctness cross-checks and the push-count ablation;
* the distributed drivers of Figure 4 (:mod:`~repro.ppr.distributed`) —
  one for the engine, one or many queries per state, with the Single /
  +Batch / +Compress / +Overlap optimization levels of Table 3, and the
  tensor baseline's;
* accuracy utilities (top-k precision vs ground truth).
"""

from repro.ppr.accuracy import l1_error, topk_nodes, topk_precision
from repro.ppr.distributed import (
    DegradationMode,
    OptLevel,
    distributed_sppr_query,
    distributed_tensor_query,
)
from repro.ppr.fora import fora_ssppr
from repro.ppr.forward_push_parallel import forward_push_parallel
from repro.ppr.forward_push_seq import forward_push_sequential
from repro.ppr.hashmap import ShardedMap
from repro.ppr.monte_carlo import monte_carlo_ssppr
from repro.ppr.multi_query import MultiSSPPR, QueryView
from repro.ppr.params import PPRParams
from repro.ppr.power_iteration import power_iteration_ssppr
from repro.ppr.ppr_ops import SSPPR
from repro.ppr.tensor_ops import DenseSSPPR

__all__ = [
    "DegradationMode",
    "DenseSSPPR",
    "MultiSSPPR",
    "OptLevel",
    "PPRParams",
    "QueryView",
    "SSPPR",
    "ShardedMap",
    "fora_ssppr",
    "distributed_sppr_query",
    "distributed_tensor_query",
    "forward_push_parallel",
    "forward_push_sequential",
    "l1_error",
    "monte_carlo_ssppr",
    "power_iteration_ssppr",
    "topk_nodes",
    "topk_precision",
]
