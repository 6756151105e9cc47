"""``repro.gnn`` — the GNN-training case study (paper Section 4.5).

A NumPy re-creation of Figure 7's pipeline: distributed mini-batch training
of a ShaDow-SAGE model where every mini-batch subgraph is built *on the fly*
from top-K SSPPR scores computed by the PPR engine, features are sliced from
the cross-machine feature store, and gradients are synchronized with a
DistributedDataParallel-style all-reduce.

The neural side is deliberately small but real: a dense head and two mean-
aggregation SAGE convolutions with hand-written backward passes, softmax
cross-entropy and Adam — enough to demonstrate end-to-end learning on a
node-classification task without a deep-learning framework.
"""

from repro.gnn.data import Batch, community_task
from repro.gnn.layers import Linear, Parameter, SageConv, relu, relu_grad
from repro.gnn.model import ShadowSage
from repro.gnn.optim import Adam
from repro.gnn.sampler import convert_batch, topk_ppr_nodes
from repro.gnn.train import TrainingHistory, run_distributed_training

__all__ = [
    "Adam",
    "Batch",
    "Linear",
    "Parameter",
    "SageConv",
    "ShadowSage",
    "TrainingHistory",
    "community_task",
    "convert_batch",
    "relu",
    "relu_grad",
    "run_distributed_training",
    "topk_ppr_nodes",
]
