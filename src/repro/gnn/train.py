"""Distributed GNN training with on-the-fly PPR sampling — Figure 7.

One training process per machine, each holding a model replica (the paper
uses one GPU per machine with ``DistributedDataParallel``).  Per step:

1. run top-K SSPPR for the step's ego nodes through the PPR engine;
2. ``convert_batch``: induce the subgraph + slice cross-machine features;
3. forward/backward on the local replica;
4. all-reduce gradients (the DDP synchronization point);
5. Adam step — replicas stay bit-identical because they apply the same
   averaged gradients.

The model is Figure 7's one: a two-layer ShaDow-SAGE, every replica built
from the same seed.

The whole loop runs on the virtual-time cluster, so training throughput and
the share of time spent in PPR sampling are measurable the same way as
SSPPR benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.cluster import SimCluster
from repro.engine.config import EngineConfig
from repro.gnn.data import Batch
from repro.gnn.model import ShadowSage
from repro.gnn.optim import Adam
from repro.gnn.sampler import convert_batch, topk_ppr_nodes
from repro.graph.csr import CSRGraph
from repro.ppr.distributed import OptLevel, distributed_sppr_query
from repro.ppr.params import PPRParams
from repro.simt.compute import COMPUTE
from repro.simt.events import Wait
from repro.storage.build import build_shards
from repro.storage.dist_storage import DistGraphStorage
from repro.storage.feature_store import DistFeatureStore, split_features
from repro.utils.rng import rng_from_seed
from repro.utils.validation import check_positive


@dataclass
class TrainingHistory:
    """Per-step records from one distributed training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    makespan: float = 0.0
    steps: int = 0
    #: final parameter snapshots, one per machine replica (DDP keeps these
    #: bit-identical; tests assert it)
    replica_states: list = field(default_factory=list)

    def final_accuracy(self) -> float:
        """Mean accuracy over the last five steps."""
        if not self.accuracies:
            return 0.0
        return float(np.mean(self.accuracies[-5:]))


def gnn_training_driver(g: DistGraphStorage, feats: DistFeatureStore, proc,
                        ctx, sharded, model: ShadowSage, labels: np.ndarray,
                        ego_batches: list[np.ndarray], params: PPRParams,
                        *, topk: int, lr: float, world_size: int,
                        worker_name: str, records: list):
    """Coroutine: one machine's replica through all its mini-batches."""
    optimizer = Adam(model.parameters(), lr=lr)
    ego_ids = sharded.nodes_of(
        np.concatenate(ego_batches) if ego_batches else np.empty(0, np.int64)
    )
    offset = 0
    with proc.span("train_epoch", n_steps=len(ego_batches)):
        for step, egos in enumerate(ego_batches):
            with proc.span("train_step", step=step):
                # (1) top-K SSPPR per ego through the PPR engine
                node_sets = []
                for i in range(len(egos)):
                    state = yield from distributed_sppr_query(
                        g, proc, int(ego_ids[offset + i]), params,
                        opt=OptLevel.OVERLAP
                    )
                    node_sets.append(topk_ppr_nodes(state.query(0), sharded,
                                                    topk,
                                                    include=egos[i:i + 1]))
                offset += len(egos)
                node_set = np.unique(np.concatenate(node_sets))

                # (2) convert_batch: induced subgraph + cross-machine features
                batch: Batch = yield from convert_batch(
                    sharded, g, feats, node_set, egos, labels[egos]
                )

                # (3) local forward/backward, charged with (5)'s step
                model.zero_grad()
                loss, acc = model.loss_and_grad(batch)
                proc.compute("train_compute", COMPUTE.train(
                    batch.n_nodes, batch.adj.nnz))

                # (4) DDP gradient synchronization
                flat = model.flatten_grads()
                mean_grad = yield Wait(ctx.allreduce_mean(
                    f"ddp:step{step}", worker_name, world_size, flat
                ))
                model.load_flat_grads(mean_grad)

                # (5) replicas apply identical averaged gradients
                optimizer.step()
            records.append((step, loss, acc))
    return len(ego_batches)


def run_distributed_training(graph: CSRGraph, features: np.ndarray,
                             labels: np.ndarray,
                             config: EngineConfig | None = None, *,
                             n_steps: int = 8, batch_size: int = 8,
                             topk: int = 32, lr: float = 1e-2,
                             seed: int = 0) -> TrainingHistory:
    """Figure 7 end-to-end: returns the loss/accuracy history.

    One training process per machine (``procs_per_machine`` is ignored —
    DDP has a single replica per device).  Every replica starts from the
    same model seed, so parameters stay synchronized.
    """
    check_positive("n_steps", n_steps)
    check_positive("batch_size", batch_size)
    config = config if config is not None else EngineConfig(n_machines=2)
    params = PPRParams(epsilon=1e-5)
    rng = rng_from_seed(seed)

    partitioner = config.partitioner
    sharded = build_shards(graph, partitioner.partition(graph,
                                                        config.n_shards),
                           seed=config.seed)
    feature_shards = split_features(sharded, features)
    cluster = SimCluster(sharded, config)
    feat_rrefs = [
        cluster.ctx.create_remote(config.server_name(m), "features",
                                  lambda fs=feature_shards[m]: fs)
        for m in range(config.n_machines)
    ]

    # Per-machine ego batches: each machine trains on its own core nodes
    # (the owner-compute rule), batch_size egos per machine per step.
    n_classes = int(labels.max()) + 1
    records: list[tuple[int, float, float]] = []
    models: list[ShadowSage] = []
    world = config.n_machines
    for m in range(config.n_machines):
        core = sharded.shards[m].core_global
        degrees = np.diff(graph.indptr)
        candidates = core[degrees[core] > 0]
        if len(candidates) == 0:
            candidates = core
        batches = [
            rng.choice(candidates, size=min(batch_size, len(candidates)),
                       replace=False)
            for _ in range(n_steps)
        ]
        proc = cluster.worker(m, 0)
        name = proc.name
        g = DistGraphStorage(cluster.rrefs, m, name, compress=True)
        feats = DistFeatureStore(feat_rrefs, name)
        model = ShadowSage(features.shape[1], 32, n_classes, seed=0)
        models.append(model)
        body = gnn_training_driver(
            g, feats, proc, cluster.ctx, sharded,
            model, labels, batches, params, topk=topk, lr=lr,
            world_size=world, worker_name=name, records=records,
        )
        cluster.spawn_compute(m, 0, body)

    makespan = cluster.run()
    history = TrainingHistory(makespan=makespan, steps=n_steps,
                              replica_states=[m.state_copy() for m in models])
    # Average replicas' per-step metrics (they see different egos).
    for step in range(n_steps):
        step_records = [(l, a) for s, l, a in records if s == step]
        if step_records:
            history.losses.append(float(np.mean([l for l, _ in step_records])))
            history.accuracies.append(
                float(np.mean([a for _, a in step_records]))
            )
    return history

