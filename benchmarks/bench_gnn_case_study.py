"""Section 4.5 case study — distributed GNN training with PPR sampling.

The paper demonstrates integration rather than a table: ShaDow-SAGE trained
with on-the-fly top-K SSPPR subgraphs, DistributedDataParallel gradient
sync, one replica per machine.  This bench runs the full Figure 7 pipeline
on a planted-community classification task and reports training throughput
plus the learning curve — asserting the end-to-end signal: the model learns
(loss falls, accuracy clears random), which requires every stage (PPR
sampling, convert_batch, feature store, all-reduce) to be wired correctly.
"""

from benchmarks import common
from benchmarks.common import bench_scale
from repro.engine import EngineConfig
from repro.gnn import community_task, run_distributed_training
from repro.graph import powerlaw_cluster
from repro.partition import MetisLitePartitioner

N_COMMUNITIES = 8


def run_case_study() -> dict:
    scale = bench_scale()
    n_nodes = {"tiny": 600, "small": 1500, "full": 4000}[scale.name]
    graph = powerlaw_cluster(n_nodes, 10, mixing=0.08,
                             n_communities=N_COMMUNITIES, seed=53)
    feats, labels = community_task(n_nodes, N_COMMUNITIES, 16, noise=0.4,
                                   seed=54)
    cfg = EngineConfig(n_machines=2,
                       partitioner=MetisLitePartitioner(seed=0))
    history = run_distributed_training(
        graph, feats, labels, cfg, n_steps=12, batch_size=8, topk=24,
        lr=2e-2, seed=55,
    )
    steps_total = history.steps * cfg.n_machines
    return {
        "Nodes": n_nodes,
        "Steps/replica": history.steps,
        "First loss": round(history.losses[0], 3),
        "Final loss": round(history.losses[-1], 3),
        "Final acc": round(history.final_accuracy(), 3),
        "Random acc": round(1 / N_COMMUNITIES, 3),
        "Train thpt (steps/s)": round(steps_total / history.makespan, 2),
        "_history": history,
    }


# the end-to-end learning signal: loss falls, accuracy clears random
EXPECTATIONS = [
    {"kind": "per_row", "label": "loss falls over training",
     "left_col": "Final loss", "op": "lt", "right_col": "First loss",
     "scales": ["full"]},
    {"kind": "per_row", "label": "accuracy clears 2x random",
     "left_col": "Final acc", "op": "gt", "right_col": "Random acc",
     "factor": 2.0, "scales": ["full"]},
]


def test_gnn_case_study(benchmark):
    row = common.run_once(benchmark, run_case_study)
    history = row.pop("_history")
    common.publish(
        "gnn_case_study",
        "Figure 7 case study: ShaDow-SAGE + PPR sampling (2 machines, DDP)",
        [row], key=("Nodes",),
        expectations=EXPECTATIONS,
    )
    print("loss curve:", [round(x, 3) for x in history.losses])
    print("acc curve: ", [round(x, 3) for x in history.accuracies])
    benchmark.extra_info["final_acc"] = row["Final acc"]
    benchmark.extra_info["train_thpt"] = row["Train thpt (steps/s)"]
