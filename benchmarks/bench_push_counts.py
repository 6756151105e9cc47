"""Ablation — push-count overhead of parallel vs sequential Forward Push.

Section 3.2.3: "Although the parallel version requires slightly more
'pushes' than the sequential version, the parallel Forward Push is
naturally suitable for request batching".  This bench measures exactly that
trade: total pushes and iteration counts for both schedules, confirming the
overhead is a modest constant factor while the iteration count (the number
of communication rounds a distributed run needs) collapses.

``Engine pushes`` runs the same sources through the distributed PPR Engine
(:func:`~repro.ppr.distributed.distributed_sppr_query`), so the overhead is
measured on the engine itself: it runs the parallel schedule, push for push.
"""

import numpy as np

from benchmarks import common
from benchmarks.common import engine_config, get_graph, get_sharded
from repro.engine import GraphEngine, RunRequest
from repro.ppr import PPRParams, forward_push_parallel, forward_push_sequential

DATASETS = ("products", "friendster")
PARAMS = PPRParams(epsilon=1e-5)
N_SOURCES = 3
N_MACHINES = 4


def run_dataset(name: str) -> dict:
    graph = get_graph(name)
    rng = np.random.default_rng(43)
    sources = rng.choice(np.flatnonzero(graph.out_degree() > 0),
                         size=N_SOURCES, replace=False)
    seq_pushes = par_pushes = 0
    seq_rounds = par_rounds = 0
    for s in sources:
        _, _, seq = forward_push_sequential(graph, int(s), PARAMS)
        _, _, par = forward_push_parallel(graph, int(s), PARAMS)
        seq_pushes += seq.n_pushes
        par_pushes += par.n_pushes
        seq_rounds += seq.n_iterations   # one vertex per round
        par_rounds += par.n_iterations   # one frontier per round
    sharded = get_sharded(name, N_MACHINES)
    engine = GraphEngine(graph, engine_config(N_MACHINES), sharded=sharded)
    run = engine.run(RunRequest(sources=sources, params=PARAMS,
                                keep_states=True))
    engine_pushes = sum(view.multi.n_pushes for view in run.states.values())
    return {
        "Dataset": name,
        "Seq pushes": seq_pushes,
        "Par pushes": par_pushes,
        "Engine pushes": engine_pushes,
        "Push overhead": round(par_pushes / seq_pushes, 3),
        "Seq rounds": seq_rounds,
        "Par rounds": par_rounds,
        "Round reduction": round(seq_rounds / max(par_rounds, 1)),
    }


# "slightly more pushes": bounded overhead, while communication rounds
# collapse by orders of magnitude — all counters, hence deterministic;
# the magnitude claims assume full-size graphs
EXPECTATIONS = [
    {"kind": "per_row", "label": "the engine makes the parallel pushes",
     "left_col": "Engine pushes", "op": "eq", "right_col": "Par pushes",
     "scales": "all"},
    {"kind": "bounds", "label": "parallel push overhead bounded",
     "col": "Push overhead", "lo": 1.0, "hi": 3.0, "scales": ["full"]},
    {"kind": "per_row", "label": "communication rounds collapse",
     "left_col": "Round reduction", "op": "gt", "right": 10,
     "scales": ["full"]},
]


def test_push_counts(benchmark):
    rows = common.run_once(
        benchmark, lambda: [run_dataset(name) for name in DATASETS]
    )
    common.publish(
        "push_counts",
        "Parallel vs sequential Forward Push: pushes and rounds",
        rows, key=("Dataset",),
        expectations=EXPECTATIONS,
    )
    for row in rows:
        benchmark.extra_info[row["Dataset"]] = (
            f"overhead={row['Push overhead']} "
            f"rounds {row['Seq rounds']} -> {row['Par rounds']}"
        )
