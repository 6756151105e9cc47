"""Scalability sweep — Figure 5 in miniature, plus the crossover story.

Three quick studies on one stand-in dataset:

1. machine scaling (Figure 5a): throughput and remote-traffic share as the
   cluster grows;
2. process scaling (Figure 5b): strong vs weak scaling of computing
   processes;
3. the engine-vs-tensor crossover: how the hashmap engine's advantage over
   the dense tensor baseline grows with graph size (the scale phenomenon
   behind the paper's 83-1085x headline numbers).

Run:  python examples/scalability_sweep.py
"""

import numpy as np

from repro import EngineConfig, GraphEngine, PPRParams, RunRequest, load_dataset
from repro.graph import powerlaw_cluster
from repro.partition import HashPartitioner, MetisLitePartitioner


def machine_scaling() -> None:
    print("=== machine scaling (Figure 5a) ===")
    graph = load_dataset("products", scale=0.2)
    for k in (2, 4, 8):
        cfg = EngineConfig(n_machines=k,
                           partitioner=MetisLitePartitioner(seed=0))
        engine = GraphEngine(graph, cfg)
        run = engine.run(RunRequest(n_queries=16, seed=3))
        share = run.remote_requests / max(
            run.remote_requests + run.local_calls, 1
        )
        print(f"  {k} machines: {run.throughput:>7.1f} q/s, "
              f"remote-call share {share:.0%}")


def process_scaling() -> None:
    print("\n=== process scaling (Figure 5b) ===")
    graph = load_dataset("products", scale=0.2)
    base = None
    for procs in (1, 2, 4, 8):
        cfg = EngineConfig(n_machines=2, procs_per_machine=procs,
                           partitioner=MetisLitePartitioner(seed=0))
        engine = GraphEngine(graph, cfg)
        strong = engine.run(RunRequest(n_queries=32, seed=5))
        weak = engine.run(RunRequest(n_queries=8 * procs * 2, seed=7))
        if base is None:
            base = (strong.throughput, weak.throughput)
        print(f"  {procs} procs/machine: strong {strong.throughput:>7.1f} q/s "
              f"({strong.throughput / base[0]:.1f}x), "
              f"weak {weak.throughput:>7.1f} q/s "
              f"({weak.throughput / base[1]:.1f}x)")


def crossover() -> None:
    print("\n=== engine vs tensor baseline: the scale effect ===")
    params = PPRParams()
    for n in (20_000, 80_000, 320_000):
        graph = powerlaw_cluster(n, 12, exponent=2.3, max_degree=500,
                                 mixing=0.1, seed=5)
        engine = GraphEngine(graph, EngineConfig(
            n_machines=4, partitioner=HashPartitioner()
        ))
        run_e = engine.run(RunRequest(n_queries=4, seed=7, params=params,
                                   keep_states=True))
        run_t = engine.run(RunRequest(
            sources=np.array(sorted(run_e.states)), seed=7, params=params,
            mode="tensor",
        ))
        print(f"  |V|={n:>7,}: engine {run_e.throughput:>7.1f} q/s, "
              f"tensor {run_t.throughput:>7.1f} q/s, "
              f"ratio {run_e.throughput / run_t.throughput:.2f}x")
    print("  (the ratio keeps widening with |V| — at the paper's "
          "2.5M-111M nodes it reaches 83-1085x)")


if __name__ == "__main__":
    machine_scaling()
    process_scaling()
    crossover()
