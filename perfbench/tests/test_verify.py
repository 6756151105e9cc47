"""The output checks pass on right answers and fail on wrong ones."""

import numpy as np

from repro import PPRParams

from perfbench import verify, workloads
from perfbench.spec import WORKLOAD_BY_NAME


def _verified(name, graph, seed=4):
    driver = workloads.make(WORKLOAD_BY_NAME[name])
    dep = driver.deploy(graph, {})
    inputs = driver.make_inputs(graph, dep, seed)
    driver.warm(dep, inputs, {})
    tally = workloads.Tally()
    driver.step(dep, inputs, 0, tally)
    driver.verify(dep, inputs, tally)
    return driver, dep, tally


def test_every_driver_verifies_clean(quick_graph):
    for name in WORKLOAD_BY_NAME:
        if name == "ssppr_twitter":
            continue  # same driver as ssppr_products, bigger graph
        _, _, tally = _verified(name, quick_graph)
        assert tally.failed == 0, tally.failures
        assert tally.attempted > 0
        assert 0 < tally.l1_over_bound <= 1


def test_a_wrong_ppr_vector_fails(quick_graph):
    driver, dep, _ = _verified("ssppr_products", quick_graph)
    result = dep.engine.run(driver._request(np.array([7])))
    state = result.states[7]
    assert verify.check_sppr(quick_graph, dep.engine.sharded, driver.params,
                             {7: state})[0] == []
    state.ppr[:8] *= 0.5  # lose mass
    failures, _ = verify.check_sppr(quick_graph, dep.engine.sharded,
                                    driver.params, {7: state})
    assert len(failures) == 2  # mass and L1


def test_a_wrong_walk_fails(quick_graph):
    source = int(np.flatnonzero(np.diff(quick_graph.indptr) > 0)[0])
    hop = int(quick_graph.neighbors(source)[0])
    stranger = next(v for v in range(quick_graph.n_nodes)
                    if v != hop and not quick_graph.has_arc(hop, v))
    assert verify.check_walk(quick_graph, source, [source, hop], 1) == []
    assert verify.check_walk(quick_graph, source, [hop, source], 1)
    assert verify.check_walk(quick_graph, source, [source, hop], 2)
    assert verify.check_walk(quick_graph, source, [source, hop, stranger], 2)


def test_a_stale_published_vector_fails(quick_graph):
    from repro.ppr.incremental import IncrementalState

    params = PPRParams(alpha=0.2, epsilon=1e-5)
    state = IncrementalState.from_scratch(quick_graph, 3, params)
    assert verify.check_published(quick_graph, 3, params,
                                  state.p, state.r) == []
    assert verify.check_published(quick_graph, 3, params,
                                  state.p, state.r + 1e-3)
