"""The wall-clock benchmark's surface must keep working.

``perfbench``'s traced pass patches ``src/repro`` callables *by name*
(``perfbench.trace.TARGETS``) and its drivers read results through public
attributes (``state.map.probe_rounds``, ``n_pushes``, ``view.multi``,
``dense_result``, ``sample_sources`` ...), and ``perfbench/tests`` is not
part of the tier-1 selection — so a rename or a changed result shape under
``src/repro`` has to fail here, not in the benchmark driver.
"""

import pytest

from perfbench import workloads
from perfbench.spec import DEFAULT_SEED, WORKLOADS
from perfbench.trace import TARGETS, _resolve
from repro.graph import powerlaw_cluster


def test_every_trace_site_resolves():
    broken = []
    for span, sites in TARGETS.items():
        for module, path in sites:
            try:
                owner, attr, _raw = _resolve(module, path)  # the pass's lookup
                ok = callable(getattr(owner, attr))
            except (ImportError, AttributeError, KeyError) as exc:
                ok = False
                path = f"{path} ({type(exc).__name__}: {exc})"
            if not ok:
                broken.append(f"{span}: {module}:{path}")
    assert not broken, "unresolvable perfbench trace sites:\n" + \
        "\n".join(broken)


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda spec: spec.name)
def test_workload_drives_end_to_end(spec):
    """Every declared workload's five steps on a small graph: deploy,
    generated inputs, warm-up, one timed-region step (with its count
    harvest) and the output verification — nothing may fail."""
    graph = powerlaw_cluster(600, 5, mixing=0.3, seed=3)
    workload = workloads.make(spec)
    phases: dict = {}
    dep = workload.deploy(graph, phases)
    inputs = workload.make_inputs(graph, dep, DEFAULT_SEED)
    workload.warm(dep, inputs, phases)
    tally = workloads.Tally()
    before = workload.snapshot(dep)
    assert workload.step(dep, inputs, 0, tally)
    workload.finish(dep, before, tally)
    workload.verify(dep, inputs, tally)
    assert tally.failed == 0, tally.failures
    assert tally.attempted > 0 and tally.ops > 0
    if spec.name != "tensor_products":  # the dense baseline has no table
        assert tally.sums["ppr.touched"] > 0
        assert tally.sums["hashmap.probe_rounds"] > 0
