"""``--seed`` is the only source of variation in the generated inputs."""

import numpy as np
import pytest

from perfbench import workloads
from perfbench.spec import WORKLOADS


def _flatten(value):
    """Inputs as nested tuples of plain values, comparable with ``==``."""
    if isinstance(value, dict):
        return tuple((k, _flatten(v)) for k, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_flatten(v) for v in value)
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    if hasattr(value, "src"):  # UpdateBatch
        return tuple(_flatten(getattr(value, f))
                     for f in ("src", "dst", "weight", "op"))
    if hasattr(value, "query"):  # Arrival
        return (value.time, value.tenant, value.query)
    return value


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.name)
def test_same_seed_same_inputs(spec, quick_graph):
    from repro import load_dataset

    from perfbench.worker import QUICK_SCALE

    graph = quick_graph if spec.dataset == "products" else load_dataset(
        spec.dataset, scale=QUICK_SCALE)
    driver = workloads.make(spec)
    dep = driver.deploy(graph, {})
    first = _flatten(driver.make_inputs(graph, dep, seed=5))
    again = _flatten(driver.make_inputs(graph, driver.deploy(graph, {}),
                                        seed=5))
    other = _flatten(driver.make_inputs(graph, dep, seed=6))
    assert first == again
    assert first != other
