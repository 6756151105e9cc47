"""docs/extending.md is executable: its Python blocks run here, in order.

The guide's example driver (hop distances through ``fetch_round``) is run
on both runtimes against a single-machine BFS, and its ``lost=`` example
under the fault plan it names.  A snippet that drifts from the API — the
pre-PR-18 ``state.abandon(ids[j], shards[j])`` survived two PRs in the old
text — fails this test instead.
"""

import pathlib
import re

import numpy as np
import pytest

from repro.graph import powerlaw_cluster
from repro.walk.bfs import single_machine_bfs

DOC = pathlib.Path(__file__).resolve().parent.parent / "docs" / "extending.md"


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", DOC.read_text(), flags=re.S)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster(600, 5, mixing=0.3, seed=2)


def test_the_guide_has_the_blocks_this_test_runs():
    blocks = python_blocks()
    assert len(blocks) == 4
    assert "def reach(" in blocks[0] and "fetch_round(" in blocks[0]
    assert "lost=" in blocks[3]


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_example_driver_matches_single_machine_bfs(graph, runtime):
    ns = {"graph": graph, "runtime": runtime}
    for block in python_blocks():
        exec(compile(block, str(DOC), "exec"), ns)

    want = single_machine_bfs(graph, 0)
    reached = np.flatnonzero(want >= 0)
    assert len(reached) > 100
    assert ns["hops"] == dict(zip(reached.tolist(), want[reached].tolist()))

    # the engine-facade block ran a real batch
    assert ns["run"].n_queries == 64 and len(ns["run"].states) == 64

    # the lost= block: the run completed, wrote batches off, and what it
    # still reached it reached no earlier than the healthy run did
    assert len(ns["unreachable"]) > 0
    assert all(len(part) > 0 for part in ns["unreachable"])
    healthy = ns["state"].hops
    for node, hop in ns["degraded"].hops.items():
        assert hop >= healthy[node]
