"""Golden bitwise results: per-node ``(ppr, residual)`` may never move.

``tests/fixtures/golden_ppr.json`` holds sha256 digests of the key-sorted
``(keys, ppr, residual)`` bytes of every finished query state on one fixed
graph — :class:`~repro.ppr.ppr_ops.SSPPR` under all four ``OptLevel`` s and
:class:`~repro.ppr.multi_query.MultiSSPPR` at B = 1, 3, 16 — captured
*before* the paged slot table replaced the probing hash map.  Slot numbering
(hence ``results()`` enumeration order) is an implementation detail; the
value stored for a node is not, so states are compared in key order.

Regenerate only for a change that is *meant* to move results:
``PYTHONPATH=src python -m tests.test_golden_bitwise > tests/fixtures/golden_ppr.json``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.graph import powerlaw_cluster
from repro.ppr import OptLevel, PPRParams
from repro.serving.session import Session, SessionConfig

FIXTURE = Path(__file__).parent / "fixtures" / "golden_ppr.json"
PARAMS = PPRParams(epsilon=1e-6)
MULTI_BATCHES = (1, 3, 16)
N_SINGLE_SOURCES = 6


def _engine() -> GraphEngine:
    graph = powerlaw_cluster(600, 6, mixing=0.3, seed=5)
    # one computing process per machine: a "batched" run whose sources all
    # live on machine 0 is exactly one MultiSSPPR of B = len(sources)
    return GraphEngine(graph, EngineConfig(n_machines=3,
                                           procs_per_machine=1))


def _digest(states) -> str:
    """sha256 over the states' key-sorted (keys, ppr, residual) bytes."""
    h = hashlib.sha256()
    for state in states:
        n = len(state.map)
        keys = state.map.keys()
        order = np.argsort(keys)
        for column in (keys, state.ppr[:n], state.residual[:n]):
            h.update(np.ascontiguousarray(column[order]).tobytes())
    return h.hexdigest()


def _run(engine, request, runtime: str):
    if runtime == "sim":
        return engine.run(request)
    return Session(engine, SessionConfig(runtime="threads")).run(request)


def compute_digests(runtime: str) -> dict[str, str]:
    engine = _engine()
    owner = engine.sharded.owner_shard
    spread = np.arange(N_SINGLE_SOURCES, dtype=np.int64) * 97 % len(owner)
    on_machine0 = np.flatnonzero(owner == 0)
    out = {}
    for opt in OptLevel:
        result = _run(engine, RunRequest(
            sources=spread, params=PARAMS, opt=opt, keep_states=True,
        ), runtime)
        out[f"ssppr.{opt.value}"] = _digest(
            result.states[g] for g in spread.tolist())
    for b in MULTI_BATCHES:
        sources = on_machine0[:b]
        result = _run(engine, RunRequest(
            sources=sources, params=PARAMS, mode="batched",
        ), runtime)
        multis = {id(v.multi): v.multi for v in result.states.values()}
        assert len(multis) == 1 and next(iter(multis.values())).n_queries == b
        out[f"multi.B{b}"] = _digest(multis.values())
    return out


@pytest.mark.parametrize("runtime", ["sim", "threads"])
def test_results_match_golden_digests(runtime):
    assert compute_digests(runtime) == json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    print(json.dumps(compute_digests("sim"), indent=2))
