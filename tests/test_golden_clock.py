"""Golden virtual clock: absolute virtual times may never move.

``tests/test_determinism.py`` compares runs with each other; this file
compares them with recorded values.  ``tests/fixtures/golden_clock.json``
holds, for one small fixed deployment, every virtual number a run reports
— ``makespan``, ``per_proc_clocks``, ``phases``, ``latencies``, the
``rpc.*`` counters — plus the scheduler's ``events_executed``, for the
``engine``, ``batched`` and ``tensor`` modes and for one chaos run (a drop
plan with a crash window under a ``RetryPolicy``, ``SKIP_REMOTE``).  The
floats are compared exactly: compute is charged from counts
(``repro.simt.compute``), so a change to the scheduler, the RPC layer or
the round driver that reorders an event or reassociates a sum shows here.

Regenerate only for a change that is *meant* to move virtual time (a
``COMPUTE`` refit, a new network model):
``PYTHONPATH=src python -m tests.test_golden_clock > tests/fixtures/golden_clock.json``.
"""

import json
import sys
from pathlib import Path

import pytest

import repro.serving.session as session_mod
from repro.engine import EngineConfig, GraphEngine, RunRequest
from repro.graph import powerlaw_cluster
from repro.ppr import DegradationMode, PPRParams
from repro.rpc import RetryPolicy
from repro.simt import CrashWindow, FaultPlan

FIXTURE = Path(__file__).parent / "fixtures" / "golden_clock.json"
PARAMS = PPRParams(epsilon=1e-5)

CASES = {
    "engine": dict(mode="engine"),
    "batched": dict(mode="batched"),
    "tensor": dict(mode="tensor"),
    "chaos": dict(
        mode="engine",
        fault_plan=FaultPlan(seed=5, drop_prob=0.1, crashes=(
            CrashWindow("server:1", 0.0004, 0.01),)),
        retry_policy=RetryPolicy(max_attempts=2, timeout=0.002),
        degradation=DegradationMode.SKIP_REMOTE),
}


def _engine() -> GraphEngine:
    graph = powerlaw_cluster(300, 5, mixing=0.4, seed=13)
    return GraphEngine(graph, EngineConfig(n_machines=3, procs_per_machine=1,
                                           seed=0))


def _clock(engine: GraphEngine, case: str) -> dict:
    """One run's virtual numbers, as the fixture spells them (JSON keys
    are strings, so latencies are keyed by ``str(source)``)."""
    clusters = []
    real_deploy = session_mod.deploy

    def recording_deploy(*args, **kwargs):
        clusters.append(real_deploy(*args, **kwargs))
        return clusters[-1]

    request = RunRequest(n_queries=6, seed=3, params=PARAMS, **CASES[case])
    session_mod.deploy = recording_deploy
    try:
        run = engine.run(request)
    finally:
        session_mod.deploy = real_deploy
    (cluster,) = clusters
    return {
        "makespan": run.makespan,
        "per_proc_clocks": dict(sorted(run.per_proc_clocks.items())),
        "phases": dict(sorted(run.phases.items())),
        "latencies": {str(k): v for k, v in sorted(run.latencies.items())},
        "rpc": {k: v for k, v in sorted(run.metrics.items())
                if k.startswith("rpc.")},
        "events_executed": cluster.scheduler.events_executed,
    }


@pytest.fixture(scope="module")
def engine():
    return _engine()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_virtual_clock_matches_the_golden(engine, golden, case):
    got = json.loads(json.dumps(_clock(engine, case)))
    assert got == golden[case]


def test_chaos_case_exercises_the_fault_layer(golden):
    """The chaos row pins retries, timeouts and give-ups, not a healthy run."""
    rpc = golden["chaos"]["rpc"]
    assert rpc["rpc.dropped_messages"] > 0
    assert rpc["rpc.retries"] > 0 and rpc["rpc.timeouts"] > 0
    assert rpc["rpc.giveups"] > 0


if __name__ == "__main__":  # regenerate: see the module docstring
    eng = _engine()
    json.dump({case: _clock(eng, case) for case in CASES}, sys.stdout,
              indent=1)
    sys.stdout.write("\n")
