"""Output checks: does the program still compute the right answers?

Each function returns the list of failures it found (empty = correct);
the harness adds ``len(failures)`` to the run's ``failed`` count, so a
failed check and an exception cost the same.  The reference is the
repository's own sequential Algorithm 1
(:func:`repro.ppr.forward_push_sequential`), which shares no code with the
engine, tensor or batched operators.
"""

from __future__ import annotations

import numpy as np

from repro.ppr import forward_push_sequential
from repro.ppr.tensor_ops import DenseSSPPR

MASS_TOL = 1e-9


def dense_result(state, sharded, n_nodes: int) -> np.ndarray:
    """One query's PPR vector, whichever operator produced ``state``."""
    if isinstance(state, DenseSSPPR):  # already dense, global-id indexed
        return state.dense_result()
    return state.dense_result(sharded, n_nodes)


def mass_failure(source: int, state) -> str | None:
    """``sum(ppr) + sum(residual)`` must stay 1 (cheap, run on every op)."""
    mass = state.total_mass()
    if abs(mass - 1.0) > MASS_TOL:
        return f"source {source}: total mass {mass!r} != 1"
    return None


def check_sppr(graph, sharded, params, states: dict) -> tuple[list[str], float]:
    """Every state against the sequential reference.

    Both vectors are within ``eps * sum(wdeg)`` of the true PPR vector in
    L1, so they are within twice that of each other.  Returns the failures
    and the worst ``L1 / bound`` seen (a runtime-independent number).
    """
    bound = 2.0 * params.epsilon * float(np.sum(graph.weighted_degrees))
    failures: list[str] = []
    worst = 0.0
    for source, state in states.items():
        failure = mass_failure(source, state)
        if failure is not None:
            failures.append(failure)
        reference, _residual, _stats = forward_push_sequential(
            graph, int(source), params)
        l1 = float(np.abs(dense_result(state, sharded, graph.n_nodes)
                          - reference).sum())
        worst = max(worst, l1 / bound)
        if l1 > bound:
            failures.append(
                f"source {source}: L1 to reference {l1:.3e} > {bound:.3e}")
    return failures, worst


def check_walk(graph, source: int, row, walk_length: int) -> list[str]:
    """A walk row starts at its source and follows arcs of ``graph``."""
    row = np.asarray(row)
    if row.shape != (walk_length + 1,):
        return [f"walk from {source}: shape {row.shape}, "
                f"expected ({walk_length + 1},)"]
    if int(row[0]) != int(source):
        return [f"walk from {source}: starts at {int(row[0])}"]
    for u, v in zip(row[:-1].tolist(), row[1:].tolist()):
        neighbors = graph.neighbors(u)
        if len(neighbors) == 0:
            if v != u:
                return [f"walk from {source}: left dangling node {u}"]
        elif v not in neighbors:
            return [f"walk from {source}: {u}->{v} is not an arc"]
    return []


def check_published(graph, source: int, params, p, r) -> list[str]:
    """An incrementally maintained ``(p, r)`` against the final graph.

    After a refresh every residual is back under the push threshold, so
    ``|r|_1 <= eps * sum(wdeg)``, mass is conserved, and ``p`` is within
    the combined residual of a from-scratch push on the same graph.
    """
    failures: list[str] = []
    bound = params.epsilon * float(np.sum(graph.weighted_degrees))
    residual_l1 = float(np.abs(r).sum())
    if residual_l1 > bound + 1e-12:
        failures.append(f"published {source}: |r|_1 {residual_l1:.3e} > "
                        f"{bound:.3e}")
    mass = float(p.sum() + r.sum())
    if abs(mass - 1.0) > MASS_TOL:
        failures.append(f"published {source}: total mass {mass!r} != 1")
    reference, ref_residual, _stats = forward_push_sequential(
        graph, int(source), params)
    l1 = float(np.abs(p - reference).sum())
    allowed = residual_l1 + float(np.abs(ref_residual).sum()) + 1e-12
    if l1 > allowed:
        failures.append(f"published {source}: L1 to recompute {l1:.3e} > "
                        f"{allowed:.3e}")
    return failures
