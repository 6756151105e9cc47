"""Incremental Forward Push maintenance of published PPR vectors.

When the graph mutates under a published approximate PPR vector, the
pair ``(p, r)`` stops satisfying the Forward Push invariant

    r(t) = [t = s] - p(t)/alpha
           + (1-alpha)/alpha * sum_u p(u) * N_u(t)

where ``N_u`` is node ``u``'s normalized transition row (``weight(u,t) /
wdeg(u)``, with the dangling convention ``N_u = {u: 1}`` when
``wdeg(u) = 0`` — matching the absorb rule of
:func:`~repro.ppr.forward_push_seq.forward_push_sequential`).  Instead
of recomputing from scratch, :func:`refresh` restores the invariant by
*residual correction*: for every vertex ``u`` whose row changed since
the last refresh,

    r(t) += (1-alpha)/alpha * p(u) * (N_u_cur(t) - N_u_pre(t))

and then re-pushes the (now signed) residual with the standard strict
threshold ``|r(v)| > epsilon * wdeg(v)``.  After a refresh the usual
L1 guarantee holds: ``||p - pi||_1 <= ||r||_1 <= epsilon *
sum(wdeg)``, the same bound a from-scratch push publishes — so the
incremental and recomputed vectors agree within twice the published
accuracy bound.

Two exactness properties fall out of the *diff-first* construction
(corrections are computed from ``N_cur - N_pre`` per target, and a
bitwise-identical row contributes nothing at all):

* insert-then-delete of the same edges between refreshes restores the
  published ``(p, r)`` bitwise, and
* splitting or merging batches of the same stream (refreshing only at
  the end) yields bitwise-identical final vectors,

because pre-rows are captured at *first touch* since the last refresh.
Pre-row capture is the caller's job (:meth:`capture_pre_rows`) and must
happen against the pre-batch state of the mirror.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError
from repro.ppr.forward_push_seq import forward_push_sequential
from repro.ppr.params import PPRParams


@dataclass
class RefreshStats:
    """Work counters for one incremental refresh."""

    n_changed: int       # vertices with a captured pre-row
    n_corrections: int   # nonzero residual corrections applied
    n_pushes: int        # signed pushes to restore the threshold
    n_entries: int       # residual entries those pushes spread to
    residual_l1: float   # ||r||_1 after the refresh


class IncrementalState:
    """A published PPR vector plus the state needed to maintain it."""

    __slots__ = ("source", "params", "p", "r", "pre_rows")

    def __init__(self, source: int, params: PPRParams, p: np.ndarray,
                 r: np.ndarray) -> None:
        self.source = int(source)
        self.params = params
        self.p = np.asarray(p, dtype=np.float64)
        self.r = np.asarray(r, dtype=np.float64)
        #: rows as they were at the last refresh, captured at first touch:
        #: vertex -> (sorted neighbor gids, weights, weighted degree)
        self.pre_rows: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}

    @classmethod
    def from_scratch(cls, graph, source: int,
                     params: PPRParams) -> "IncrementalState":
        """Publish by running the sequential reference push."""
        p, r, _ = forward_push_sequential(graph, source, params)
        return cls(source, params, p, r)

    def capture_pre_rows(self, dyn, vertices) -> None:
        """Record pre-mutation rows for ``vertices`` (first touch wins).

        Must be called with the *pre-batch* state of ``dyn`` for every
        vertex the batch will change.  A vertex already captured since
        the last refresh keeps its original pre-row, so a sequence of
        batches folds into one net row diff at refresh time.
        """
        for v in sorted(int(v) for v in vertices):
            if v not in self.pre_rows:
                gids, wts = dyn.row(v)
                self.pre_rows[v] = (gids, wts, dyn.wdeg(v))


def _normalized_row(gids: np.ndarray, wts: np.ndarray, wdeg: float,
                    vertex: int) -> dict[int, float]:
    """Transition row ``N_u`` under the dangling self-loop convention."""
    if wdeg <= 0.0:
        return {vertex: 1.0}
    return {int(g): float(w) / wdeg for g, w in zip(gids, wts)}


def accuracy_bound(graph, params: PPRParams) -> float:
    """Published L1 accuracy bound ``epsilon * sum(wdeg)`` of one push."""
    return float(params.epsilon * np.sum(graph.weighted_degrees))


def refresh(state: IncrementalState, dyn, *,
            max_pushes: int | None = None) -> RefreshStats:
    """Fold captured row diffs into ``(p, r)`` and re-push to threshold.

    Mutates ``state`` in place and clears its captured pre-rows.
    """
    params = state.params
    alpha, eps = params.alpha, params.epsilon
    scale = (1.0 - alpha) / alpha
    p, r = state.p, state.r
    n = p.shape[0]
    if max_pushes is None:
        max_pushes = int(min(5e8, 500 * n / eps))

    # -- phase 1: residual corrections -------------------------------------
    n_corrections = 0
    seeds: set[int] = set()
    for u in sorted(state.pre_rows):
        seeds.add(u)  # threshold may have moved even if p[u] == 0
        p_u = p[u]
        if p_u == 0.0:
            continue
        pre_gids, pre_wts, pre_wdeg = state.pre_rows[u]
        cur_gids, cur_wts = dyn.row(u)
        cur_wdeg = dyn.wdeg(u)
        if (cur_wdeg == pre_wdeg and np.array_equal(cur_gids, pre_gids)
                and np.array_equal(cur_wts, pre_wts)):
            continue  # net no-op row: contributes exactly nothing
        n_pre = _normalized_row(pre_gids, pre_wts, pre_wdeg, u)
        n_cur = _normalized_row(cur_gids, cur_wts, cur_wdeg, u)
        for t in sorted(n_pre.keys() | n_cur.keys()):
            d = n_cur.get(t, 0.0) - n_pre.get(t, 0.0)
            if d == 0.0:
                continue
            r[t] += scale * (p_u * d)
            n_corrections += 1
            seeds.add(t)
    n_changed = len(state.pre_rows)
    state.pre_rows.clear()

    # -- phase 2: signed forward push back under the threshold --------------
    def over_threshold(vs: np.ndarray) -> np.ndarray:
        """Those of ``vs`` (in order) whose residual needs a push."""
        d, r_vs = dyn.wdeg_of(vs), r[vs]
        return vs[np.where(d > 0.0, np.abs(r_vs) > eps * d, r_vs != 0.0)]

    queued = np.zeros(n, dtype=bool)
    first = over_threshold(np.fromiter(sorted(seeds), dtype=np.int64,
                                       count=len(seeds)))
    queued[first] = True
    queue: deque[int] = deque(first.tolist())
    n_pushes = 0
    n_entries = 0
    while queue:
        v = queue.popleft()
        queued[v] = False
        r_v = r[v]
        d_v = dyn.wdeg(v)
        if d_v > 0.0 and abs(r_v) <= eps * d_v:
            continue
        if r_v == 0.0:
            continue
        n_pushes += 1
        if n_pushes > max_pushes:
            raise ConvergenceError(
                f"incremental refresh exceeded {max_pushes} pushes "
                f"(alpha={alpha}, eps={eps})")
        if d_v <= 0.0:
            # Dangling: absorb the (signed) residual, as in Algorithm 1.
            p[v] += r_v
            r[v] = 0.0
            continue
        p[v] += alpha * r_v
        m = (1.0 - alpha) * r_v
        r[v] = 0.0
        gids, wts = dyn.row(v)
        n_entries += len(gids)
        r[gids] += wts * (m / d_v)
        # A row holds each neighbor once and never v itself, so one masked
        # test in row order queues exactly what a per-neighbor loop would.
        woken = over_threshold(gids[~queued[gids]])
        queued[woken] = True
        queue.extend(woken.tolist())

    return RefreshStats(n_changed=n_changed, n_corrections=n_corrections,
                        n_pushes=n_pushes, n_entries=n_entries,
                        residual_l1=float(np.sum(np.abs(r))))
