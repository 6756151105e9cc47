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
Pre-row capture happens against the pre-batch state of the mirror:
:meth:`~repro.stream.session.StreamingSession.ingest` reads the batch's
touched rows once, as one :class:`RowCapture` CSR block, and every
published state references that block
(:meth:`IncrementalState.capture_pre_rows`).  A refresh turns a state's
capture window into one flat row diff (:func:`row_diff`), shared by
every state refreshed over the same window, and folds it in a few numpy
calls.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.errors import ConvergenceError
from repro.graph.csr import entry_rows, row_blocks, sorted_unique
from repro.ppr.forward_push_seq import forward_push_sequential
from repro.ppr.params import PPRParams


@dataclass
class RefreshStats:
    """Work counters for one incremental refresh."""

    n_changed: int       # vertices with a captured pre-row
    n_corrections: int   # nonzero residual corrections applied
    n_pushes: int        # signed pushes to restore the threshold
    n_entries: int       # residual entries those pushes spread to


@dataclass(frozen=True, eq=False)
class RowCapture:
    """Rows of sorted vertices as one CSR block, read before a batch.

    Hashed by identity: one read of the mirror, referenced by every state
    that captured it.
    """

    vertices: np.ndarray  # sorted unique int64 vertex ids
    indptr: np.ndarray
    gids: np.ndarray      # each row sorted by neighbor id
    wts: np.ndarray
    wdeg: np.ndarray      # weighted degree of each vertex

    @classmethod
    def read(cls, dyn, vertices: np.ndarray) -> "RowCapture":
        """Read the rows of ``vertices``, sorted unique int64 ids."""
        return cls(vertices, *dyn.rows_of(vertices), dyn.wdeg_of(vertices))


class RowDiff(NamedTuple):
    """Net normalized-row change of a capture window, entry by entry."""

    changed: np.ndarray  # every captured vertex, sorted
    u: np.ndarray        # source vertex of each entry, ascending
    t: np.ndarray        # target of each entry, ascending within one u
    d: np.ndarray        # N_u_cur(t) - N_u_pre(t), never 0.0


class IncrementalState:
    """A published PPR vector plus the state needed to maintain it."""

    __slots__ = ("source", "params", "p", "r", "pre_rows")

    def __init__(self, source: int, params: PPRParams, p: np.ndarray,
                 r: np.ndarray) -> None:
        self.source = int(source)
        self.params = params
        self.p = np.asarray(p, dtype=np.float64)
        self.r = np.asarray(r, dtype=np.float64)
        #: captures taken since the last refresh, oldest first; a vertex's
        #: pre-row is the one in the first capture that holds it
        self.pre_rows: list[RowCapture] = []

    @classmethod
    def from_scratch(cls, graph, source: int,
                     params: PPRParams) -> "IncrementalState":
        """Publish by running the sequential reference push."""
        p, r, _ = forward_push_sequential(graph, source, params)
        return cls(source, params, p, r)

    def capture_pre_rows(self, dyn, vertices: np.ndarray,
                         shared: RowCapture | None = None) -> RowCapture:
        """Record pre-mutation rows for ``vertices`` (first touch wins).

        ``vertices`` are sorted unique int64 ids.  Must be called with the
        *pre-batch* state of ``dyn`` for every vertex the batch will
        change.  A vertex already captured since the last refresh keeps
        its original pre-row, so a sequence of batches folds into one net
        row diff at refresh time.  ``shared``
        is a capture of the same vertices already read from this
        pre-batch mirror; it is referenced instead of read again.
        Returns the capture.
        """
        capture = shared if shared is not None else RowCapture.read(
            dyn, vertices)
        self.pre_rows.append(capture)
        return capture


def _window_rows(captures: list[RowCapture]):
    """``(vertices, indptr, gids, wts, wdeg)``: first-touch pre-rows."""
    vertices, first = np.unique(
        np.concatenate([c.vertices for c in captures]), return_index=True)
    offsets = np.cumsum([0] + [len(c.gids) for c in captures])
    indptr = np.concatenate([c.indptr[:-1] + off for c, off
                             in zip(captures, offsets.tolist())]
                            + [offsets[-1:]])
    indptr, idx = row_blocks(indptr, first)
    return (vertices, indptr,
            np.concatenate([c.gids for c in captures])[idx],
            np.concatenate([c.wts for c in captures])[idx],
            np.concatenate([c.wdeg for c in captures])[first])


def _transitions(vertices, indptr, gids, wts, wdeg, n: int):
    """``(key, N_u(t))`` entries of the rows' normalized transitions.

    ``key = i * n + t`` for an entry of row ``i``; a row with
    ``wdeg <= 0`` is the dangling ``{u: 1.0}``.
    """
    row = entry_rows(indptr)
    dangling = np.flatnonzero(wdeg <= 0.0)
    if len(dangling):
        live = (wdeg > 0.0)[row]
        row, gids, wts = row[live], gids[live], wts[live]
    keys = np.concatenate((row * n + gids, dangling * n + vertices[dangling]))
    return keys, np.concatenate((wts / wdeg[row], np.ones(len(dangling))))


def row_diff(captures: list[RowCapture], dyn) -> RowDiff:
    """The net row diff of a capture window against the current mirror.

    An entry absent on one side counts as ``0.0`` there, so every ``d`` is
    ``cur - pre``, ``cur`` or ``-pre`` exactly; zeros are dropped, which
    also drops every row that ended up bitwise as it was captured.
    """
    if not captures:
        none = np.empty(0, dtype=np.int64)
        return RowDiff(none, none, none, np.empty(0))
    vertices, *pre = _window_rows(captures)
    n = dyn.n_nodes
    cur_keys, cur_n = _transitions(vertices, *dyn.rows_of(vertices),
                                   dyn.wdeg_of(vertices), n)
    pre_keys, pre_n = _transitions(vertices, *pre, n)
    keys = np.concatenate((cur_keys, pre_keys))
    vals = np.concatenate((cur_n, -pre_n))
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    # A key is on each side at most once, so a repeated key is a cur entry
    # then a pre one: their sum cur + (-pre) rounds exactly as cur - pre.
    twin = np.flatnonzero(keys[1:] == keys[:-1])
    vals[twin] += vals[twin + 1]
    vals[twin + 1] = 0.0
    keep = np.flatnonzero(vals)
    keys = keys[keep]
    rows = keys // n
    return RowDiff(vertices, vertices[rows], keys - rows * n, vals[keep])


def accuracy_bound(graph, params: PPRParams) -> float:
    """Published L1 accuracy bound ``epsilon * sum(wdeg)`` of one push."""
    return float(params.epsilon * np.sum(graph.weighted_degrees))


def refresh(state: IncrementalState, dyn, *, max_pushes: int | None = None,
            diffs: dict | None = None) -> RefreshStats:
    """Fold captured row diffs into ``(p, r)`` and re-push to threshold.

    Mutates ``state`` in place and clears its captured pre-rows.
    ``diffs`` caches :func:`row_diff` by capture window across the states
    a caller refreshes against one unchanged mirror.
    """
    params = state.params
    scale = (1.0 - params.alpha) / params.alpha
    p, r = state.p, state.r
    if max_pushes is None:
        max_pushes = int(min(5e8, 500 * p.shape[0] / params.epsilon))

    # -- phase 1: residual corrections -------------------------------------
    diffs = {} if diffs is None else diffs
    window = tuple(state.pre_rows)
    diff = diffs.get(window)
    if diff is None:
        diff = diffs[window] = row_diff(state.pre_rows, dyn)
    state.pre_rows.clear()
    live = p[diff.u] != 0.0
    t = diff.t[live]
    # Unbuffered and in entry order: each r[t] receives its corrections in
    # ascending u, the order of a loop over the changed rows.
    np.add.at(r, t, scale * (p[diff.u[live]] * diff.d[live]))
    # a changed vertex's threshold may have moved even if p[u] == 0
    seeds = sorted_unique(diff.changed, t)

    n_pushes, n_entries = _push_back(state, dyn, seeds, max_pushes)
    return RefreshStats(n_changed=len(diff.changed), n_corrections=len(t),
                        n_pushes=n_pushes, n_entries=n_entries)


def _push_back(state: IncrementalState, dyn, seeds: np.ndarray,
               max_pushes: int) -> tuple[int, int]:
    """Phase 2: signed FIFO forward push from ``seeds`` back under the
    threshold; returns ``(pushes, entries spread)``."""
    alpha, eps = state.params.alpha, state.params.epsilon
    p, r = state.p, state.r

    def over_threshold(vs: np.ndarray) -> np.ndarray:
        """Those of ``vs`` (in order) whose residual needs a push.

        Degrees are never negative, so at ``wdeg == 0`` (dangling) the
        strict test is ``r != 0``.
        """
        return vs[np.abs(r[vs]) > eps * dyn.wdeg_of(vs)]

    queued = np.zeros(p.shape[0], dtype=bool)
    first = over_threshold(seeds)
    queued[first] = True
    queue: deque[int] = deque(first.tolist())
    n_pushes = 0
    n_entries = 0
    while queue:
        v = queue.popleft()
        queued[v] = False
        r_v = r[v]
        d_v = dyn.wdeg(v)
        if abs(r_v) <= eps * d_v:
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
    return n_pushes, n_entries
