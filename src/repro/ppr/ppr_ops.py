"""``SSPPR`` — one Single-Source PPR query: a batch of one.

The local PPR operators of Section 3.3 (``pop`` / ``push`` over the slot
table) are written once, on :class:`~repro.ppr.multi_query.MultiSSPPR`;
with B = 1 its pair keys are plain node ids and every popped node carries
one active pair, so ``push`` takes its no-expansion path.  The engine's
per-query mode builds :class:`SSPPR` states and the batched mode
``MultiSSPPR`` ones; both are read through one
:class:`~repro.ppr.multi_query.QueryView` per query.
"""

from __future__ import annotations

from repro.ppr.multi_query import MultiSSPPR
from repro.ppr.params import PPRParams


class SSPPR(MultiSSPPR):
    """Forward-Push state of one SSPPR query (``MultiSSPPR`` with B = 1)."""

    def __init__(self, source: int, params: PPRParams,
                 source_wdeg: float, n_nodes: int | None = None) -> None:
        super().__init__([source], params, [source_wdeg], n_nodes)

    # perfbench's ssppr.* spans patch these two names on SSPPR itself
    pop = MultiSSPPR.pop
    push = MultiSSPPR.push
