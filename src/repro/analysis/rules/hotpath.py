"""Hot-path rules: the zero-copy read path must stay zero-copy.

REP011 guards the three modules on the fetch hot path and the shard
write path — ``storage/shard.py``, ``storage/neighbor_batch.py`` and
``storage/vertex_prop.py`` (the responses, the round gather and staging)
— against allocation creep.  Any ``.copy()`` method call,
``np.repeat`` or ``np.concatenate`` in those files allocates and fills a
fresh buffer per request, which is exactly the cost the arena-view read
path exists to avoid; ``repro.graph.csr.splice_rows`` re-copies every
column of the rows it splices, which is what an append-only stage exists
to avoid.  Each call must either go away or carry an explicit
``# repro: allow=REP011 <reason>`` pragma naming why the copy is
sanctioned (copy-on-serialize, non-contiguous gather fallback, a stage's
extents).

The rule is a per-file AST scan: attribute calls named ``copy`` and
calls resolving through the import map to one of
:data:`FLAGGED_ALLOCATORS`.  Everything outside the three scoped files is
ignored — copies are fine where they are not per-request.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import FileContext, Rule, Violation

#: repo-relative path suffixes the rule is scoped to
HOT_PATH_FILES = (
    "storage/shard.py",
    "storage/neighbor_batch.py",
    "storage/vertex_prop.py",
)

#: canonical callables that fill fresh buffers -> what to do instead
FLAGGED_ALLOCATORS = {
    "numpy.repeat": "prefer contiguous-run slicing",
    "numpy.concatenate": "prefer contiguous-run slicing",
    # re-copies every column of the rows it splices: a whole arena
    "repro.graph.csr.splice_rows":
        "append the replaced rows instead (NeighborBatch.replace_rows)",
}


class Rep011HotPathCopy(Rule):
    """Flag per-request allocations on the zero-copy shard read path."""

    id = "REP011"
    title = "allocation on the zero-copy read path without a pragma"

    def applies_to(self, ctx: FileContext) -> bool:
        return any(ctx.relpath.endswith(suffix) for suffix in HOT_PATH_FILES)

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        for ctx, node in self.walk(files):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "copy" \
                    and not node.args and not node.keywords:
                yield self.violation(
                    ctx, node,
                    "'.copy()' on the zero-copy read path allocates per "
                    "request; slice the arena instead, or annotate the "
                    "sanctioned copy with '# repro: allow=REP011 <reason>'",
                )
                continue
            resolved = ctx.imports.resolve(func)
            if resolved in FLAGGED_ALLOCATORS:
                short = resolved.replace("numpy.", "np.").rsplit(
                    "repro.graph.csr.", 1)[-1]
                yield self.violation(
                    ctx, node,
                    f"'{short}' copies into a fresh buffer on the "
                    f"zero-copy path; {FLAGGED_ALLOCATORS[resolved]}, "
                    f"or annotate the fallback with "
                    f"'# repro: allow=REP011 <reason>'",
                )
