"""Determinism rules: wall clocks, unseeded RNG, unordered iteration.

These guard the virtual-time runtime's core property: a run's results and
modeled timings are a pure function of (graph, seed, request).  Wall-clock
reads, global RNG state, and ``set`` iteration order each smuggle host
state into that function.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint import FileContext, Rule, Violation

#: canonical-name prefixes of calls that read the host clock (every
#: ``time`` function but ``sleep``, which blocks: REP005's)
WALL_CLOCK_CALLS = ("time.", "datetime.datetime.now",
                    "datetime.datetime.utcnow")

#: ``np.random`` attributes that are fine to call anywhere —
#: constructors and types that take explicit seed material
SEEDABLE_NP_RANDOM = frozenset({
    "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})


class Rep001WallClock(Rule):
    """Wall-clock calls outside the sanctioned ``utils/timer.py`` shims.

    Virtual-time code paths must never read the host clock directly: a
    ``time.time()`` in a simt/ rpc/ engine path makes modeled timings (and
    potentially results) depend on the machine running the test.  Compute
    is charged from counts (``proc.compute`` with
    :data:`repro.simt.compute.COMPUTE`); report timestamps and the CLI's
    progress timer go through :mod:`repro.utils.timer`.
    """

    id = "REP001"
    title = "wall-clock call outside the sanctioned timer shims"

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        for ctx, node in self.walk(files):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name is not None and name.startswith(WALL_CLOCK_CALLS) \
                    and name != "time.sleep":
                yield self.violation(
                    ctx, node,
                    f"wall-clock call {name}() — charge modeled seconds "
                    "(proc.compute) or read wall time through "
                    "repro.utils.timer so virtual-time code stays "
                    "deterministic",
                )


class Rep002UnseededRandomness(Rule):
    """Unseeded or global-state randomness, ``utils/rng.py`` included.

    ``np.random.default_rng()`` with no arguments pulls OS entropy; the
    legacy ``np.random.*`` module functions and the stdlib ``random``
    module mutate hidden global state.  Either way a replay stops being a
    replay.  All randomness must flow from an explicit seed via
    :func:`repro.utils.rng.rng_from_seed`.
    """

    id = "REP002"
    title = "unseeded or global-state randomness"

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        for ctx, node in self.walk(files):
            hit = self._describe(ctx, node)
            if hit is not None:
                yield self.violation(ctx, node, hit)

    @staticmethod
    def _describe(ctx: FileContext, node: ast.AST) -> str | None:
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            return ("import from the stdlib random module (global-state "
                    "RNG) — use repro.utils.rng helpers with an explicit "
                    "seed")
        name = ctx.imports.resolve(node.func) \
            if isinstance(node, ast.Call) else None
        if name is None:
            return None
        if name in ("numpy.random.default_rng", "numpy.default_rng"):
            if node.args or node.keywords:
                return None
            return ("np.random.default_rng() with no seed draws OS "
                    "entropy — pass explicit seed material (see "
                    "repro.utils.rng.rng_from_seed)")
        if name.startswith("random."):
            return (f"stdlib {name}() uses hidden global RNG state — "
                    "use a seeded numpy Generator via repro.utils.rng")
        attr = name.removeprefix("numpy.random.")
        if attr == name or attr in SEEDABLE_NP_RANDOM:
            return None
        return (f"legacy np.random.{attr}() mutates numpy's global "
                "RNG state — use a seeded Generator via repro.utils.rng")


def _is_unordered_iterable(node: ast.expr) -> str | None:
    """Describe ``node`` if iterating it has nondeterministic order."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys" \
                and not node.args and not node.keywords:
            return ".keys()"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr,
                                                            ast.BitAnd,
                                                            ast.Sub)):
        # set algebra (a | b, a & b, a - b) feeding a loop
        left = _is_unordered_iterable(node.left)
        right = _is_unordered_iterable(node.right)
        if left or right:
            return left or right
    return None


class Rep003UnorderedIteration(Rule):
    """Unsorted ``set``/``dict.keys()`` iteration in dispatch-order paths.

    In scheduling, RPC dispatch, and partition assignment, the *order* of
    iteration becomes the order of side effects (spawn order, message
    order, shard assignment) — iterating a set there makes the
    interleaving hash-seed-dependent.  Wrap the iterable in ``sorted(...)``
    to pin the order, or iterate a list/dict (insertion-ordered) instead.
    Note ``.keys()`` on a plain dict is insertion-ordered but is flagged
    here anyway: in these paths an explicit ``sorted(...)`` documents that
    the order is load-bearing.
    """

    id = "REP003"
    title = "unordered set/keys iteration in a dispatch-order path"
    scope_dirs = ("simt", "rpc", "engine", "partition", "serving",
                  "stream")

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
        for ctx, node in self.walk(files):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                desc = _is_unordered_iterable(it)
                if desc is not None:
                    yield self.violation(
                        ctx, it,
                        f"iteration over {desc} has nondeterministic order "
                        "in a scheduling/dispatch path — wrap it in "
                        "sorted(...)",
                    )
