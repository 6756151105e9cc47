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

#: canonical names whose *call* reads the host clock
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
})

#: ``np.random`` attributes that are fine outside ``utils/rng.py`` —
#: constructors and types that take explicit seed material
SEEDABLE_NP_RANDOM = frozenset({
    "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
})


class Rep001WallClock(Rule):
    """Wall-clock calls outside the sanctioned ``utils/timer.py`` shims.

    Virtual-time code paths must never read the host clock directly: a
    ``time.time()`` in a simt/ rpc/ engine path makes modeled timings (and
    potentially results) depend on the machine running the test.  Measured
    compute goes through ``proc.measured()`` (built on
    :class:`repro.utils.timer.Stopwatch`); report timestamps go through
    :func:`repro.utils.timer.wall_unix`.
    """

    id = "REP001"
    title = "wall-clock call outside the sanctioned timer shims"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.violation(
                    ctx, node,
                    f"wall-clock call {name}() — route through "
                    "proc.measured() or repro.utils.timer (Stopwatch / "
                    "wall_unix) so virtual-time code stays deterministic",
                )


class Rep002UnseededRandomness(Rule):
    """Unseeded or global-state randomness outside ``utils/rng.py``.

    ``np.random.default_rng()`` with no arguments pulls OS entropy; the
    legacy ``np.random.*`` module functions and the stdlib ``random``
    module mutate hidden global state.  Either way a replay stops being a
    replay.  All randomness must flow from an explicit seed via
    :func:`repro.utils.rng.rng_from_seed` / :func:`repro.utils.rng.spawn_rngs`.
    """

    id = "REP002"
    title = "unseeded randomness outside utils/rng.py"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.violation(
                    ctx, node,
                    "import from the stdlib random module (global-state "
                    "RNG) — use repro.utils.rng helpers with an explicit "
                    "seed",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name is None:
                continue
            if name in ("numpy.random.default_rng", "numpy.default_rng"):
                if not node.args and not node.keywords:
                    yield self.violation(
                        ctx, node,
                        "np.random.default_rng() with no seed draws OS "
                        "entropy — pass explicit seed material (see "
                        "repro.utils.rng.rng_from_seed)",
                    )
                continue
            if name.startswith("random."):
                yield self.violation(
                    ctx, node,
                    f"stdlib {name}() uses hidden global RNG state — "
                    "use a seeded numpy Generator via repro.utils.rng",
                )
                continue
            if name.startswith("numpy.random."):
                attr = name.removeprefix("numpy.random.")
                if attr == "default_rng" or attr in SEEDABLE_NP_RANDOM:
                    continue
                yield self.violation(
                    ctx, node,
                    f"legacy np.random.{attr}() mutates numpy's global "
                    "RNG state — use a seeded Generator via "
                    "repro.utils.rng",
                )


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

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
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
