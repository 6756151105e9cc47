"""The custom AST lint engine.

A deliberately small framework: one :class:`FileContext` per source file
(parsed tree, import-alias resolution, pragma comments), a :class:`Rule`
base class whose subclasses yield :class:`Violation` records from one
hook, ``check(project)``, and :func:`run_lint`, which builds the
whole-program model (:mod:`repro.analysis.callgraph`) once, runs every
rule on it, and filters each violation through scoping and the two
allowlist layers in one place:

* **pragma comments** — ``# repro: allow=REP001`` (optionally a comma list,
  optionally followed by a free-text reason) suppresses the named rules on
  its own line and on the line directly below, so an own-line pragma can
  annotate the statement it precedes;
* **config allowlist** — the ``[tool.repro.analysis]`` table in
  ``pyproject.toml`` carries ``allow = ["REP001:src/repro/utils/timer.py"]``
  entries: ``<rule>:<repo-relative glob>`` pairs exempting whole files
  (``*`` matches every rule).

Rules are *scoped*: a rule with ``scope_dirs`` only fires in files whose
path contains one of those directory names (e.g. REP003 only inside
``simt``/``rpc``/``engine``/``partition``), mirroring where the hazard
class actually bites.  The concrete REP001–REP011 rules live in
:mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from repro.analysis.callgraph import Project

#: the pragma marker recognized in comments: ``# repro: allow=REP001,REP005``
PRAGMA_MARKER = "repro: allow="


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit, pinned to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


class ImportMap:
    """Alias -> canonical dotted-name resolution for one module.

    Tracks ``import numpy as np`` (``np`` -> ``numpy``) and
    ``from time import monotonic as now`` (``now`` -> ``time.monotonic``)
    so rules can match call sites against canonical names regardless of how
    the module spelled its imports.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    self.aliases[name] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of a ``Name``/``Attribute`` chain, or None.

        ``None`` means the chain is rooted in a local variable (or is not a
        plain attribute chain) and cannot be resolved statically.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self.aliases.get(node.id)
        if head is None:
            return None
        parts.append(head)
        return ".".join(reversed(parts))


def collect_pragmas(source: str) -> dict[int, set[str]]:
    """Map line number -> rule IDs allowed there by ``# repro: allow=`` pragmas.

    A pragma suppresses its own line and the line directly below it.
    """
    allowed: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except tokenize.TokenError:  # pragma: no cover - malformed fixture input
        return allowed
    for line, text in comments:
        body = text.lstrip("#").strip()
        if not body.startswith(PRAGMA_MARKER):
            continue
        spec = body[len(PRAGMA_MARKER):].split()[0] if \
            body[len(PRAGMA_MARKER):].strip() else ""
        rules = {r.strip() for r in spec.split(",") if r.strip()}
        if not rules:
            continue
        for target in (line, line + 1):
            allowed.setdefault(target, set()).update(rules)
    return allowed


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    relpath: str                      # posix, repo-root-relative when possible
    source: str
    tree: ast.Module
    imports: ImportMap
    pragmas: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, root: Path | None = None) -> "FileContext":
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        relpath = path.as_posix()
        if root is not None:
            try:
                relpath = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                pass
        return cls(path=path, relpath=relpath, source=source, tree=tree,
                   imports=ImportMap(tree),
                   pragmas=collect_pragmas(source))

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(Path(self.relpath).parts)

    def allowed_by_pragma(self, rule_id: str, line: int) -> bool:
        rules = self.pragmas.get(line)
        return bool(rules) and (rule_id in rules or "*" in rules)


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement ``check``.

    ``check(project)`` yields violations anywhere in the project; a
    per-file rule loops over :meth:`walk`.  Instances are shared
    singletons (:data:`~repro.analysis.rules.ALL_RULES`) and hold no
    per-run state.
    """

    id: str = "REP000"
    title: str = ""
    #: directory names this rule is scoped to; empty = the whole tree
    scope_dirs: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.scope_dirs:
            return True
        return any(part in self.scope_dirs for part in ctx.parts)

    def walk(self, project: Project
             ) -> Iterator[tuple[FileContext, ast.AST]]:
        """Every AST node of the project's modules in this rule's scope."""
        for ctx in project.modules.values():
            if self.applies_to(ctx):
                for node in ast.walk(ctx.tree):
                    yield ctx, node

    def check(self, project: Project) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=ctx.relpath, line=node.lineno,
                         col=node.col_offset, rule=self.id, message=message)


@dataclass(frozen=True)
class AnalysisConfig:
    """The ``[tool.repro.analysis]`` table: file-level allowlist entries."""

    allow: tuple[str, ...] = ()

    def allows(self, rule_id: str, relpath: str) -> bool:
        for entry in self.allow:
            rid, _, pattern = entry.partition(":")
            if rid not in (rule_id, "*"):
                continue
            if fnmatch.fnmatch(relpath, pattern or "*"):
                return True
        return False


def load_config(pyproject: str | Path) -> AnalysisConfig:
    """Read ``[tool.repro.analysis]`` from a ``pyproject.toml``."""
    import tomllib

    path = Path(pyproject)
    if not path.exists():
        return AnalysisConfig()
    data = tomllib.loads(path.read_text())
    table = data.get("tool", {}).get("repro", {}).get("analysis", {})
    allow = table.get("allow", [])
    if not isinstance(allow, list) or \
            not all(isinstance(e, str) for e in allow):
        raise ValueError(
            "[tool.repro.analysis].allow must be a list of "
            "'<RULE>:<glob>' strings"
        )
    return AnalysisConfig(allow=tuple(allow))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def run_lint(paths: Iterable[str | Path], *,
             rules: Iterable[Rule] | None = None,
             config: AnalysisConfig | None = None,
             root: Path | None = None,
             project: Project | None = None) -> list[Violation]:
    """Lint every .py file under ``paths``; returns sorted violations.

    The whole-program model is built once over ``paths`` — or taken from
    ``project``, when a caller already built it — and every rule checks
    it.  Each violation is kept only if the file it lands in is in the
    rule's scope, no pragma on its line names the rule, and no config
    allowlist entry covers the file.
    """
    from repro.analysis.callgraph import build_project
    from repro.analysis.rules import ALL_RULES

    config = config if config is not None else AnalysisConfig()
    if project is None:
        project = build_project(paths, root=root)
    out: list[Violation] = []
    for rule in ALL_RULES if rules is None else rules:
        for v in rule.check(project):
            ctx = project.ctx_for(v.path)
            if rule.applies_to(ctx) and \
                    not ctx.allowed_by_pragma(v.rule, v.line) and \
                    not config.allows(v.rule, v.path):
                out.append(v)
    return sorted(out)
