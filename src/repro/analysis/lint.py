"""The custom AST lint engine.

A deliberately small framework: one :class:`FileContext` per source file
(parsed tree, import-alias resolution, pragma comments), a :class:`Rule`
base class whose subclasses yield :class:`Violation` records, and
:func:`run_lint` tying discovery, scoping, and the two allowlist layers
together:

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
from typing import Iterable, Iterator

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
    ``from time import perf_counter as pc`` (``pc`` -> ``time.perf_counter``)
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
    """Base class: subclasses set ``id``/``title`` and implement ``check``."""

    id: str = "REP000"
    title: str = ""
    #: directory names this rule is scoped to; empty = the whole tree
    scope_dirs: tuple[str, ...] = ()
    #: set True on per-file rules that refine their verdicts through the
    #: whole-program model; :func:`run_lint` then builds a
    #: :class:`~repro.analysis.callgraph.Project` and assigns it to
    #: ``self.project`` before checking (None when linting a single file
    #: through :func:`lint_file` — rules must degrade gracefully)
    wants_project: bool = False
    #: the current whole-program model, managed by :func:`run_lint`
    project = None

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.scope_dirs:
            return True
        return any(part in self.scope_dirs for part in ctx.parts)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(path=ctx.relpath, line=node.lineno,
                         col=node.col_offset, rule=self.id, message=message)


class ProjectRule(Rule):
    """A whole-program rule: checked once against the assembled project.

    ``check_project`` yields violations anywhere in the linted tree;
    :func:`run_lint` applies the same scope/pragma/config filters a
    per-file rule gets, resolved against the file each violation lands
    in.  The per-file ``check`` hook is a no-op.
    """

    wants_project = True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project) -> Iterator[Violation]:
        raise NotImplementedError


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


def lint_file(path: Path, rules: Iterable[Rule], *,
              config: AnalysisConfig | None = None,
              root: Path | None = None) -> list[Violation]:
    """Run ``rules`` over one file, applying both allowlist layers."""
    ctx = FileContext.parse(path, root=root)
    return lint_ctx(ctx, rules, config=config)


def lint_ctx(ctx: FileContext, rules: Iterable[Rule], *,
             config: AnalysisConfig | None = None) -> list[Violation]:
    """Run per-file ``rules`` over one parsed context."""
    config = config if config is not None else AnalysisConfig()
    out: list[Violation] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        if config.allows(rule.id, ctx.relpath):
            continue
        for v in rule.check(ctx):
            if ctx.allowed_by_pragma(v.rule, v.line):
                continue
            out.append(v)
    return sorted(out)


def run_lint(paths: Iterable[str | Path], *,
             rules: Iterable[Rule] | None = None,
             config: AnalysisConfig | None = None,
             root: Path | None = None,
             project=None) -> list[Violation]:
    """Lint every .py file under ``paths``; returns sorted violations.

    When any rule ``wants_project`` (the interprocedural REP008–REP010,
    plus the project-refined REP004/REP006), the whole-program model is
    built once over ``paths`` and shared: per-file rules read it through
    ``self.project``, :class:`ProjectRule` subclasses are checked against
    it directly, with scope/pragma/config filters resolved per violation.

    ``project`` lets a caller that already built the model pass it in.
    """
    from repro.analysis.rules import ALL_RULES

    rules = list(ALL_RULES if rules is None else rules)
    config = config if config is not None else AnalysisConfig()
    if project is None and any(r.wants_project for r in rules):
        from repro.analysis.callgraph import build_project

        project = build_project(paths, root=root)
    for rule in rules:
        rule.project = project  # always (re)set: no stale cross-run state
    out: list[Violation] = []
    contexts: dict[str, FileContext] = {}
    by_path = {} if project is None else {
        ctx.path: ctx for ctx in project.modules.values()
    }
    for path in iter_python_files(paths):
        if project is not None:
            # reuse the project's parsed contexts (and skip files the
            # project skipped as unparsable)
            ctx = by_path.get(path)
            if ctx is None:
                continue
        else:
            try:
                ctx = FileContext.parse(path, root=root)
            except SyntaxError:
                continue
        if ctx.relpath in contexts:
            continue
        contexts[ctx.relpath] = ctx
        out.extend(lint_ctx(ctx, rules, config=config))
    for rule in rules:
        if not isinstance(rule, ProjectRule) or project is None:
            continue
        for v in rule.check_project(project):
            ctx = contexts.get(v.path) or project.ctx_for(v.path)
            if ctx is not None:
                if not rule.applies_to(ctx):
                    continue
                if ctx.allowed_by_pragma(v.rule, v.line):
                    continue
            if config.allows(v.rule, v.path):
                continue
            out.append(v)
    return sorted(out)
