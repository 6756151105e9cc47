"""The custom AST lint engine.

A deliberately small framework: one :class:`FileContext` per source file
(parsed tree, import-alias resolution, pragma comments), a :class:`Rule`
base class whose subclasses yield :class:`Violation` records from one
hook, ``check(files)``, and :func:`run_lint`, which parses every file
once, runs every rule over the parsed files, and filters each violation
through the two allowlist layers in one place:

* **pragma comments** — ``# repro: allow=REP001`` (optionally a comma list,
  optionally followed by a free-text reason) suppresses the named rules on
  its own line and on the line directly below, so an own-line pragma can
  annotate the statement it precedes;
* **config allowlist** — the ``[tool.repro.analysis]`` table in
  ``pyproject.toml`` carries ``allow = ["REP001:src/repro/utils/timer.py"]``
  entries: ``<rule>:<repo-relative glob>`` pairs exempting whole files
  (``*`` as the rule matches every rule).

Rules are *scoped*: a rule with ``scope_dirs`` only walks files whose
path contains one of those directory names (e.g. REP003 only inside
``simt``/``rpc``/``engine``/``partition``), mirroring where the hazard
class actually bites.  The concrete rules live in
:mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import tokenize
from dataclasses import asdict, dataclass, field
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
        return asdict(self)


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


def pragma_comments(source: str) -> Iterator[tuple[int, set[str]]]:
    """``(line, rule IDs)`` of every ``# repro: allow=`` comment.

    Only real comments count, never docstrings; a source without the
    marker holds no such comment, so the tokenizer is skipped.
    """
    if PRAGMA_MARKER not in source:
        return
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [(tok.start[0], tok.string) for tok in tokens
                    if tok.type == tokenize.COMMENT]
    except tokenize.TokenError:  # pragma: no cover - malformed fixture input
        return
    for line, text in comments:
        body = text.lstrip("#").strip()
        if not body.startswith(PRAGMA_MARKER):
            continue
        spec = body[len(PRAGMA_MARKER):].split(maxsplit=1)[:1]
        rules = {r for word in spec for r in word.split(",") if r}
        if rules:
            yield line, rules


def collect_pragmas(source: str) -> dict[int, set[str]]:
    """Map line number -> rule IDs allowed there by ``# repro: allow=`` pragmas.

    A pragma suppresses its own line and the line directly below it.
    """
    allowed: dict[int, set[str]] = {}
    for line, rules in pragma_comments(source):
        for target in (line, line + 1):
            allowed.setdefault(target, set()).update(rules)
    return allowed


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file."""

    relpath: str                      # posix, repo-root-relative when possible
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
        return cls(relpath=relpath, tree=tree, imports=ImportMap(tree),
                   pragmas=collect_pragmas(source))

    @property
    def parts(self) -> tuple[str, ...]:
        return tuple(Path(self.relpath).parts)

    def allowed_by_pragma(self, rule_id: str, line: int) -> bool:
        rules = self.pragmas.get(line)
        return bool(rules) and (rule_id in rules or "*" in rules)


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement ``check``.

    ``check(files)`` yields violations in the files of the rule's scope;
    a per-node rule loops over :meth:`walk`, which yields only those.
    Instances are shared singletons
    (:data:`~repro.analysis.rules.ALL_RULES`) and hold no per-run state.
    """

    id: str = "REP000"
    title: str = ""
    #: directory names this rule is scoped to; empty = the whole tree
    scope_dirs: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        if not self.scope_dirs:
            return True
        return any(part in self.scope_dirs for part in ctx.parts)

    def walk(self, files: Iterable[FileContext]
             ) -> Iterator[tuple[FileContext, ast.AST]]:
        """Every AST node of the files in this rule's scope."""
        for ctx in files:
            if self.applies_to(ctx):
                for node in ast.walk(ctx.tree):
                    yield ctx, node

    def check(self, files: list[FileContext]) -> Iterator[Violation]:
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
            if rid in (rule_id, "*") and fnmatch.fnmatch(relpath, pattern):
                return True
        return False


def load_config(pyproject: str | Path) -> AnalysisConfig:
    """Read ``[tool.repro.analysis]`` from a ``pyproject.toml``.

    Every entry must be ``<RULE>:<glob>`` with a registered rule ID (or
    ``*``) and a non-empty glob: an entry without one would exempt every
    file, and one naming an unknown rule would exempt nothing.
    """
    import tomllib

    from repro.analysis.rules import ALL_RULE_IDS

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
    for entry in allow:
        rid, _, pattern = entry.partition(":")
        if not pattern or rid not in (*ALL_RULE_IDS, "*"):
            raise ValueError(
                f"[tool.repro.analysis].allow entry {entry!r} is not "
                "'<RULE>:<glob>' with a non-empty glob and a rule among "
                f"{', '.join(ALL_RULE_IDS)} or '*'"
            )
    return AnalysisConfig(allow=tuple(allow))


def parse_files(paths: Iterable[str | Path], *,
                root: Path | None = None) -> list[FileContext]:
    """Parse every .py file under ``paths`` once, in a deterministic order.

    Directories expand to their sorted .py files.  A file that does not
    parse is skipped, and so is a second spelling of a file already
    parsed.
    """
    files: dict[str, FileContext] = {}
    for entry in map(Path, paths):
        for path in sorted(entry.rglob("*.py")) if entry.is_dir() else [entry]:
            if path.suffix != ".py":
                continue
            try:
                ctx = FileContext.parse(path, root=root)
            except SyntaxError:  # pragma: no cover - unparsable input skipped
                continue
            files.setdefault(ctx.relpath, ctx)
    return list(files.values())


def lint_files(files: list[FileContext],
               rules: Iterable[Rule] | None = None) -> list[Violation]:
    """Every rule's findings over ``files``, before suppression."""
    from repro.analysis.rules import ALL_RULES

    return [v for rule in (ALL_RULES if rules is None else rules)
            for v in rule.check(files)]


def run_lint(paths: Iterable[str | Path], *,
             rules: Iterable[Rule] | None = None,
             config: AnalysisConfig | None = None,
             root: Path | None = None) -> list[Violation]:
    """Lint every .py file under ``paths``; returns sorted violations.

    Each file is parsed once and every rule checks the parsed files.  A
    violation is kept only if no pragma on its line names the rule and
    no config allowlist entry covers the file.
    """
    config = config if config is not None else AnalysisConfig()
    files = parse_files(paths, root=root)
    by_path = {ctx.relpath: ctx for ctx in files}
    return sorted(v for v in lint_files(files, rules)
                  if not by_path[v.path].allowed_by_pragma(v.rule, v.line)
                  and not config.allows(v.rule, v.path))
