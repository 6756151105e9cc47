"""Structured benchmark reports, baselines, and regression detection.

The benchmark suite under ``benchmarks/`` reproduces every table and figure
of the paper, but a free-text table cannot be *gated*: nothing fails when a
change silently halves Table 2 throughput or flips the Table 3 ablation
ordering.  This module makes benchmark telemetry a first-class subsystem:

* :class:`BenchReport` — one bench's machine-readable result: typed per-row
  records, the run's scale and environment fingerprint, the ``ungated``
  columns it names (each with its reason), and the bench's *declarative
  expectations* (the shape claims the paper makes);
* **expectations** — a small declarative language (``cmp`` / ``per_row`` /
  ``monotone`` / ``bounds`` / ``all_true`` / ``ratio``) evaluated against
  the report's own rows, replacing imperative ``assert`` blocks so the same
  claims can be re-checked from the JSON long after the run;
* **trajectory files** (``BENCH_<scale>.json``) — the per-scale aggregate of
  every bench's gated numeric fields, the unit the baseline store diffs;
* **comparator** — every gated field compares exactly (ints/bools) or at
  ``DET_RTOL`` (floats): the simulator is seeded and charges virtual time
  from counts, so a field that moves is a regression.  A column is gated
  unless its bench names it ``ungated`` — host-timed columns and counts
  of the source tree itself, which no seed pins;
* **linter** — cross-checks each ``results/<name>.txt`` table against its
  ``.json`` sibling (row counts, headline values) so the human-readable and
  machine-readable artifacts cannot drift apart.

``repro.cli bench run|report|diff|check`` is the operational surface;
``benchmarks/common.py`` is the producer.  See ``docs/benchmarking.md``.
"""

from __future__ import annotations

import json
import math
import operator
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.utils.timer import wall_unix

REPORT_SCHEMA = "repro.bench-report/v1"
TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"

BENCH_SCALES = ("tiny", "small", "full")

#: relative tolerance for "exact" float comparison — deterministic fields
#: are seeded, but BLAS reductions may differ in the last bits across hosts
DET_RTOL = 1e-6
DET_ATOL = 1e-9

#: injectable clock for report/trajectory timestamps.  Defaults to the
#: sanctioned wall_unix shim; tests pin it (set_wall_clock) to make
#: created_unix deterministic.
_wall_clock = wall_unix


def set_wall_clock(clock=None):
    """Override the timestamp clock; ``None`` restores :func:`wall_unix`."""
    global _wall_clock
    _wall_clock = clock if clock is not None else wall_unix
    return _wall_clock


_KINDS = ("cmp", "per_row", "monotone", "bounds", "all_true", "ratio")
_WHERE_OPS = {"eq": operator.eq, "ne": operator.ne, "gt": operator.gt,
              "ge": operator.ge, "lt": operator.lt, "le": operator.le}


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------

def git_revision(cwd: str | Path | None = None) -> str | None:
    """Short git revision of ``cwd`` (or this package's repo); None if n/a."""
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(cwd),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def env_fingerprint() -> dict:
    """What this host looks like — recorded so baselines are attributable."""
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------

@dataclass
class BenchReport:
    """One bench's structured result.

    ``rows`` are typed records: every value is a number, bool, or string
    (strings are display-only — they never enter comparisons).  ``key``
    names the columns whose values identify a row (e.g. ``("Dataset",
    "Machines")``).  Every other numeric column, and every numeric
    ``extra`` entry, is gated: compared exactly against the baseline.
    ``ungated`` maps the names that are not to the reason why.
    """

    name: str
    title: str
    scale: str
    rows: list[dict]
    key: tuple[str, ...]
    ungated: dict[str, str] = field(default_factory=dict)
    expectations: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    git_rev: str | None = None
    env: dict = field(default_factory=dict)
    created_unix: float = 0.0

    def __post_init__(self) -> None:
        self.key = tuple(self.key)
        self.ungated = dict(self.ungated)
        if not self.env:
            self.env = env_fingerprint()
        if self.git_rev is None:
            self.git_rev = git_revision()
        if not self.created_unix:
            self.created_unix = _wall_clock()

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "title": self.title,
            "scale": self.scale,
            "git_rev": self.git_rev,
            "created_unix": self.created_unix,
            "env": self.env,
            "key": list(self.key),
            "ungated": self.ungated,
            "rows": self.rows,
            "extra": self.extra,
            "expectations": self.expectations,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "BenchReport":
        errors = validate_report(d)
        if errors:
            raise ValueError(
                f"invalid bench report {d.get('name')!r}: " + "; ".join(errors)
            )
        return cls(
            name=d["name"], title=d.get("title", d["name"]),
            scale=d["scale"], rows=[dict(r) for r in d["rows"]],
            key=tuple(d["key"]), ungated=dict(d.get("ungated", {})),
            expectations=list(d.get("expectations", ())),
            extra=dict(d.get("extra", {})),
            git_rev=d.get("git_rev"), env=dict(d.get("env", {})),
            created_unix=d.get("created_unix", 0.0),
        )

    def row_key(self, row: Mapping) -> str:
        return "|".join(str(row[k]) for k in self.key)

    def _gated(self, values: Mapping, skip=()) -> dict:
        return {k: v for k, v in values.items()
                if k not in skip and k not in self.ungated and _is_numeric(v)}

    def numeric_records(self) -> dict[str, dict]:
        """Row-key -> {column: value} for every gated row field."""
        return {self.row_key(row): self._gated(row, self.key)
                for row in self.rows}

    def gated_extra(self) -> dict:
        """The gated numeric ``extra`` values."""
        return self._gated(self.extra)


def _is_numeric(v) -> bool:
    return isinstance(v, (int, float, bool)) and not isinstance(v, str) \
        and (not isinstance(v, float) or math.isfinite(v))


def validate_report(d: Mapping) -> list[str]:
    """Structural schema check; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(d, Mapping):
        return ["report is not a mapping"]
    if d.get("schema") != REPORT_SCHEMA:
        errors.append(f"schema must be {REPORT_SCHEMA!r}, got {d.get('schema')!r}")
    for f in ("name", "scale", "rows", "key"):
        if f not in d:
            errors.append(f"missing required field {f!r}")
    if errors:
        return errors
    if d["scale"] not in BENCH_SCALES:
        errors.append(f"scale must be one of {BENCH_SCALES}, got {d['scale']!r}")
    rows = d["rows"]
    if not isinstance(rows, list) or not rows:
        errors.append("rows must be a non-empty list")
        return errors
    columns = set(rows[0].keys()) if isinstance(rows[0], Mapping) else set()
    seen_keys = set()
    for i, row in enumerate(rows):
        if not isinstance(row, Mapping):
            errors.append(f"row {i} is not a mapping")
            continue
        for k in d["key"]:
            if k not in row:
                errors.append(f"row {i} missing key column {k!r}")
        for col, v in row.items():
            if isinstance(v, float) and not math.isfinite(v):
                errors.append(f"row {i} column {col!r} is non-finite")
        rk = "|".join(str(row.get(k)) for k in d["key"])
        if rk in seen_keys:
            errors.append(f"duplicate row key {rk!r}")
        seen_keys.add(rk)
    ungated = d.get("ungated", {})
    if not isinstance(ungated, Mapping):
        errors.append("ungated must map names to reasons")
        ungated = {}
    for col, why in ungated.items():
        if col not in columns and col not in d.get("extra", {}):
            errors.append(f"ungated column {col!r} not in rows or extra")
        if not isinstance(why, str) or not why.strip():
            errors.append(f"ungated column {col!r} needs a reason")
    for exp in d.get("expectations", ()):
        if not isinstance(exp, Mapping) or exp.get("kind") not in _KINDS:
            errors.append(f"bad expectation {exp!r}")
    return errors


def write_report(path: str | Path, report: BenchReport) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report.to_dict(), indent=1, sort_keys=False)
                    + "\n")
    return path


def load_report(path: str | Path) -> dict:
    d = json.loads(Path(path).read_text())
    errors = validate_report(d)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return d


def load_reports(results_dir: str | Path) -> list[dict]:
    """Every schema-valid report under ``results_dir`` (sorted by name)."""
    out = []
    for p in sorted(Path(results_dir).glob("*.json")):
        out.append(load_report(p))
    return out


# ---------------------------------------------------------------------------
# expectations
# ---------------------------------------------------------------------------

def _match_where(row: Mapping, where: Mapping | None) -> bool:
    if not where:
        return True
    for col, cond in where.items():
        v = row.get(col)
        if isinstance(cond, Mapping):
            for op, ref in cond.items():
                if op not in _WHERE_OPS:
                    raise ValueError(f"unknown where op {op!r}")
                if not _WHERE_OPS[op](v, ref):
                    return False
        elif v != cond:
            return False
    return True


def _select(rows: list[dict], where: Mapping | None) -> list[dict]:
    return [r for r in rows if _match_where(r, where)]


def _resolve(spec, rows: list[dict], extra: Mapping) -> float:
    """A value spec -> float: a literal, an ``extra`` ref, or a column agg."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return float(spec)
    if not isinstance(spec, Mapping):
        raise ValueError(f"bad value spec {spec!r}")
    if "extra" in spec:
        if spec["extra"] not in extra:
            raise ValueError(f"extra value {spec['extra']!r} not in report")
        return float(extra[spec["extra"]])
    col = spec["col"]
    sel = _select(rows, spec.get("where"))
    if not sel:
        raise ValueError(f"no rows match where={spec.get('where')!r}")
    order_col = spec.get("order_col")
    if order_col:
        sel = sorted(sel, key=lambda r: r[order_col])
    vals = [float(r[col]) for r in sel]
    agg = spec.get("agg", "only")
    if agg == "only":
        if len(vals) != 1:
            raise ValueError(
                f"agg 'only' on col {col!r} matched {len(vals)} rows"
            )
        return vals[0]
    if agg == "last":
        return vals[-1]
    if agg == "min":
        return min(vals)
    if agg == "max":
        return max(vals)
    raise ValueError(f"unknown agg {agg!r}")


def _apply_op(left: float, op: str, right: float) -> bool:
    if op == "gt":
        return left > right
    if op == "ge":
        return left >= right
    if op == "lt":
        return left < right
    if op == "le":
        return left <= right
    if op == "eq":
        return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)
    if op == "ne":
        return not math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)
    raise ValueError(f"unknown op {op!r}")


def _exp_label(exp: Mapping) -> str:
    return exp.get("label") or exp["kind"]


def _check_one(exp: Mapping, rows: list[dict], extra: Mapping) -> str | None:
    """Evaluate one expectation; returns a failure message or None."""
    kind = exp["kind"]
    factor = float(exp.get("factor", 1.0))
    if kind == "cmp":
        left = _resolve(exp["left"], rows, extra)
        right = _resolve(exp["right"], rows, extra)
        if not _apply_op(left, exp["op"], factor * right):
            return (f"{_exp_label(exp)}: {left:.6g} !{exp['op']} "
                    f"{factor:.6g}*{right:.6g}")
        return None
    if kind == "per_row":
        sel = _select(rows, exp.get("where"))
        if not sel:
            return f"{_exp_label(exp)}: no rows match {exp.get('where')!r}"
        for row in sel:
            left = float(row[exp["left_col"]])
            right = (float(row[exp["right_col"]]) if "right_col" in exp
                     else float(exp["right"]))
            if not _apply_op(left, exp["op"], factor * right):
                return (f"{_exp_label(exp)}: row {row} has "
                        f"{exp['left_col']}={left:.6g} !{exp['op']} "
                        f"{factor:.6g}*{right:.6g}")
        return None
    if kind == "monotone":
        groups: dict[object, list[dict]] = {}
        for row in _select(rows, exp.get("where")):
            groups.setdefault(row.get(exp.get("group_by")), []).append(row)
        strict = bool(exp.get("strict", True))
        increasing = exp.get("direction", "increasing") == "increasing"
        for gname, grows in groups.items():
            if exp.get("order_col"):
                grows = sorted(grows, key=lambda r: r[exp["order_col"]])
            vals = [float(r[exp["col"]]) for r in grows]
            for a, b in zip(vals, vals[1:]):
                ok = (b > a if strict else b >= a) if increasing \
                    else (b < a if strict else b <= a)
                if not ok:
                    where = f" in group {gname!r}" if exp.get("group_by") else ""
                    return (f"{_exp_label(exp)}: {exp['col']} not "
                            f"{exp.get('direction', 'increasing')}{where}: "
                            f"{vals}")
        return None
    if kind == "bounds":
        for row in _select(rows, exp.get("where")):
            v = float(row[exp["col"]])
            if "lo" in exp and v < float(exp["lo"]):
                return (f"{_exp_label(exp)}: {exp['col']}={v:.6g} < "
                        f"lo={exp['lo']:.6g}")
            if "hi" in exp and v > float(exp["hi"]):
                return (f"{_exp_label(exp)}: {exp['col']}={v:.6g} > "
                        f"hi={exp['hi']:.6g}")
        return None
    if kind == "all_true":
        for row in _select(rows, exp.get("where")):
            if not row[exp["col"]]:
                return f"{_exp_label(exp)}: {exp['col']} falsy in {row!r}"
        return None
    if kind == "ratio":
        lnum = _resolve(exp["left"][0], rows, extra)
        lden = _resolve(exp["left"][1], rows, extra)
        right = exp["right"]
        if isinstance(right, (int, float)):
            rval = float(right)
        else:
            rval = (_resolve(right[0], rows, extra)
                    / _resolve(right[1], rows, extra))
        lval = lnum / lden if lden else math.inf
        if not _apply_op(lval, exp["op"], factor * rval):
            return (f"{_exp_label(exp)}: ratio {lval:.6g} !{exp['op']} "
                    f"{factor:.6g}*{rval:.6g}")
        return None
    raise ValueError(f"unknown expectation kind {kind!r}")


def expectation_applies(exp: Mapping, scale: str) -> bool:
    scales = exp.get("scales", ["full"])
    return scales == "all" or scale in scales


def evaluate_expectations(report: Mapping,
                          scale: str | None = None) -> list[str]:
    """Failure messages for every expectation active at ``scale``.

    ``scale`` defaults to the report's own recorded scale, so a saved JSON
    re-checks exactly the claims its run was gated on.
    """
    scale = scale or report["scale"]
    rows = [dict(r) for r in report["rows"]]
    extra = report.get("extra", {})
    failures = []
    for exp in report.get("expectations", ()):
        if not expectation_applies(exp, scale):
            continue
        try:
            msg = _check_one(exp, rows, extra)
        except (KeyError, ValueError, TypeError) as e:
            msg = f"{_exp_label(exp)}: unevaluable ({e})"
        if msg:
            failures.append(f"{report['name']}: {msg}")
    return failures


# ---------------------------------------------------------------------------
# trajectories (the baseline unit)
# ---------------------------------------------------------------------------

def build_trajectory(reports: Iterable[Mapping], scale: str) -> dict:
    """Aggregate per-bench reports into one ``BENCH_<scale>`` trajectory:
    each bench's gated fields, and nothing its bench names ``ungated``."""
    benches = {}
    for d in sorted(reports, key=lambda r: r["name"]):
        if d["scale"] != scale:
            continue
        rep = BenchReport.from_dict(d)
        benches[rep.name] = {
            "title": rep.title,
            "key": list(rep.key),
            "n_rows": len(rep.rows),
            "records": rep.numeric_records(),
            "extra": rep.gated_extra(),
        }
    return {
        "schema": TRAJECTORY_SCHEMA,
        "scale": scale,
        "git_rev": git_revision(),
        "created_unix": _wall_clock(),
        "env": env_fingerprint(),
        "benches": benches,
    }


def load_trajectory(path: str | Path) -> dict:
    d = json.loads(Path(path).read_text())
    if d.get("schema") != TRAJECTORY_SCHEMA:
        raise ValueError(
            f"{path}: schema must be {TRAJECTORY_SCHEMA!r}, "
            f"got {d.get('schema')!r}"
        )
    return d


def write_trajectory(path: str | Path, trajectory: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(trajectory, indent=1) + "\n")
    return path


# ---------------------------------------------------------------------------
# comparator
# ---------------------------------------------------------------------------

@dataclass
class Delta:
    """One compared field: where it lives, what changed, and whether it
    counts as a regression."""

    bench: str
    field: str
    kind: str                 # "deterministic" | "structure"
    base: object
    cur: object
    regressed: bool
    note: str = ""

    @property
    def rel_change(self) -> float | None:
        try:
            b, c = float(self.base), float(self.cur)
        except (TypeError, ValueError):
            return None
        if b == 0:
            return None if c == 0 else math.inf
        return (c - b) / abs(b)

    def describe(self) -> str:
        rel = self.rel_change
        pct = "" if rel is None or not math.isfinite(rel) \
            else f" ({rel:+.1%})"
        mark = "!" if self.regressed else " "
        return (f"{mark} {self.bench}.{self.field} [{self.kind}]: "
                f"{self.base} -> {self.cur}{pct}"
                + (f"  {self.note}" if self.note else ""))


def _same(bval, cval) -> bool:
    """Ints and bools exactly, floats at ``DET_RTOL``."""
    if isinstance(bval, bool) or isinstance(cval, bool) \
            or (isinstance(bval, int) and isinstance(cval, int)):
        return bval == cval
    return math.isclose(float(bval), float(cval),
                        rel_tol=DET_RTOL, abs_tol=DET_ATOL)


def compare_trajectories(base: Mapping, cur: Mapping) -> list[Delta]:
    """Field-by-field comparison of two trajectory files.

    Every field of the baseline is gated: a mismatch is a regression, and
    a float within ``DET_RTOL`` is a note.  Structural drift (missing
    bench, row-count change, missing field) always regresses.
    """
    deltas: list[Delta] = []
    base_benches = base.get("benches", {})
    cur_benches = cur.get("benches", {})
    for name, b in sorted(base_benches.items()):
        c = cur_benches.get(name)
        if c is None:
            deltas.append(Delta(name, "<bench>", "structure", "present",
                                "missing", True, "bench disappeared"))
            continue
        if b.get("n_rows") != c.get("n_rows"):
            deltas.append(Delta(name, "n_rows", "structure",
                                b.get("n_rows"), c.get("n_rows"), True,
                                "row count changed"))
        cur_records = c.get("records", {})
        fields = [(f"{rk}.{col}", bval, cur_records.get(rk, {}).get(col))
                  for rk, rec in sorted(b.get("records", {}).items())
                  for col, bval in rec.items()]
        fields += [(f"extra.{k}", bval, c.get("extra", {}).get(k))
                   for k, bval in sorted(b.get("extra", {}).items())]
        for fieldname, bval, cval in fields:
            if cval is None:
                deltas.append(Delta(name, fieldname, "structure", bval,
                                    "missing", True, "field disappeared"))
            elif not _same(bval, cval):
                deltas.append(Delta(name, fieldname, "deterministic",
                                    bval, cval, True,
                                    "deterministic field changed"))
            elif bval != cval:
                deltas.append(Delta(name, fieldname, "deterministic",
                                    bval, cval, False, "within DET_RTOL"))
    for name in sorted(set(cur_benches) - set(base_benches)):
        deltas.append(Delta(name, "<bench>", "structure", "missing",
                            "present", False, "new bench (no baseline)"))
    return deltas


def regressions(deltas: Iterable[Delta]) -> list[Delta]:
    return [d for d in deltas if d.regressed]


def render_diff(base: Mapping, cur: Mapping) -> str:
    """Readable old-vs-new comparison of two trajectory files."""
    deltas = compare_trajectories(base, cur)
    lines = [
        f"baseline: scale={base.get('scale')} rev={base.get('git_rev')}",
        f"current:  scale={cur.get('scale')} rev={cur.get('git_rev')}",
    ]
    shown = [d for d in deltas if d.regressed or d.base != d.cur]
    if not shown:
        lines.append("no differences.")
        return "\n".join(lines)
    by_bench: dict[str, list[Delta]] = {}
    for d in shown:
        by_bench.setdefault(d.bench, []).append(d)
    n_reg = 0
    for bench, ds in sorted(by_bench.items()):
        lines.append(f"-- {bench}")
        for d in ds:
            lines.append("  " + d.describe())
            n_reg += d.regressed
    lines.append(f"{len(shown)} changed field(s), {n_reg} regression(s).")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# results linter: .txt and .json siblings must agree
# ---------------------------------------------------------------------------

def lint_results(results_dir: str | Path) -> list[str]:
    """Cross-check every report JSON against its ``.txt`` table sibling.

    Fails when the two disagree on row count or when a row's headline
    values (the key columns plus the first numeric column) are missing
    from the corresponding table line — the drift that happens when one
    artifact is regenerated and the other is stale.
    """
    results_dir = Path(results_dir)
    problems: list[str] = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            d = load_report(path)
        except ValueError as e:
            problems.append(str(e))
            continue
        txt_path = path.with_suffix(".txt")
        if not txt_path.exists():
            problems.append(f"{path.name}: missing .txt sibling")
            continue
        lines = [ln for ln in txt_path.read_text().splitlines() if ln.strip()]
        # layout: "== title ==", header, dashes, then one line per row
        body = lines[3:] if len(lines) >= 3 else []
        rows = d["rows"]
        if len(body) != len(rows):
            problems.append(
                f"{path.name}: row count mismatch — json has {len(rows)} "
                f"rows, txt table has {len(body)} lines"
            )
            continue
        numeric_cols = [c for c in rows[0]
                        if c not in d["key"] and _is_numeric(rows[0][c])]
        headline = numeric_cols[:1]
        for row, line in zip(rows, body):
            for col in list(d["key"]) + headline:
                sval = str(row[col])
                if sval not in line:
                    problems.append(
                        f"{path.name}: row {d['key']}="
                        f"{[row[k] for k in d['key']]!r}: value "
                        f"{col}={sval!r} not found in txt line {line!r}"
                    )
                    break
    return problems


# ---------------------------------------------------------------------------
# suite orchestration (used by repro.cli bench run/check)
# ---------------------------------------------------------------------------

def run_suite(benchmarks_dir: str | Path, scale: str, *,
              select: str | None = None, repo_root: str | Path | None = None,
              extra_args: tuple[str, ...] = ()) -> int:
    """Run the pytest bench suite at ``scale``; returns the exit code.

    Uses a subprocess so the child's ``REPRO_BENCH_SCALE`` (and the scale
    caches keyed on it) cannot leak into — or out of — this process.
    """
    benchmarks_dir = Path(benchmarks_dir)
    repo_root = Path(repo_root) if repo_root else benchmarks_dir.parent
    env = dict(os.environ)
    env["REPRO_BENCH_SCALE"] = scale
    src = str(repo_root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(repo_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, "-m", "pytest", str(benchmarks_dir), "-q",
           "--benchmark-disable", "-o", "addopts="]
    if select:
        cmd += ["-k", select]
    cmd += list(extra_args)
    return subprocess.run(cmd, env=env, cwd=str(repo_root)).returncode
