"""Structured benchmark reports, baselines, and regression detection.

The benchmark suite under ``benchmarks/`` reproduces every table and figure
of the paper, but a free-text table cannot be *gated*: nothing fails when a
change silently halves Table 2 throughput or flips the Table 3 ablation
ordering.  This module makes benchmark telemetry a first-class subsystem:

* :class:`BenchReport` — one bench's machine-readable result: typed per-row
  records, the run's scale and environment fingerprint, a virtual-time vs
  wall-clock field split, an optional embedded metrics snapshot, and the
  bench's *declarative expectations* (the shape claims the paper makes);
* **expectations** — a small declarative language (``cmp`` / ``per_row`` /
  ``monotone`` / ``bounds`` / ``all_true`` / ``ratio``) evaluated against
  the report's own rows, replacing imperative ``assert`` blocks so the same
  claims can be re-checked from the JSON long after the run;
* **trajectory files** (``BENCH_<scale>.json``) — the per-scale aggregate of
  every bench's numeric records, the unit the baseline store diffs;
* **comparator** — deterministic fields (dispatch counts, modeled network
  seconds, push/iteration counters: everything seeded) compare exactly;
  wall-clock-derived fields compare under a relative tolerance with a
  declared improvement direction;
* **linter** — cross-checks each ``results/<name>.txt`` table against its
  ``.json`` sibling (row counts, headline values) so the human-readable and
  machine-readable artifacts cannot drift apart.

``repro.cli bench run|report|diff|check|lint`` is the operational surface;
``benchmarks/common.py`` is the producer.  See ``docs/benchmarking.md``.
"""

from __future__ import annotations

import json
import math
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


_CMP_OPS = ("gt", "ge", "lt", "le", "eq", "ne")
_AGGS = ("only", "first", "last", "min", "max", "mean", "sum")
_KINDS = ("cmp", "per_row", "monotone", "bounds", "all_true", "ratio")
_WHERE_OPS = ("eq", "ne", "gt", "ge", "lt", "le", "in")


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
    "Machines")``); ``deterministic`` names the columns (and ``extra``
    entries) that are seeded/modeled and therefore compared exactly by the
    regression gate, every other numeric column is wall-clock-derived and
    compared under tolerance.  ``higher_is_better`` / ``lower_is_better``
    give wall columns a regression direction.
    """

    name: str
    title: str
    scale: str
    rows: list[dict]
    key: tuple[str, ...]
    deterministic: tuple[str, ...] = ()
    higher_is_better: tuple[str, ...] = ()
    lower_is_better: tuple[str, ...] = ()
    expectations: list[dict] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    metrics: dict | None = None
    #: wall-clock seconds the bench body took, and the summed virtual
    #: seconds its engine runs simulated — the report-level time split
    wall_s: float | None = None
    virtual_s: float | None = None
    git_rev: str | None = None
    env: dict = field(default_factory=dict)
    created_unix: float = 0.0

    def __post_init__(self) -> None:
        self.key = tuple(self.key)
        self.deterministic = tuple(self.deterministic)
        self.higher_is_better = tuple(self.higher_is_better)
        self.lower_is_better = tuple(self.lower_is_better)
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
            "deterministic": list(self.deterministic),
            "higher_is_better": list(self.higher_is_better),
            "lower_is_better": list(self.lower_is_better),
            "rows": self.rows,
            "extra": self.extra,
            "expectations": self.expectations,
            "metrics": self.metrics,
            "timing": {"wall_s": self.wall_s, "virtual_s": self.virtual_s},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "BenchReport":
        errors = validate_report(d)
        if errors:
            raise ValueError(
                f"invalid bench report {d.get('name')!r}: " + "; ".join(errors)
            )
        timing = d.get("timing") or {}
        return cls(
            name=d["name"], title=d.get("title", d["name"]),
            scale=d["scale"], rows=[dict(r) for r in d["rows"]],
            key=tuple(d["key"]),
            deterministic=tuple(d.get("deterministic", ())),
            higher_is_better=tuple(d.get("higher_is_better", ())),
            lower_is_better=tuple(d.get("lower_is_better", ())),
            expectations=list(d.get("expectations", ())),
            extra=dict(d.get("extra", {})),
            metrics=d.get("metrics"),
            wall_s=timing.get("wall_s"), virtual_s=timing.get("virtual_s"),
            git_rev=d.get("git_rev"), env=dict(d.get("env", {})),
            created_unix=d.get("created_unix", 0.0),
        )

    def row_key(self, row: Mapping) -> str:
        return "|".join(str(row[k]) for k in self.key)

    def numeric_records(self) -> dict[str, dict]:
        """Row-key -> {column: numeric value} for every comparable field."""
        out: dict[str, dict] = {}
        for row in self.rows:
            rec = {k: v for k, v in row.items()
                   if k not in self.key and _is_numeric(v)}
            out[self.row_key(row)] = rec
        return out


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
    for col in d.get("deterministic", ()):
        if col not in columns and col not in d.get("extra", {}):
            errors.append(f"deterministic column {col!r} not in rows or extra")
    for exp in d.get("expectations", ()):
        if not isinstance(exp, Mapping) or exp.get("kind") not in _KINDS:
            errors.append(f"bad expectation {exp!r}")
    metrics = d.get("metrics")
    if metrics is not None and not isinstance(metrics, Mapping):
        errors.append("metrics must be a mapping or null")
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
                if op == "eq" and not v == ref:
                    return False
                if op == "ne" and not v != ref:
                    return False
                if op == "gt" and not v > ref:
                    return False
                if op == "ge" and not v >= ref:
                    return False
                if op == "lt" and not v < ref:
                    return False
                if op == "le" and not v <= ref:
                    return False
                if op == "in" and v not in ref:
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
    if agg not in _AGGS:
        raise ValueError(f"unknown agg {agg!r}")
    if agg == "only":
        if len(vals) != 1:
            raise ValueError(
                f"agg 'only' on col {col!r} matched {len(vals)} rows"
            )
        return vals[0]
    if agg == "first":
        return vals[0]
    if agg == "last":
        return vals[-1]
    if agg == "min":
        return min(vals)
    if agg == "max":
        return max(vals)
    if agg == "mean":
        return sum(vals) / len(vals)
    return sum(vals)


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
    offset = float(exp.get("offset", 0.0))
    if kind == "cmp":
        left = _resolve(exp["left"], rows, extra)
        right = _resolve(exp["right"], rows, extra)
        if not _apply_op(left, exp["op"], factor * right + offset):
            return (f"{_exp_label(exp)}: {left:.6g} !{exp['op']} "
                    f"{factor:.6g}*{right:.6g}+{offset:.6g}")
        return None
    if kind == "per_row":
        sel = _select(rows, exp.get("where"))
        if not sel:
            return f"{_exp_label(exp)}: no rows match {exp.get('where')!r}"
        for row in sel:
            left = float(row[exp["left_col"]])
            right = (float(row[exp["right_col"]]) if "right_col" in exp
                     else float(exp["right"]))
            if not _apply_op(left, exp["op"], factor * right + offset):
                return (f"{_exp_label(exp)}: row "
                        f"{ {k: row[k] for k in exp.get('show', ())} or row}"
                        f" has {exp['left_col']}={left:.6g} !{exp['op']} "
                        f"{factor:.6g}*{right:.6g}+{offset:.6g}")
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
        if not _apply_op(lval, exp["op"], factor * rval + offset):
            return (f"{_exp_label(exp)}: ratio {lval:.6g} !{exp['op']} "
                    f"{factor:.6g}*{rval:.6g}+{offset:.6g}")
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
    """Aggregate per-bench reports into one ``BENCH_<scale>`` trajectory."""
    benches = {}
    for d in sorted(reports, key=lambda r: r["name"]):
        if d["scale"] != scale:
            continue
        rep = BenchReport.from_dict(d)
        benches[rep.name] = {
            "title": rep.title,
            "key": list(rep.key),
            "n_rows": len(rep.rows),
            "deterministic": list(rep.deterministic),
            "higher_is_better": list(rep.higher_is_better),
            "lower_is_better": list(rep.lower_is_better),
            "records": rep.numeric_records(),
            "extra": {k: v for k, v in rep.extra.items() if _is_numeric(v)},
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
    counts as a regression under the active policy."""

    bench: str
    field: str
    kind: str                 # "deterministic" | "wall" | "structure"
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


def compare_trajectories(base: Mapping, cur: Mapping, *,
                         wall_rtol: float | None = None) -> list[Delta]:
    """Field-by-field comparison of two trajectory files.

    Deterministic fields compare exactly (ints/bools) or at ``DET_RTOL``
    (floats); a mismatch is a regression.  Wall-clock fields are skipped
    unless ``wall_rtol`` is given, in which case a change beyond the
    tolerance — in the *worse* direction when the column declares one —
    is a regression.  Structural drift (missing bench, row-count change,
    missing field) always regresses.
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
        det = set(b.get("deterministic", ()))
        hib = set(b.get("higher_is_better", ()))
        lib = set(b.get("lower_is_better", ()))
        pairs = [(rk, col, rec.get(col), None)
                 for rk, rec in sorted(b.get("records", {}).items())
                 for col in rec]
        pairs += [("<extra>", k, v, None)
                  for k, v in sorted(b.get("extra", {}).items())]
        for rk, col, bval, _ in pairs:
            if rk == "<extra>":
                cval = c.get("extra", {}).get(col)
                fieldname = f"extra.{col}"
            else:
                cval = c.get("records", {}).get(rk, {}).get(col)
                fieldname = f"{rk}.{col}"
            if cval is None:
                deltas.append(Delta(name, fieldname, "structure", bval,
                                    "missing", True, "field disappeared"))
                continue
            if col in det:
                if isinstance(bval, bool) or isinstance(cval, bool) \
                        or (isinstance(bval, int) and isinstance(cval, int)):
                    same = bval == cval
                else:
                    same = math.isclose(float(bval), float(cval),
                                        rel_tol=DET_RTOL, abs_tol=DET_ATOL)
                if not same:
                    deltas.append(Delta(name, fieldname, "deterministic",
                                        bval, cval, True,
                                        "deterministic field changed"))
                elif bval != cval:
                    deltas.append(Delta(name, fieldname, "deterministic",
                                        bval, cval, False, "within DET_RTOL"))
                continue
            # wall-clock-derived field
            if wall_rtol is None:
                continue
            try:
                bf, cf = float(bval), float(cval)
            except (TypeError, ValueError):
                continue
            lo = bf - wall_rtol * abs(bf)
            hi = bf + wall_rtol * abs(bf)
            if col in hib:
                bad = cf < lo
                note = "throughput-like value fell" if bad else ""
            elif col in lib:
                bad = cf > hi
                note = "time-like value rose" if bad else ""
            else:
                bad = not (lo <= cf <= hi)
                note = "wall value drifted" if bad else ""
            if bad or cf != bf:
                deltas.append(Delta(name, fieldname, "wall", bval, cval,
                                    bad, note))
    for name in sorted(set(cur_benches) - set(base_benches)):
        deltas.append(Delta(name, "<bench>", "structure", "missing",
                            "present", False, "new bench (no baseline)"))
    return deltas


def regressions(deltas: Iterable[Delta]) -> list[Delta]:
    return [d for d in deltas if d.regressed]


def render_diff(base: Mapping, cur: Mapping, *,
                wall_rtol: float | None = None) -> str:
    """Readable old-vs-new comparison of two trajectory files."""
    deltas = compare_trajectories(base, cur, wall_rtol=wall_rtol)
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
