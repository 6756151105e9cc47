"""``perfbench run``: spawn one fresh worker process per workload and pass.

The parent never imports ``repro``; it pins the environment, waits for each
worker, takes the median over ``--reps`` fresh processes, prints every
metric by name with its unit, and ends with one JSON line.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench.spec import END_TO_END, PER_LAYER, WORKLOADS

PKG_DIR = Path(__file__).resolve().parent
ROOT = PKG_DIR.parent
#: a hung worker must not outlive the contract's per-run limit
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the sim runtime is single-threaded; nproc is 2
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(PKG_DIR / ".cache")
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(args: dict) -> dict:
    """One worker process; returns its JSON document."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", json.dumps(args)],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker for {args['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload: str, *, seed: int, seconds: float, trace: int,
             quick: bool, reps: int) -> dict:
    """Median of ``reps`` fresh-process runs of one (workload, pass)."""
    docs = [run_worker({"workload": workload, "seed": seed,
                        "seconds": seconds, "trace": trace, "quick": quick})
            for _ in range(reps)]
    metrics = {}
    for name, first in docs[0]["metrics"].items():
        samples = [d["metrics"][name]["value"] for d in docs]
        metrics[name] = {"value": statistics.median(samples),
                         "unit": first["unit"], "reps": samples}
    return {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "failures": [f for d in docs for f in d["failures"]][:5],
        "metrics": metrics,
        "info": docs[-1]["info"],
    }


def _print_pass(workload: str, trace: int, doc: dict) -> None:
    declared = PER_LAYER if trace else END_TO_END
    clock = {m.name: m.clock for m in declared}
    label = "per-layer (traced)" if trace else "end-to-end (tracing off)"
    print(f"== {workload}: {label}; attempted={doc['attempted']} "
          f"failed={doc['failed']} info={json.dumps(doc['info'])}")
    for name, m in doc["metrics"].items():
        if trace and not m["value"]:
            continue  # a layer this workload never enters
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']:<6} "
              f"[{clock[name]}]")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")


def main(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    passes = [args.trace] if args.trace is not None else [0, 1]
    results: dict[str, dict] = {}
    for name in names:
        for trace in passes:
            doc = run_pass(name, seed=args.seed, seconds=args.seconds,
                           trace=trace, quick=args.quick, reps=args.reps)
            results.setdefault(name, {})["traced" if trace else
                                         "end_to_end"] = doc
            _print_pass(name, trace, doc)
    docs = [d for passes_of in results.values() for d in passes_of.values()]
    summary = {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
    }
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "reps": args.reps,
            "quick": args.quick, **summary, "workloads": results,
        }, indent=1))
    if len(docs) == 1:
        # the driver's contract: exactly these keys, values as measured
        summary["metrics"] = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in docs[0]["metrics"].items()
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
