"""Command line of the benchmark: ``python -m perfbench <command>``."""

from __future__ import annotations

import argparse
import json
import sys

from perfbench.spec import DEFAULT_SEED, RUN_SECONDS, WORKLOAD_BY_NAME, \
    manifest


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", choices=sorted(WORKLOAD_BY_NAME),
                     help="one workload (default: all five)")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="drives source sampling, arrivals and the edge "
                          "stream")
    run.add_argument("--seconds", type=float, default=RUN_SECONDS,
                     help="wall seconds of the end-to-end timed region")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0 = end-to-end pass, 1 = traced per-layer pass "
                          "(default: both)")
    run.add_argument("--reps", type=int, default=1,
                     help="fresh-process runs per pass; medians are reported")
    run.add_argument("--quick", action="store_true",
                     help="smoke mode: 4%% graphs, 3 batches per workload")
    run.add_argument("--out", help="write the full results as JSON here")

    compare = sub.add_parser("compare", help="judge new against base")
    compare.add_argument("base")
    compare.add_argument("new")

    sub.add_parser("manifest", help="print BENCHMARK.json")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        from perfbench import run

        return run.main(args)
    if args.command == "compare":
        from perfbench import compare

        return compare.main(args)
    print(json.dumps(manifest(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
