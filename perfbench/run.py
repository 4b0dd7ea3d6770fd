"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload icl_batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified;
``--trace 1`` wraps each layer's public functions with span recorders and
reports the per-layer metrics instead.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def _metric_specs() -> tuple[dict, dict]:
    spec = json.loads(BENCHMARK.read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread (set before numpy loads), and one CPU for the whole
    # process: the caller thread and the engine's stepping thread take turns
    # on the GIL anyway, and handing it between two CPUs made serving
    # latency both slower and far noisier than handing it on one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    end_to_end, per_layer = _metric_specs()
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    wanted = per_layer if args.trace else end_to_end
    values = outcome.layers if args.trace else outcome.metrics
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not report {missing}")

    # The workload's own named metrics first, then the generic ones of
    # BENCHMARK.json that the named list does not already show.
    for name, value, unit in outcome.named:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    shown = {name for name, _, _ in outcome.named}
    for name in wanted:
        if name not in shown:
            print(f"{args.workload} {name} = {values[name]:.6g} {wanted[name]}")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in wanted.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
