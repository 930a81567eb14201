"""Compare two checkouts on the benchmark in alternating pairs of runs.

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, on
the same seed, one process at a time; the side that runs first alternates
from pair to pair, so that a drift in the host's speed falls on both.
Pair k uses seed ``first_seed + k``.  For each workload and end-to-end
metric it prints each side's median and quartiles and the number of
pairs the change won, by the metric's direction in ``BENCHMARK.json``:

    python3 tests/bench_pairs.py ../parent . --workloads toolchain \\
        --pairs 10 --first-seed 30001 --seconds 20

Each checkout's program is the one under its own ``src/``.  A run that
fails or reports ``"correct": false`` stops the comparison.  Nothing
under ``perfbench/`` changes.  Pytest does not collect this file: its
name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} is not correct")
    return {k: m["value"] for k, m in result["metrics"].items()}


def summary(values: list[float]) -> str:
    """``median [q1, q3]`` of ``values``."""
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    a = ap.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"parent": a.parent.resolve(), "change": a.change.resolve()}
    for workload in a.workloads:
        runs = {"parent": [], "change": []}
        for k in range(a.pairs):
            seed = a.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, seed,
                                           a.seconds))
            print(f"# {workload} pair {k} seed {seed}: " + "  ".join(
                f"{side} {runs[side][-1]['ops_per_s']:.4g} ops/s"
                for side in order), file=sys.stderr, flush=True)
        print(f"{workload}: {a.pairs} pairs of {a.seconds:g} s, seeds "
              f"{a.first_seed}-{a.first_seed + a.pairs - 1}")
        print(f"  {'metric':12s} {'parent median [q1, q3]':>30s} "
              f"{'change median [q1, q3]':>30s} {'change':>8s} {'won':>6s}")
        for metric, direction in better.items():
            p = [r[metric] for r in runs["parent"]]
            c = [r[metric] for r in runs["change"]]
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (y - x) > 0 for x, y in zip(p, c))
            print(f"  {metric:12s} {summary(p):>30s} {summary(c):>30s} "
                  f"{(statistics.median(c) / statistics.median(p) - 1) * 100:+7.1f}% "
                  f"{won:>3d}/{a.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
