"""Run every workload of the ctwasm benchmark, one process after another.

    python3 perfbench/suite.py [--seconds 20] [--seed 1]
    python3 perfbench/suite.py --determinism [--seconds 20] [--seed 1]

The first form runs each workload untraced, then traced, and prints every
end-to-end metric with its unit, ``fail_ratio`` against ops attempted, the
per-layer metrics, the tracing overhead (traced against untraced
``ops_per_s``) and, for the toolchain, one row of per-module layer times
per kind of input, scaled to reference speed like the end-to-end times.
All results go to ``perfbench/out/suite-<seed>.json``.

``--determinism`` runs each traced workload twice on the same seed, checks
that the exact counts repeat, and records them in ``perfbench/baseline.json``
for later changes to cite, with the ones that a third run, on the next
seed, finds unchanged; traced runs then check the counts in ``run.GATED``
against it.  It exits 1 if a count differs between the two runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import NOMINAL_S  # noqa: E402

ORDER = ("ct-sha256-long", "ct-corpus", "toolchain", "ct-leak-late")
# counts that must repeat exactly for one seed
EXACT = ("interp.steps", "binary.bytes", "infer.rounds", "validate.rejected",
         "leakage.divergence_step")
TABLE = ("text.parse_ms", "validate.ms", "binary.encode_ms", "binary.decode_ms",
         "text.print_ms", "strip.ms", "infer.ms")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(f"{workload} (trace {trace}) failed: exit {proc.returncode}")
    detail = json.loads(lines[-2][len("detail "):])
    detail["result"] = json.loads(lines[-1])
    return detail


def show(detail: dict) -> None:
    r = detail["result"]
    print(f"  trace={detail['trace']} ops attempted={r['attempted']} "
          f"failed={r['failed']} fail_ratio={detail['fail_ratio']:.4g} "
          f"correct={r['correct']} samples={detail['samples']}")
    for name, m in detail["metrics"].items():
        print(f"    {name:28s} {m['value']:14.6g} {m['unit']}")
    if detail["trace"] == 0 and "op_ms.p90" not in detail["metrics"]:
        print(f"    {'op_ms.p90':28s} {'absent':>14s} (fewer than 100 ops)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--determinism", action="store_true")
    a = ap.parse_args(argv)

    if a.determinism:
        baseline, any_seed, same = {}, {}, True
        for w in ORDER:
            runs = [run(w, seed, a.seconds, 1) for seed in (a.seed, a.seed, a.seed + 1)]
            first, again, other = ({k: r["metrics"][k]["value"] for k in EXACT}
                                   for r in runs)
            for k in EXACT:
                ok = first[k] == again[k]
                same &= ok
                print(f"{w:16s} {k:26s} {first[k]:14.10g} "
                      f"{'repeats' if ok else f'DIFFERS: {again[k]:.10g}'}"
                      f"{'' if other[k] == first[k] else ', other seed differs'}")
            baseline[w] = first
            any_seed[w] = [k for k in EXACT if other[k] == first[k]]
        if same:
            env = runs[0]["env"]
            doc = {"seed": a.seed, "commit": env["commit"], "python": env["python"],
                   "per_op_counts": baseline, "seed_independent": any_seed}
            (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
            print("wrote perfbench/baseline.json")
        return 0 if same else 1

    results = {}
    for w in ORDER:
        plain, traced = run(w, a.seed, a.seconds, 0), run(w, a.seed, a.seconds, 1)
        results[w] = {"untraced": plain, "traced": traced}
        print(f"{w}")
        show(plain)
        show(traced)
        ops = plain["metrics"]["ops_per_s"]["value"]
        tops = traced["metrics"]["trace.ops_per_s"]["value"]
        print(f"    tracing overhead: traced ops_per_s / untraced = {tops / ops:.3f}")
        run_ms = traced["metrics"]["interp.run_ms"]["value"]
        share = run_ms / traced["raw"]["op_ms.mean"]
        print(f"    interp.run self time: {share:.1%} of traced op wall time")
        if "by_kind" in traced:
            scale = NOMINAL_S * 1000 / traced["raw"]["reference_ms.p50"]
            print(f"    per-module ms at reference speed, by input kind: {', '.join(TABLE)}")
            for kind, m in traced["by_kind"].items():
                print(f"      {kind:10s} " + " ".join(f"{m[k] * scale:7.3f}" for k in TABLE))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"suite-{a.seed}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {(out / f'suite-{a.seed}.json').relative_to(ROOT)}")
    return 0 if all(r[t]["result"]["correct"] for r in results.values()
                    for t in r) else 1


if __name__ == "__main__":
    sys.exit(main())
