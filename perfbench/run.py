"""Run one workload of the ctwasm benchmark and print its metrics.

    python3 perfbench/run.py --workload ct-sha256-long --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/`` and
the corpus read from ``corpus/``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it wraps the layers' public
functions (see ``tracing.py``), reports per-layer metrics per op, writes
its spans to ``perfbench/out/`` and reports ``"correct": false`` if an
exact count that no change may move differs from ``baseline.json``.
``--setup-only`` times one set-up and prints it; an untraced run starts
itself that way for its repeated set-up samples.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it, prefixed ``detail``, also carries the sample count,
``op_ms.p90`` (on runs of 100 ops or more), the raw times, ``fail_ratio``,
the first failures and the environment.

Times are reported at reference speed (see ``reference.py``): each is
divided by the time of a fixed loop measured just before it and scaled to
that loop's nominal 10 ms, which cancels the shared host's speed swings.

One thread; the extra set-up samples run in child processes one at a
time, after the ops.  Exits 2 without a result when the program or
the corpus is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from reference import NOMINAL_S, reference_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYERS = ("text", "binary", "validate", "interp", "leakage", "strip",
          "infer", "corpus")
SETUP_REPS = 9  # set-ups timed in an untraced run
# exact per-op counts that no change to the program may move; a traced run
# compares them with baseline.json (see suite.py --determinism)
GATED = ("leakage.divergence_step", "validate.rejected", "binary.bytes")


class SetupError(Exception):
    pass


def import_ctwasm() -> SimpleNamespace:
    """Import every ctwasm module from this checkout's ``src/``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        pkg = importlib.import_module("ctwasm")
    except ImportError as e:
        raise SetupError(f"cannot import ctwasm from {src}: {e}") from e
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SetupError(f"ctwasm imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"ctwasm.{m}")
                              for m in LAYERS})


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "commit": commit(), "seed": seed}


def setup(workload: str, seed: int):
    """Import every ctwasm module and build the workload's inputs; returns the modules, the workload and the seconds it took, raw and at
    reference speed."""
    ref = reference_s()
    t0 = time.perf_counter()
    ctw = import_ctwasm()
    wl = WORKLOADS[workload](ctw, ROOT, random.Random(seed))
    raw = time.perf_counter() - t0
    return ctw, wl, raw, raw * NOMINAL_S / ref


def measure(wl, seconds: float, tracer) -> dict:
    """Run whole rounds of ops until the ops have taken ``seconds``."""
    op_s, rounds = [], []  # rounds: (first op, end, reference seconds)
    failures = []  # the first few messages
    failed = 0
    self_check = None  # was a deliberately wrong expectation caught?
    while True:
        ref = reference_s()  # how fast the machine runs this round
        start = len(op_s)
        for inp in wl.round():
            if tracer:
                tracer.begin_op(len(op_s), inp.kind)
            t0 = time.perf_counter()
            try:
                out, err = wl.op(inp), None
            except Exception as e:  # a raw exception is a failed op
                out, err = None, f"{inp.name}: raised {type(e).__name__}: {e}"
            op_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
            if err is None:
                try:
                    err = wl.check(inp, out)
                except Exception as e:
                    err = f"{inp.name}: check raised {type(e).__name__}: {e}"
            if tracer:
                tracer.measure_plain_pairs()
            if err is not None:
                failed += 1
                failures += [err][:5 - len(failures)]
            elif self_check is None:
                wrong = replace(inp, expect=wl.corrupt(inp.expect))
                try:
                    self_check = wl.check(wrong, out) is not None
                except Exception:
                    self_check = True  # rejected loudly is still rejected
        rounds.append((start, len(op_s), ref))
        if sum(op_s) >= seconds:
            return {"op_s": op_s, "rounds": rounds,
                    "failed": failed, "failures": failures,
                    "self_check": bool(self_check)}


def baseline_mismatches(workload: str, seed: int, metrics: dict) -> list[str]:
    """The GATED counts that differ from baseline.json, as messages.  A
    count is compared on the baseline's seed, and on any seed when the
    baseline found it the same on two seeds."""
    base = json.loads((HERE / "baseline.json").read_text())
    counts = base["per_op_counts"].get(workload, {})
    any_seed = base.get("seed_independent", {}).get(workload, [])
    return [f"{k} is {metrics[k][0]!r}, baseline.json has {counts[k]!r}"
            for k in GATED
            if k in counts and (seed == base["seed"] or k in any_seed)
            and metrics[k][0] != counts[k]]


def percentile(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this fresh process and print it")
    a = ap.parse_args(argv)

    try:
        ctw, wl, *first = setup(a.workload, a.seed)
    except (SetupError, OSError, ValueError) as e:
        print(f"run.py: set-up failed: {e}", file=sys.stderr)
        return 2
    if a.setup_only:
        print(json.dumps(first))
        return 0
    setup_s = [first]  # (raw, at reference speed)

    tracer = None
    if a.trace:
        tracer = tracing.Tracer(ctw)
        tracer.install()
    res = measure(wl, a.seconds, tracer)
    if not tracer:
        # more set-up samples for a steady median, each in a fresh process of
        # its own once the ops are done, so that neither this process's
        # memory nor its op times include them
        for _ in range(SETUP_REPS - 1):
            child = subprocess.run(
                [sys.executable, __file__, "--workload", a.workload,
                 "--seed", str(a.seed), "--seconds", "0", "--setup-only"],
                capture_output=True, text=True, timeout=120, check=True)
            setup_s.append(json.loads(child.stdout.splitlines()[-1]))
    op_s, failures, failed = res["op_s"], res["failures"], res["failed"]
    ops = len(op_s)
    rounds = res["rounds"]
    norm = [t * NOMINAL_S / ref for i, j, ref in rounds for t in op_s[i:j]]
    ms = sorted(t * 1000 for t in norm)
    ops_per_s = ops / sum(norm)  # over the whole timed loop
    mismatches = []
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        mismatches = baseline_mismatches(a.workload, a.seed, metrics)
        failures += mismatches
    else:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setup_s), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_ms.p50": (statistics.median(ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
        }
    raw_ms = sorted(t * 1000 for t in op_s)
    detail = {
        "workload": a.workload, "trace": a.trace, "seconds": a.seconds,
        "env": environment(a.seed), "samples": ops,
        "fail_ratio": failed / ops, "self_check": res["self_check"],
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw": {"setup_s": [r for r, _ in setup_s],
                "op_ms.p50": statistics.median(raw_ms),
                "op_ms.mean": statistics.fmean(raw_ms),
                "reference_ms.p50": statistics.median(r for *_, r in rounds) * 1000},
    }
    if ops >= 100:  # at least ten samples beyond it
        detail["metrics"]["op_ms.p90"] = {"value": percentile(ms, 0.9), "unit": "ms"}
        detail["raw"]["op_ms.p90"] = percentile(raw_ms, 0.9)
    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{a.workload}-{a.seed}.jsonl"
        tracer.write_spans(spans)
        detail["spans"] = str(spans.relative_to(ROOT))
        if len(tracer.kinds()) > 1:
            detail["by_kind"] = {k: {m: v for m, (v, _) in tracer.metrics(k).items()}
                                 for k in tracer.kinds()}

    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{a.workload} seed={a.seed} trace={a.trace} ops={ops} "
          f"failed={failed} fail_ratio={failed / ops:.4g} "
          f"self_check={'ok' if res['self_check'] else 'MISSED'}")
    for k, m in detail["metrics"].items():
        print(f"  {k:28s} {m['value']:14.6g} {m['unit']}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and res["self_check"] and not mismatches,
        "attempted": ops, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
