"""Spans around the public functions of each ctwasm layer, from outside.

``Tracer.install`` replaces each listed function, in every ctwasm module
that holds a reference to it, with a wrapper that records a span (name,
start, end, parent, op id) plus a few exact counts read from the call's
arguments or result.  Nothing under ``src/`` changes.  Spans are kept in
memory and written out once, when the run ends.

Self time is a span's duration minus the time its child spans cover;
children of one span never overlap because the load is one thread.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, function) pairs wrapped in the traced run
WRAPPED = (
    ("text", "parse_module"), ("text", "print_module"),
    ("validate", "check_module"), ("validate", "validate_module"),
    ("binary", "encode_module"), ("binary", "decode_module"),
    ("strip", "strip_module"),
    ("infer", "infer_labels"),
    ("interp", "instantiate"), ("interp", "run"), ("interp", "invoke"),
    ("leakage", "lockstep_check"), ("leakage", "configs_indist"),
    ("leakage", "randomized_ct_trial"),
    ("corpus", "run_vector"), ("corpus", "strip_and_rerun"),
    ("corpus", "run_corpus"),
)


# counts summed over spans; the others are averaged per call
ADDITIVE = ("chars", "rejected", "bytes", "rounds", "steps")


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    kind: str = ""  # op spans only: the kind of input the op ran on

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, ctw):
        self.ctw = ctw  # namespace holding the imported ctwasm modules
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op: int | None = None  # spans are recorded only inside an op
        self.lockstep_calls: list[tuple[Span, inspect.BoundArguments]] = []
        self.plain_pair_s = 0.0  # two plain invokes per recorded lockstep call
        self.lockstep_s = 0.0  # the recorded lockstep calls themselves

    # -- installation

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "ctwasm" or name.startswith("ctwasm.")]
        for modname, fname in WRAPPED:
            orig = getattr(getattr(self.ctw, modname), fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapper)

    def _wrap(self, name: str, fn):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            ba = sig.bind(*args, **kwargs) if before or after else None
            if before:
                before(self, span, ba)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if after:
                after(self, span, ba, result)
            return result

        return wrapper

    # -- ops

    def begin_op(self, op: int, kind: str) -> None:
        self.op = op
        self.stack.append(len(self.spans))
        self.spans.append(Span("op", None, op, time.perf_counter(), kind=kind))

    def end_op(self) -> None:
        self.spans[self.stack.pop()].end = time.perf_counter()
        self.op = None

    def measure_plain_pairs(self) -> None:
        """Time two plain ``interp.invoke`` runs of each recorded lockstep
        call's twin inputs, outside any op, for ``leakage.overhead_ratio``."""
        interp = self.ctw.interp
        for span, ba in self.lockstep_calls:
            a = ba.arguments
            factory = a.get("imports_factory")
            t0 = time.perf_counter()
            for args, image in ((a["args_a"], a.get("image_a")),
                                (a["args_b"], a.get("image_b"))):
                store, idx = interp.instantiate(
                    interp.Store(), a["tm"], factory() if factory else None)
                mem = store.insts[idx].mem_addr
                for off, chunk in (image or {}).items():
                    store.mems[mem].data[off:off + len(chunk)] = chunk
                interp.invoke(store, idx, a["export"], args, fuel=a.get("fuel"))
            self.plain_pair_s += time.perf_counter() - t0
            self.lockstep_s += span.dur
        self.lockstep_calls.clear()

    # -- results

    def kinds(self) -> list[str]:
        return sorted({s.kind for s in self.spans if s.name == "op"})

    def metrics(self, kind: str | None = None) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per op, as {name: (value, unit)}; over the
        ops on inputs of one ``kind`` when given."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        spans = list(enumerate(self.spans))
        if kind is not None:
            chosen = {s.op for _, s in spans if s.name == "op" and s.kind == kind}
            spans = [(i, s) for i, s in spans if s.op in chosen]
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, float] = defaultdict(float)
        ops = ratio_sum = ratio_n = 0
        div_steps = []
        for i, s in spans:
            if s.name == "op":
                ops += 1
                continue
            self_s[s.name] += s.dur - child[i]
            calls[s.name] += 1
            parent = self.spans[s.parent].name if s.parent is not None else None
            incl_s[(s.name, parent)] += s.dur
            for k in ADDITIVE:
                counts[k] += s.counts.get(k, 0)
            if "size_ratio" in s.counts:
                ratio_sum += s.counts["size_ratio"]
                ratio_n += 1
            if "divergence_step" in s.counts:
                div_steps.append(s.counts["divergence_step"])
        n = max(ops, 1)

        def ms(*names):
            return sum(self_s[x] for x in names) * 1000 / n

        def incl_ms(name, parent=None):
            return sum(v for (x, p), v in incl_s.items()
                       if x == name and (parent is None or p == parent)) * 1000 / n

        run_s = self_s["interp.run"]
        parse_s = self_s["text.parse_module"]
        return {
            "interp.run_ms": (ms("interp.run"), "ms"),
            "interp.msteps_per_s": (counts["steps"] / run_s / 1e6 if run_s else 0.0, "Msteps/s"),
            "interp.steps": (counts["steps"] / n, "count"),
            "interp.run_calls": (calls["interp.run"] / n, "count"),
            "interp.instantiate_ms": (ms("interp.instantiate"), "ms"),
            "leakage.overhead_ratio": (self.lockstep_s / self.plain_pair_s
                                       if self.plain_pair_s else 0.0, "ratio"),
            "leakage.configs_indist_ms": (ms("leakage.configs_indist"), "ms"),
            "leakage.lockstep_self_ms": (ms("leakage.lockstep_check"), "ms"),
            "leakage.divergence_step": (sum(div_steps) / len(div_steps)
                                        if div_steps else 0.0, "count"),
            "corpus.vectors_ms": (incl_ms("corpus.run_vector"), "ms"),
            "corpus.strip_rerun_ms": (incl_ms("corpus.strip_and_rerun"), "ms"),
            "corpus.ct_trial_ms": (incl_ms("leakage.randomized_ct_trial",
                                           "corpus.run_corpus"), "ms"),
            "text.parse_ms": (ms("text.parse_module"), "ms"),
            "text.parse_kchars_per_s": (counts["chars"] / parse_s / 1000
                                        if parse_s else 0.0, "kchars/s"),
            "text.print_ms": (ms("text.print_module"), "ms"),
            "validate.ms": (ms("validate.check_module", "validate.validate_module"), "ms"),
            "validate.rejected": (counts["rejected"] / n, "count"),
            "binary.encode_ms": (ms("binary.encode_module"), "ms"),
            "binary.decode_ms": (ms("binary.decode_module"), "ms"),
            "binary.bytes": (counts["bytes"] / n, "count"),
            "strip.ms": (ms("strip.strip_module"), "ms"),
            "strip.size_ratio": (ratio_sum / ratio_n if ratio_n else 0.0, "ratio"),
            "infer.ms": (ms("infer.infer_labels"), "ms"),
            "infer.rounds": (counts["rounds"] / n, "count"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "parent": s.parent, "op": s.op,
                       "start": s.start, "end": s.end, **s.counts}
                if s.kind:
                    rec["kind"] = s.kind
                fh.write(json.dumps(rec) + "\n")


# -- counts read at layer boundaries: before(tracer, span, bound_args) runs
# ahead of the call, after(tracer, span, bound_args, result) once it returns

def _parse_before(tr, span, ba):
    span.counts["chars"] = len(ba.arguments["text"])


def _run_before(tr, span, ba):
    span.counts["steps"] = ba.arguments["cfg"].fuel


def _run_after(tr, span, ba, result):
    span.counts["steps"] -= ba.arguments["cfg"].fuel  # one unit of fuel per step


def _check_after(tr, span, ba, result):
    span.counts["rejected"] = int(bool(result[1]))


def _encode_after(tr, span, ba, data):
    span.counts["bytes"] = len(data)


def _strip_after(tr, span, ba, report):
    span.counts["size_ratio"] = report.size_ratio


def _infer_after(tr, span, ba, result):
    span.counts["rounds"] = tr.ctw.infer.fixpoint_stats(result)[0]


def _lockstep_after(tr, span, ba, verdict):
    tr.lockstep_calls.append((span, ba))
    if verdict.kind == "diverged":
        span.counts["divergence_step"] = verdict.step


_BEFORE = {"text.parse_module": _parse_before, "interp.run": _run_before}
_AFTER = {
    "interp.run": _run_after,
    "validate.check_module": _check_after,
    "binary.encode_module": _encode_after,
    "strip.strip_module": _strip_after,
    "infer.infer_labels": _infer_after,
    "leakage.lockstep_check": _lockstep_after,
}
