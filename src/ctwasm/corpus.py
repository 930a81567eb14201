"""Bundled crypto corpus: loading and the end-to-end harness.

Each ``corpus/<name>/`` directory holds ``impl.cwat`` plus sidecars:
``expect.json`` (validation verdict, or the expected error code for the
negative suite), ``vectors.json`` (functional test vectors with frozen
expected outputs), and ``secrets.json`` (which inputs are secret, for the
constant-time trials).  ``run_corpus`` drives every entry through
validation, the vectors, strip-and-rerun equivalence, and randomized
lockstep trials.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path

from . import ast, interp, leakage, strip, text, validate
from .interp import Store, Value, parse_value
from .leakage import SecretInput, TrialSpec


def default_root() -> Path:
    env = os.environ.get("CTWASM_CORPUS")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[2] / "corpus"


@dataclass
class Vector:
    name: str
    invoke: str
    args: list[Value]
    memory_in: dict[int, bytes]
    expect_memory: dict[int, bytes]
    expect_results: list[Value]


@dataclass
class CorpusEntry:
    name: str
    path: Path
    module: ast.Module
    expect: dict
    vectors: list[Vector]
    trial: TrialSpec | None

    @property
    def positive(self) -> bool:
        return bool(self.expect.get("validates"))


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    return doc


def _count(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)) or \
            not str(value).strip().isdecimal():
        raise ValueError(f"{what} must be a non-negative integer, "
                         f"got {value!r}")
    return int(value)


def _hex_map(doc) -> dict[int, bytes]:
    out = {}
    for k, v in _object(doc, "a memory image").items():
        if not isinstance(v, str):
            raise ValueError(f"bytes at {k} must be a hex string")
        out[_count(k, "an address")] = bytes.fromhex(v)
    return out


def load_trial_spec(doc) -> TrialSpec:
    """A trial spec from its JSON form; raises ValueError if malformed."""
    invoke = _object(doc, "a trial spec").get("invoke")
    if not isinstance(invoke, str):
        raise ValueError("a trial spec names the export to invoke")
    secrets = []
    for name, spec in _object(doc.get("secrets", {}), "secrets").items():
        spec = _object(spec, f"secret {name!r}")
        if "offset" in spec:
            secrets.append(SecretInput(
                name, offset=_count(spec["offset"], f"offset of {name!r}"),
                length=_count(spec.get("length"), f"length of {name!r}")))
        else:
            secrets.append(SecretInput(
                name, param=_count(spec.get("param"), f"param of {name!r}")))
    args = doc.get("args", [])
    if not isinstance(args, list) or not all(isinstance(a, str) for a in args):
        raise ValueError("args must be a list of type:value literals")
    fuel = doc.get("fuel")
    return TrialSpec(
        export=invoke,
        args=[parse_value(a) for a in args],
        secrets=secrets,
        image=_hex_map(doc.get("image", {})),
        fuel=None if fuel is None else _count(fuel, "fuel"),
    )


@functools.lru_cache(maxsize=32)
def _parse(src: str, name: str) -> ast.Module:
    return text.parse_module(src, name)


def load_entry(path: Path) -> CorpusEntry:
    """The entry in ``path``.  ``impl.cwat`` is read on every call but
    parsed once per content; the frozen AST is shared between calls."""
    module = _parse((path / "impl.cwat").read_text(), str(path / "impl.cwat"))
    expect = json.loads((path / "expect.json").read_text())
    vectors = []
    vpath = path / "vectors.json"
    if vpath.exists():
        for doc in json.loads(vpath.read_text())["vectors"]:
            vectors.append(Vector(
                name=doc["name"],
                invoke=doc["invoke"],
                args=[parse_value(a) for a in doc.get("args", [])],
                memory_in=_hex_map(doc.get("memory_in", {})),
                expect_memory=_hex_map(doc.get("expect_memory", {})),
                expect_results=[parse_value(v)
                                for v in doc.get("expect_results", [])],
            ))
    trial = None
    spath = path / "secrets.json"
    if spath.exists():
        trial = load_trial_spec(json.loads(spath.read_text()))
    return CorpusEntry(path.name, path, module, expect, vectors, trial)


def entries(root: Path | None = None) -> list[CorpusEntry]:
    root = root or default_root()
    out = []
    for d in sorted(root.iterdir()):
        if d.is_dir() and (d / "impl.cwat").exists():
            out.append(load_entry(d))
    return out


VECTOR_FUEL = 10_000_000


@dataclass
class VectorRun:
    """What one run of a vector leaves: how it ended, its results' bits
    and its final memory (None without one)."""
    status: str
    trap_kind: str | None
    results: list[int]
    memory: bytearray | None


def _run(tm: validate.TypedModule, vec: Vector, args: list[Value],
         fuel: int = VECTOR_FUEL) -> VectorRun:
    store, idx = interp.instantiate(Store(), tm)
    interp.write_image(store, idx, vec.memory_in)
    out = interp.invoke(store, idx, vec.invoke, args, fuel=fuel, trace=None)
    mem_addr = store.insts[idx].mem_addr
    return VectorRun(out.status, out.trap_kind, [v.bits for v in out.results],
                     None if mem_addr is None else store.mems[mem_addr].data)


def run_vector(tm: validate.TypedModule, vec: Vector, fuel: int = VECTOR_FUEL,
               runs: list[VectorRun] | None = None) -> tuple[bool, str]:
    """Run one functional vector; compares results and memory bit-exactly.
    The run is appended to ``runs`` when given."""
    run = _run(tm, vec, vec.args, fuel)
    if runs is not None:
        runs.append(run)
    if run.status != "done":
        return False, f"{vec.name}: {run.status} ({run.trap_kind})"
    if vec.expect_results:
        want = [v.bits for v in vec.expect_results]
        if run.results != want:
            return False, f"{vec.name}: results {run.results} != {want}"
    for off, want in vec.expect_memory.items():
        got = bytes(run.memory[off:off + len(want)])
        if got != want:
            return False, (f"{vec.name}: memory[{off}:{off + len(want)}] "
                           f"= {got.hex()} != {want.hex()}")
    return True, vec.name


def _vector_outcome(tm: validate.TypedModule, vec: Vector,
                    runs: list[VectorRun]) -> tuple[bool, str]:
    """``run_vector``, with a memory image that does not fit as a failure."""
    try:
        return run_vector(tm, vec, runs=runs)
    except ValueError as e:
        return False, f"{vec.name}: {e}"


def strip_and_rerun(entry: CorpusEntry, tm: validate.TypedModule,
                    annotated: list[VectorRun]
                    ) -> tuple[bool, str, strip.StripReport]:
    """Erase annotations and check that every vector's stripped run agrees
    bit-for-bit with its run on ``tm`` (given in ``annotated``, as
    ``run_vector`` leaves them at its default fuel)."""
    report = strip.strip_module(tm)
    stripped = validate.validate_module(report.module)
    for vec, a in zip(entry.vectors, annotated, strict=True):
        b = _run(stripped, vec,
                 [Value(ast.public_type(v.type), v.bits) for v in vec.args])
        if (a.status, a.trap_kind) != (b.status, b.trap_kind):
            return False, f"{vec.name}: termination differs", report
        if a.results != b.results:
            return False, f"{vec.name}: results differ", report
        if a.memory != b.memory:
            return False, f"{vec.name}: final memory differs", report
    return True, "stripped run agrees", report


def run_corpus(root: Path | None = None, trials: int = 20,
               seed: int = 42) -> dict:
    """Validate, run vectors, strip and re-run, and lockstep-check every
    entry; returns an aggregate report keyed by entry name."""
    report: dict = {"entries": {}, "ok": True}
    for entry in entries(root):
        stages: dict = {}
        report["entries"][entry.name] = stages
        tm, errs = validate.check_module(entry.module)
        if not entry.positive:
            want = entry.expect.get("error")
            codes = [e.code.value for e in errs]
            stages["validate"] = ("rejected:" + ",".join(codes)) \
                if errs else "unexpectedly accepted"
            stages["ok"] = want in codes
        else:
            stages["validate"] = "accepted" if not errs else \
                "; ".join(str(e) for e in errs)
            okay = not errs
            if okay and entry.expect.get("trust") == "untrusted":
                okay = all(f.type.trust is ast.Trust.UNTRUSTED
                           for f in entry.module.funcs)
                stages["trust"] = "all untrusted" if okay else "trusted leak"
            if okay:
                runs: list[VectorRun] = []
                results = [_vector_outcome(tm, v, runs) for v in entry.vectors]
                stages["vectors"] = [d for _, d in results]
                okay = all(ok for ok, _ in results)
            if okay:
                ok, detail, srep = strip_and_rerun(entry, tm, runs)
                stages["strip"] = {
                    "detail": detail,
                    "warnings": [w.to_json() for w in srep.warnings],
                    "size_ratio": round(srep.size_ratio, 4),
                }
                okay = ok and not srep.warnings
            if okay and entry.trial is not None:
                tr = leakage.randomized_ct_trial(tm, entry.trial,
                                                 trials=trials, seed=seed)
                stages["ct-check"] = tr.to_json()
                okay = tr.ok
            stages["ok"] = okay
        report["ok"] = report["ok"] and stages["ok"]
    return report
