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


def load_entry(path: Path) -> CorpusEntry:
    module = text.parse_module((path / "impl.cwat").read_text(),
                               str(path / "impl.cwat"))
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


def _fresh_instance(tm: validate.TypedModule) -> tuple[Store, int]:
    return interp.instantiate(Store(), tm)


def _poke(store: Store, idx: int, image: dict[int, bytes]) -> None:
    mem_addr = store.insts[idx].mem_addr
    if mem_addr is None:
        if image:
            raise ValueError("vector pokes memory but module has none")
        return
    data = store.mems[mem_addr].data
    for off, chunk in image.items():
        data[off:off + len(chunk)] = chunk


def run_vector(tm: validate.TypedModule, vec: Vector,
               fuel: int = 10_000_000) -> tuple[bool, str]:
    """Run one functional vector; compares results and memory bit-exactly."""
    store, idx = _fresh_instance(tm)
    _poke(store, idx, vec.memory_in)
    out = interp.invoke(store, idx, vec.invoke, vec.args, fuel=fuel)
    if out.status != "done":
        return False, f"{vec.name}: {out.status} ({out.trap_kind})"
    if vec.expect_results:
        got = [v.bits for v in out.results]
        want = [v.bits for v in vec.expect_results]
        if got != want:
            return False, f"{vec.name}: results {got} != {want}"
    mem_addr = store.insts[idx].mem_addr
    for off, want in vec.expect_memory.items():
        got = bytes(store.mems[mem_addr].data[off:off + len(want)])
        if got != want:
            return False, (f"{vec.name}: memory[{off}:{off + len(want)}] "
                           f"= {got.hex()} != {want.hex()}")
    return True, vec.name


def strip_and_rerun(entry: CorpusEntry, tm: validate.TypedModule,
                    vectors: int = 0) -> tuple[bool, str, strip.StripReport]:
    """Erase annotations and check every vector agrees bit-for-bit."""
    report = strip.strip_module(tm)
    stripped = validate.validate_module(report.module)
    for vec in entry.vectors:
        pub_args = [Value(ast.public_type(v.type), v.bits) for v in vec.args]
        s1, i1 = _fresh_instance(tm)
        s2, i2 = _fresh_instance(stripped)
        _poke(s1, i1, vec.memory_in)
        _poke(s2, i2, vec.memory_in)
        a = interp.invoke(s1, i1, vec.invoke, vec.args)
        b = interp.invoke(s2, i2, vec.invoke, pub_args)
        if (a.status, a.trap_kind) != (b.status, b.trap_kind):
            return False, f"{vec.name}: termination differs", report
        if [v.bits for v in a.results] != [v.bits for v in b.results]:
            return False, f"{vec.name}: results differ", report
        ma, mb = s1.insts[i1].mem_addr, s2.insts[i2].mem_addr
        if ma is not None and bytes(s1.mems[ma].data) != bytes(s2.mems[mb].data):
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
        tm, errs = validate.check_module(entry.module, annotate=True)
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
                results = [run_vector(tm, v) for v in entry.vectors]
                stages["vectors"] = [d for _, d in results]
                okay = all(ok for ok, _ in results)
            if okay:
                ok, detail, srep = strip_and_rerun(entry, tm)
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
