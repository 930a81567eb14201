"""Indistinguishability relations and the lockstep twin checker.

Two runtime objects are indistinguishable when they differ only in secret
payloads: public values must match bit-for-bit, secret values only in
type, secret memories only in size.  The module provides the relations on
values, configurations, and per-step leakage actions, a canonical erasure
(public projection) whose equality coincides with the relations, and a
checker that runs two instantiations of the same module in lockstep and
reports the first observable difference.

A diverging pair is a concrete counterexample to the constant-time
guarantee; well-typed untrusted code must never produce one.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from . import ast, interp
from .interp import Config, Frame, HostPending, Store, Value
from .validate import TypedModule


class Incomparable(Exception):
    """The two objects do not share a shape (different modules/stores)."""


# --------------------------------------------------------------------------
# Relations

def values_indist(v1: Value, v2: Value) -> bool:
    """Types equal, payloads equal or both secret."""
    return v1.type == v2.type and (
        v1.bits == v2.bits or v1.type.sec is ast.Secrecy.SECRET)


def actions_indist(a1: tuple, a2: tuple) -> bool:
    """Per-variant comparison of leakage records.

    Every action already carries only what its step leaks (safe ops just
    their opcode, host calls public projections), so each clause below
    reduces to structural equality of the recorded payload.
    """
    if a1[0] != a2[0]:
        return False
    kind = a1[0]
    if kind == "op":  # safe ops: opcodes must match, operands are not leaked
        return a1[1] == a2[1]
    if kind == "secret-select":  # occurrence only
        return True
    if kind == "host":
        # untrusted hosts: public projections equal and closures identical
        return a1[1] == a2[1] and a1[2:] == a2[2:]
    # branches, memory accesses, unsafe binops, grow, calls: full payload
    return a1 == a2


def _project_frame(f) -> tuple:
    if isinstance(f, HostPending):
        return ("host", f.cl.key)
    types = f.ff.local_types
    locals_proj = tuple(interp.project_value(t, b)
                        for t, b in zip(types, f.locals))
    ann = f.ff.stack_types
    if ann is not None:
        slot_types = ann[f.pc]
        stack_proj = tuple(
            interp.project_value(t, b) if t is not None else ("?", None)
            for t, b in zip(slot_types, f.stack))
    else:
        # unannotated module (validation bypassed): depth only
        stack_proj = len(f.stack)
    return (f.ff.index, f.pc, tuple(f.labels), locals_proj, stack_proj)


def project_config(cfg: Config) -> tuple:
    """Canonical erasure of a configuration; idempotent by construction.

    Two configurations are related by the indistinguishability relation
    iff their projections are equal.
    """
    return (
        cfg.status,
        cfg.trap_kind,
        interp.project_store(cfg.store),
        tuple(_project_frame(f) for f in cfg.frames),
        tuple(interp.project_value(t, b)
              for t, b in zip(cfg.result_types, cfg.results)),
    )


def _stores_indist(s1: Store, s2: Store) -> bool:
    if len(s1.insts) != len(s2.insts) or len(s1.funcs) != len(s2.funcs) or \
            len(s1.globals) != len(s2.globals) or \
            len(s1.tables) != len(s2.tables) or len(s1.mems) != len(s2.mems):
        raise Incomparable("stores have different shapes")
    for i1, i2 in zip(s1.insts, s2.insts):
        if (i1.func_addrs, i1.global_addrs, i1.table_addr, i1.mem_addr) != \
                (i2.func_addrs, i2.global_addrs, i2.table_addr, i2.mem_addr):
            return False
    for c1, c2 in zip(s1.funcs, s2.funcs):
        if interp.project_closure(c1) != interp.project_closure(c2):
            return False
    for g1, g2 in zip(s1.globals, s2.globals):
        if g1.mutable != g2.mutable or g1.type != g2.type:
            return False
        if not values_indist(Value(g1.type, g1.bits), Value(g2.type, g2.bits)):
            return False
    for t1, t2 in zip(s1.tables, s2.tables):
        if t1 != t2:
            return False
    for m1, m2 in zip(s1.mems, s2.mems):
        if m1.sec is not m2.sec:
            return False
        if m1.sec is ast.Secrecy.SECRET:
            if len(m1.data) != len(m2.data):
                return False
        elif m1.data != m2.data:
            return False
    return True


def configs_indist(c1: Config, c2: Config) -> bool:
    """Clause-by-clause comparison of two configurations.

    Checked directly against the component relations (store, locals,
    operand stacks, residual instruction shape); agreement with
    projection equality is a tested invariant, not an implementation
    shortcut.
    """
    if len(c1.frames) != len(c2.frames):
        return False
    if c1.status != c2.status or c1.trap_kind != c2.trap_kind:
        return False
    if not _stores_indist(c1.store, c2.store):
        return False
    for f1, f2 in zip(c1.frames, c2.frames):
        if isinstance(f1, HostPending) or isinstance(f2, HostPending):
            if not (isinstance(f1, HostPending) and isinstance(f2, HostPending)
                    and f1.cl.key == f2.cl.key):
                return False
            continue
        if f1.ff.index != f2.ff.index or f1.pc != f2.pc or \
                f1.labels != f2.labels:
            return False  # residual instructions differ
        types = f1.ff.local_types
        if types != f2.ff.local_types:
            raise Incomparable("frames disagree on local declarations")
        for t, b1, b2 in zip(types, f1.locals, f2.locals):
            if not values_indist(Value(t, b1), Value(t, b2)):
                return False
        if len(f1.stack) != len(f2.stack):
            return False
        ann = f1.ff.stack_types
        if ann is not None:
            for t, b1, b2 in zip(ann[f1.pc], f1.stack, f2.stack):
                if t is None:
                    continue
                if not values_indist(Value(t, b1), Value(t, b2)):
                    return False
    if c1.status == interp.DONE:
        if c1.result_types != c2.result_types:
            raise Incomparable("different result types")
        for t, b1, b2 in zip(c1.result_types, c1.results, c2.results):
            if not values_indist(Value(t, b1), Value(t, b2)):
                return False
    return True


# --------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class Verdict:
    kind: str  # "indistinguishable" | "diverged" | "incomparable"
    step: int | None = None
    action_a: tuple | None = None
    action_b: tuple | None = None
    explanation: str = ""
    location: str | None = None  # func/pc/source position of the divergence

    @property
    def ok(self) -> bool:
        return self.kind == "indistinguishable"

    def to_json(self) -> dict:
        out = {"verdict": self.kind}
        if self.kind == "diverged":
            out.update(step=self.step,
                       action_a=_action_json(self.action_a),
                       action_b=_action_json(self.action_b),
                       explanation=self.explanation)
            if self.location:
                out["location"] = self.location
        elif self.explanation:
            out["reason"] = self.explanation
        return out


def _action_json(a):
    if a is None:
        return None
    return interp.action_to_json(0, a)


INDISTINGUISHABLE = Verdict("indistinguishable")


# --------------------------------------------------------------------------
# Lockstep twin execution

def _write_image(store: Store, inst_idx: int, image: dict[int, bytes] | None
                 ) -> None:
    if not image:
        return
    mem_addr = store.insts[inst_idx].mem_addr
    if mem_addr is None:
        raise Incomparable("memory image given but module has no memory")
    data = store.mems[mem_addr].data
    for offset, chunk in image.items():
        data[offset:offset + len(chunk)] = chunk


def _twin_config(tm: TypedModule, export: str, args: list[Value],
                 image: dict[int, bytes] | None, fuel: int,
                 imports_factory=None) -> Config:
    store = Store()
    imports = imports_factory() if imports_factory else None
    store, idx = interp.instantiate(store, tm, imports)
    _write_image(store, idx, image)
    return interp.make_config(store, idx, export, args, fuel)


def _locate(tm: TypedModule, export: str, args: list[Value],
            image: dict[int, bytes] | None, fuel: int, step: int,
            imports_factory=None) -> str | None:
    """Replay one twin up to the divergent step and name the instruction."""
    try:
        cfg = _twin_config(tm, export, args, image, fuel, imports_factory)
        cfg.trace = deque(maxlen=0)  # the frame is wanted, not the actions
        interp.run(cfg, max_steps=step)
        fr = cfg.frames[-1] if cfg.frames else None
        if isinstance(fr, Frame):
            origin = fr.ff.origins[fr.pc]
            loc = f"func {fr.ff.index} instr {fr.pc} ({ast.mnemonic(origin)})"
            if origin.span is not None:
                loc += f" at line {origin.span.line}:{origin.span.col}"
            return loc
    except Exception:
        pass
    return None


def lockstep_check(tm: TypedModule, export: str,
                   args_a: list[Value], args_b: list[Value],
                   image_a: dict[int, bytes] | None = None,
                   image_b: dict[int, bytes] | None = None,
                   fuel: int | None = None,
                   batch: int = 4096,
                   config_check_every: int = 8,
                   imports_factory=None,
                   require_untrusted: bool = True) -> Verdict:
    """Run two instantiations in lockstep and compare their leakage.

    The twins must start indistinguishable: arguments may differ only in
    secret-typed positions, memory images only when the memory is secret.
    The verdict reports the first differing step, or indistinguishability
    when both runs terminate the same way with matching traces and final
    states.  The twins run in batches of ``batch`` steps; each batch of
    actions is compared whole and then dropped, so memory does not grow
    with the length of the run.
    """
    fuel = interp.default_fuel() if fuel is None else fuel
    if len(args_a) != len(args_b):
        return Verdict("incomparable", explanation="argument arity differs")
    for i, (a, b) in enumerate(zip(args_a, args_b)):
        if a.type != b.type:
            return Verdict("incomparable",
                           explanation=f"argument {i} types differ")
        if a.type.sec is ast.Secrecy.PUBLIC and a.bits != b.bits:
            return Verdict("incomparable",
                           explanation=f"public argument {i} differs")
    ex = tm.module.exported(export)
    if require_untrusted:
        if ex is None or ex[0] != "func":
            return Verdict("incomparable", explanation=f"no function export "
                           f"{export!r}")
        if tm.module.funcs[ex[1]].type.trust is not ast.Trust.UNTRUSTED:
            return Verdict("incomparable",
                           explanation="export is trusted; the guarantee "
                           "only covers untrusted code")
    try:
        ca = _twin_config(tm, export, args_a, image_a, fuel, imports_factory)
        cb = _twin_config(tm, export, args_b, image_b, fuel, imports_factory)
    except (interp.InvokeError, interp.InstantiateError, Incomparable) as e:
        return Verdict("incomparable", explanation=str(e))

    try:
        if not configs_indist(ca, cb):
            return Verdict("incomparable",
                           explanation="initial configurations are "
                           "distinguishable (public state differs)")
    except Incomparable as e:
        return Verdict("incomparable", explanation=str(e))

    done = 0  # actions compared, and dropped, so far
    batches = 0
    ta, tb = ca.trace, cb.trace
    while not (ca.terminal and cb.terminal):
        interp.run(ca, max_steps=batch)
        interp.run(cb, max_steps=batch)
        if ta != tb:
            # action equality realizes actions_indist, so the first unequal
            # pair, or the end of the shorter batch, is the witness
            k = next((k for k, (x, y) in enumerate(zip(ta, tb)) if x != y),
                     min(len(ta), len(tb)))
            a = ta[k] if k < len(ta) else None
            b = tb[k] if k < len(tb) else None
            return Verdict(
                "diverged", done + k, a, b,
                "leakage actions differ" if a and b else
                "one run continues where the other stopped",
                _locate(tm, export, args_a, image_a, fuel, done + k,
                        imports_factory))
        done += len(ta)
        ta.clear()
        tb.clear()
        batches += 1
        if ca.terminal or cb.terminal or batches % config_check_every:
            continue
        if ca.frame_pointers() != cb.frame_pointers():
            return Verdict("diverged", done, None, None,
                           "residual instruction shapes differ")
        if not configs_indist(ca, cb):
            return Verdict("diverged", done, None, None,
                           "intermediate states are distinguishable")

    if ca.status != cb.status or ca.trap_kind != cb.trap_kind:
        return Verdict("diverged", done, None, None,
                       f"termination differs: {ca.status}/{ca.trap_kind} vs "
                       f"{cb.status}/{cb.trap_kind}")
    if not all(values_indist(Value(t, b1), Value(t, b2)) for t, b1, b2
               in zip(ca.result_types, ca.results, cb.results)):
        return Verdict("diverged", done, None, None, "public results differ")
    if not configs_indist(ca, cb):
        return Verdict("diverged", done, None, None,
                       "final states are distinguishable")
    return INDISTINGUISHABLE


# --------------------------------------------------------------------------
# Randomized constant-time trials

@dataclass(frozen=True)
class SecretInput:
    """One named secret input: a parameter or a memory region."""

    name: str
    param: int | None = None  # parameter index, or
    offset: int | None = None  # memory region
    length: int | None = None


@dataclass
class TrialSpec:
    """What to invoke and which inputs are secret."""

    export: str
    args: list[Value]  # baseline arguments (secret params overwritten)
    secrets: list[SecretInput]
    image: dict[int, bytes] = field(default_factory=dict)  # fixed preload
    fuel: int | None = None


@dataclass
class TrialReport:
    export: str
    trials: int
    passed: int
    varied: list[str]
    failure: Verdict | None = None
    failed_trial: int | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None and self.passed == self.trials

    def to_json(self) -> dict:
        out = {"export": self.export, "trials": self.trials,
               "passed": self.passed, "secret_inputs": self.varied,
               "ok": self.ok}
        if self.failure is not None:
            out["failed_trial"] = self.failed_trial
            out["failure"] = self.failure.to_json()
        return out


def _assignment(spec: TrialSpec, vary: list[SecretInput], rng) -> tuple:
    """(args, image) with varied secret inputs drawn from rng (zeros if None)."""
    args = list(spec.args)
    image = dict(spec.image)
    for s in vary:
        if s.param is not None:
            t = args[s.param].type
            bits = rng.getrandbits(t.bits) if rng else 0
            args[s.param] = Value(t, bits)
        else:
            image[s.offset] = (bytes(rng.getrandbits(8) for _ in range(s.length))
                               if rng else bytes(s.length))
    return args, image


def randomized_ct_trial(tm: TypedModule, spec: TrialSpec, trials: int = 100,
                        seed: int = 0, vary: list[str] | None = None,
                        batch: int = 4096,
                        imports_factory=None,
                        require_untrusted: bool = True) -> TrialReport:
    """Pair the all-zero secret assignment against fresh random ones.

    Each trial runs a lockstep check; the report carries the first
    divergence, if any.
    """
    chosen = [s for s in spec.secrets
              if vary is None or s.name in vary]
    if vary is not None:
        missing = set(vary) - {s.name for s in spec.secrets}
        if missing:
            raise ValueError(f"unknown secret inputs: {sorted(missing)}")
    for s in chosen:
        if s.param is not None and s.param >= len(spec.args):
            raise ValueError(f"secret input {s.name!r} is parameter "
                             f"{s.param}, but the spec passes "
                             f"{len(spec.args)} arguments")
    rng = random.Random(seed)
    args_zero, image_zero = _assignment(spec, chosen, None)
    report = TrialReport(spec.export, trials, 0, [s.name for s in chosen])
    for t in range(trials):
        args_rand, image_rand = _assignment(spec, chosen, rng)
        verdict = lockstep_check(tm, spec.export, args_zero, args_rand,
                                 image_zero, image_rand, spec.fuel,
                                 batch=batch, imports_factory=imports_factory,
                                 require_untrusted=require_untrusted)
        if not verdict.ok:
            report.failure = verdict
            report.failed_trial = t
            return report
        report.passed += 1
    return report
