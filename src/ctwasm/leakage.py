"""Indistinguishability relations and the lockstep twin checker.

Two runtime objects are indistinguishable when they differ only in secret
payloads: public values must match bit-for-bit, secret values only in
type, secret memories only in size.  The module provides the relations on
values, configurations, and per-step leakage actions, a canonical erasure
(public projection) whose equality coincides with the relations, and a
checker that runs two instantiations of the same module in lockstep and
reports the first observable difference; randomized trials run many
twins in one pass against a single baseline run.

A diverging pair is a concrete counterexample to the constant-time
guarantee; well-typed untrusted code must never produce one.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice, repeat, zip_longest

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
    """Whether two leakage actions are indistinguishable: equal.  Every
    action carries only what its step lets an observer see (a safe op its
    opcode, a memory access on secret memory no value, a host call public
    projections; see ``interp.ACTIONS``), so no field needs erasing."""
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
    return None if a is None else interp.action_to_json(0, a)


INDISTINGUISHABLE = Verdict("indistinguishable")


# --------------------------------------------------------------------------
# Lockstep twin execution

# what setting up a twin raises for inputs that cannot run
_SETUP_ERRORS = (interp.InvokeError, interp.InstantiateError, Incomparable)


def _twin_config(tm: TypedModule, export: str, args: list[Value],
                 image: dict[int, bytes] | None, fuel: int,
                 imports_factory=None) -> Config:
    store = Store()
    imports = imports_factory() if imports_factory else None
    store, idx = interp.instantiate(store, tm, imports)
    try:
        interp.write_image(store, idx, image)
    except ValueError as e:
        raise Incomparable(str(e)) from None
    cfg = interp.make_config(store, idx, export, args, fuel)
    cfg.leaks_only = True
    return cfg


def _with_record(action: tuple, record) -> tuple:
    """The action of ``action``'s instruction that has the leak record
    ``record``, the inverse of ``interp.leak_record``: its kept fields
    from ``record``, a field the record lacks being None.  A record that
    keeps the kind is the action itself."""
    kept = interp.recorded(action)
    if kept[0] == 0:
        return record
    fields = list(action)
    for i, x in zip_longest(kept, record if isinstance(record, tuple)
                            else (record,)):
        fields[i] = x
    return tuple(fields)


def _replay(start: Config, stop: int, d: int) -> tuple:
    """Run ``start``, a copy of a twin, recording every action, on to its
    step ``stop`` or its ``d``-th leaked action (from 0), whichever comes
    first: that step, its action and its instruction with its source
    position (None at a host call); or the step the run stopped at, None
    and None.  It runs one compiled function at a time, each of which runs
    consecutive ops of one frame: those with no static action leak."""
    start.leaks_only, start.trace = False, []
    trace, steps = start.trace, 0
    while not start.terminal:
        fr = start.frames[-1]
        pc = fr.pc if isinstance(fr, Frame) else None
        interp.run(start, max_steps=1, to_block_end=True)
        if pc is None:  # a host call, whose one action leaks
            leaked, first = 1, 0
        else:  # the leaked actions, and the index of the d-th
            dynamic = fr.code.dynamic
            leaked = dynamic[pc + len(trace)] - dynamic[pc]
            first = bisect_left(dynamic, dynamic[pc] + d + 1) - 1 - pc
        i = min(stop - steps, first if leaked > d else len(trace))
        d -= leaked
        if i < len(trace):
            if pc is None:
                return steps + i, trace[i], None
            origin = fr.ff.origins[pc + i]
            loc = f"func {fr.ff.index} instr {pc + i} ({ast.mnemonic(origin)})"
            if origin.span is not None:
                loc += f" at line {origin.span.line}:{origin.span.col}"
            return steps + i, trace[i], loc
        steps += len(trace)
        trace.clear()
    return steps, None, None


def _divergence(start: Config, na: int, ta: list, nb: int, tb: list,
                cb: Config, done: int) -> Verdict:
    """The verdict at the first step at which the whole traces of two
    twins differ, or the end of the shorter, in a batch that began at step
    ``done``.  The twins ran ``na`` and ``nb`` steps of the batch,
    recording ``ta`` and ``tb``; ``start`` is the first twin at the start
    of the batch and ``cb`` the second after its steps.  Up to that step
    the twins ran the same instructions, so it is the step of the first
    twin's first record that differs, or the end of either run if that
    comes first; the second twin's action there is the first's with its
    own record."""
    d = next((d for d, (x, y) in enumerate(zip(ta, tb)) if x != y),
             min(len(ta), len(tb)))
    k, a, location = _replay(start, min(na, nb), d)
    if k < na:
        b = _with_record(a, tb[d]) if k < nb else None
    else:  # the first twin stopped at k, and the second goes on
        _, b, location = _replay(cb, 0, 0)
    return Verdict("diverged", done + k, a, b,
                   "leakage actions differ" if a and b else
                   "one run continues where the other stopped", location)


# twins admitted beside one baseline run hold at most this many bytes of
# linear memory; a larger trial count runs more cohorts
COHORT_BYTES = 16 << 20
# steps a lockstep batch runs at least, unless asked otherwise
BATCH = 32768


def _start_twin(tm: TypedModule, export: str, base: Config | Verdict,
                args_a: list[Value], args_b: list[Value],
                image_b: dict[int, bytes] | None, fuel: int,
                imports_factory, require_untrusted: bool) -> Config | Verdict:
    """Twin b's configuration beside the baseline ``base``, or the verdict
    that refuses the pair: the argument and trust prechecks, b's
    instantiation, and the initial indistinguishability of the two.
    ``base`` is a verdict when the baseline did not instantiate."""
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
    if isinstance(base, Verdict):
        return base
    try:
        cb = _twin_config(tm, export, args_b, image_b, fuel, imports_factory)
        if not configs_indist(base, cb):
            return Verdict("incomparable",
                           explanation="initial configurations are "
                           "distinguishable (public state differs)")
    except _SETUP_ERRORS as e:
        return Verdict("incomparable", explanation=str(e))
    return cb


def _final_verdict(ca: Config, cb: Config, step: int) -> Verdict | None:
    """Compare the final states of twins that both stopped at ``step``."""
    if ca.status != cb.status or ca.trap_kind != cb.trap_kind:
        return Verdict("diverged", step, None, None,
                       f"termination differs: {ca.status}/{ca.trap_kind} vs "
                       f"{cb.status}/{cb.trap_kind}")
    if not all(values_indist(Value(t, b1), Value(t, b2)) for t, b1, b2
               in zip(ca.result_types, ca.results, cb.results)):
        return Verdict("diverged", step, None, None, "public results differ")
    if not configs_indist(ca, cb):
        return Verdict("diverged", step, None, None,
                       "final states are distinguishable")
    return None


def _memory_bound(tm: TypedModule, store: Store) -> int:
    """Bytes of linear memory one instance holds: its size at instantiation,
    or, when the module has a ``memory.grow``, the size it may grow to."""
    if not any(isinstance(o, ast.MemoryGrow)
               for ff in tm.funcs if ff is not None for o in ff.origins):
        return sum(len(m.data) for m in store.mems)
    return sum(max(len(m.data), interp.PAGE * (
        interp.DEFAULT_GROW_LIMIT if m.max is None else m.max))
        for m in store.mems)


def _cohort(tm: TypedModule, export: str, args_a: list[Value],
            image_a: dict[int, bytes] | None, first: tuple, rest, fuel: int,
            batch: int, imports_factory,
            require_untrusted: bool) -> tuple[int, Verdict] | None:
    """Check twin ``first`` and the next twins of ``rest`` that fit in
    ``COHORT_BYTES`` against one fresh baseline run.  Returns the lowest
    failure as ``(index, verdict)``: a failing twin drops the twins above
    it, and those below it run on.  A divergence is located from a copy
    of the baseline taken at the start of each batch, of which only the
    latest is kept; or, when the baseline has stopped and a twin goes on,
    from that twin, at the step where the baseline stopped."""
    try:
        ca = _twin_config(tm, export, args_a, image_a, fuel, imports_factory)
    except _SETUP_ERRORS as e:
        ca = Verdict("incomparable", explanation=str(e))
        cohort = [first]
    else:
        size = _memory_bound(tm, ca.store)
        more = max(COHORT_BYTES // size, 1) - 1 if size else None
        cohort = [first, *islice(rest, more)]
    failed = None
    live = []
    for t, (args_b, image_b) in cohort:
        cb = _start_twin(tm, export, ca, args_a, args_b, image_b, fuel,
                         imports_factory, require_untrusted)
        if isinstance(cb, Verdict):
            failed = (t, cb)
            break
        live.append((t, cb))

    done = 0  # baseline steps compared so far
    while live:
        ta = ca.trace
        start = ca.copy()
        fuel = ca.fuel
        interp.run(ca, max_steps=batch, to_block_end=True)
        na = fuel - ca.fuel  # one unit of fuel per step
        kept = []
        for twin in live:
            t, cb = twin
            tb = cb.trace
            fuel = cb.fuel
            interp.run(cb, max_steps=na)
            nb = fuel - cb.fuel
            if ta != tb or na != nb or ca.terminal and not cb.terminal:
                failed = t, _divergence(start, na, ta, nb, tb, cb, done)
                break
            tb.clear()
            if not ca.terminal:
                kept.append(twin)
            elif v := _final_verdict(ca, cb, done + na):
                failed = (t, v)
                break
        live = kept
        done += na
        ta.clear()
    return failed


def _lockstep(tm: TypedModule, export: str, args_a: list[Value],
              image_a: dict[int, bytes] | None, twins, fuel: int | None,
              batch: int, imports_factory,
              require_untrusted: bool) -> tuple[int, Verdict] | None:
    """Check every twin ``(args, image)`` drawn from ``twins`` against one
    baseline run of ``(args_a, image_a)``, in one lockstep pass.

    Twins are admitted in cohorts whose linear memories total at most
    ``COHORT_BYTES`` (see ``_memory_bound``), and the baseline runs once
    per cohort.  Every run keeps only the records of its leaked actions.
    In each batch the baseline runs to the first block end at or past
    ``batch`` steps; then each live twin, in index order, runs exactly as
    many steps, and its records and step count are compared with the
    baseline's and the records dropped.  Returns ``(index, verdict)`` of
    the lowest failing twin, or None; each twin's verdict is what a check
    of that twin alone gives.
    """
    if batch < 1:
        raise ValueError(f"batch must be at least 1, got {batch}")
    fuel = interp.default_fuel() if fuel is None else fuel
    if fuel < 1:  # a check that runs no step would pass without looking
        raise ValueError(f"fuel must be at least 1, got {fuel}")
    twins = enumerate(twins)
    for first in twins:
        failed = _cohort(tm, export, args_a, image_a, first, twins, fuel,
                         batch, imports_factory, require_untrusted)
        if failed is not None:
            return failed
    return None


def lockstep_check(tm: TypedModule, export: str,
                   args_a: list[Value], args_b: list[Value],
                   image_a: dict[int, bytes] | None = None,
                   image_b: dict[int, bytes] | None = None,
                   fuel: int | None = None,
                   batch: int = BATCH,
                   imports_factory=None,
                   require_untrusted: bool = True) -> Verdict:
    """Run two instantiations in lockstep and compare their leakage.

    The twins must start indistinguishable: arguments may differ only in
    secret-typed positions, memory images only when the memory is secret.
    The verdict is the first difference of the two whole traces (the
    first step whose actions differ, or where one run goes on and the
    other has stopped); failing that, of the final states (termination,
    public results, then the whole state).  ``imports_factory`` builds the
    imports of each instantiation; ``randomized_ct_trial`` calls it once
    for the baseline of a cohort, not once per trial.

    The twins run in batches, each ending at the first block end at or
    past ``batch`` steps.  A twin records only the ``interp.leak_record``
    of each action that depends on data; each batch compares those and
    the steps each twin ran, and drops them, so memory does not grow with
    the run, and the verdict does not depend on ``batch``.  That decides
    as whole traces would: the next instruction depends only on earlier
    ``branch``, ``call-indirect`` and ``host`` records, so twins whose
    records agree ran the same instructions and left the same static
    actions, and every op records a fixed number of entries, so records
    at one position come from one instruction.  A static op that traps
    only on some data (``i32.trunc_f32_s`` of a NaN) records nothing, but
    the run that traps stops, so the step counts differ.

    A divergence is located by running a copy of one twin, taken in the
    batch it falls in, with every action recorded, on to the divergent
    step (see ``_cohort`` and ``_replay``).  The copy calls the host
    functions of its batch again, on the same host objects, so a verdict
    is exact when host callbacks depend only on their ``HostCall``.
    """
    failed = _lockstep(tm, export, args_a, image_a, [(args_b, image_b)],
                       fuel, batch, imports_factory, require_untrusted)
    return INDISTINGUISHABLE if failed is None else failed[1]


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
            image[s.offset] = (bytes(map(rng.getrandbits, repeat(8, s.length)))
                               if rng else bytes(s.length))
    return args, image


def randomized_ct_trial(tm: TypedModule, spec: TrialSpec, trials: int = 100,
                        seed: int = 0, vary: list[str] | None = None,
                        batch: int = BATCH,
                        imports_factory=None,
                        require_untrusted: bool = True) -> TrialReport:
    """Pair the all-zero secret assignment against fresh random ones.

    One lockstep pass checks every trial against a single run of the
    all-zero twin per cohort (see ``_lockstep``); the report carries the
    lowest failing trial, whose verdict is what ``lockstep_check`` gives
    for that pair.
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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    args_zero, image_zero = _assignment(spec, chosen, None)
    twins = (_assignment(spec, chosen, rng) for _ in range(trials))
    failed = _lockstep(tm, spec.export, args_zero, image_zero, twins,
                       spec.fuel, batch, imports_factory, require_untrusted)
    report = TrialReport(spec.export, trials, trials, [s.name for s in chosen])
    if failed is not None:
        report.failed_trial, report.failure = failed
        report.passed = report.failed_trial
    return report
