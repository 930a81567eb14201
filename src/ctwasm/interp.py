"""Deterministic interpreter emitting one leakage action per executed op.

Runtime state follows the usual store/instance split: a Store owns every
closure, global, table, and memory; instances index into it; a Config is
a frame stack over one store plus a fuel budget that makes every run
finite.  Values live on the operand stack as raw bit patterns; their
types are static, known from validation.

Leakage actions are plain tuples (cheap to build, compare, and
serialize), ``(kind, *fields)``.  ``ACTIONS`` is the one table of their
kinds: the JSON name of each field, and which fields the action's record
keeps, which is what varies in it, or None for the static kinds
(``op``, ``call`` and ``secret-select``), the same whatever the data.
``HOST_TRAP`` is an ``op`` that the host decides, and records itself.
``leaks`` tells the two apart and ``leak_record`` maps an action to its
record; the JSON of the CLI's trace, the compiled records and the
lockstep checker's inverse all read the same table.  Static actions are
precomputed tuples, so tracing them adds no allocation.  A configuration
with ``leaks_only`` set runs the same code but keeps only the records;
as every op records a fixed number of entries, runs of the same
instructions have their records at the same positions.  Its steps are
counted by its fuel, one unit per step.

Execution compiles each function's flat code, on first run, into one
generated Python function per straight-line block and per counted loop
(see "Compilation of flat code to blocks" below).  Each op's semantics
is written once, as a template (``_t_*``) that emits its source; a single
step and a step that fuel or a step budget cuts short run the one-op
block of the same template, so every stop falls on the same instruction
as it would op by op.  One template serves every numeric op, whose
meaning is ``numerics``': the cheap integer ops paste in the expression
it states them in, every other op calls its function, and only a
function in ``numerics.TRAPPING`` is guarded for a trap.
An integer is masked to its width only where its high bits are read:
a value that wrapped may flow unmasked, congruent to its value mod
2 ** width, into ops that read only low bits, and is made exact before
any other reader (see "Compilation of flat code to blocks").

A load or store reads or writes linear memory through a precompiled
``struct`` accessor of its width (``unpack_from`` or ``pack_into`` of
``"<B"``, ``"<H"``, ``"<I"`` or ``"<Q"``), which its block holds as a
closure constant; a signed packed load extends the unsigned bits after.
A block reads the memory's byte length once on entry, as ``size``, and
every bounds check compares with it.  That stays valid within a compiled
function: only ``memory.grow`` changes the length, and it sets ``size``
again, while a call, ``call_indirect`` or host call is a control op that
ends its block, so the next block reads the length afresh.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import struct
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from . import ast, flat, text
from .numerics import EXPRS, TRAPPING, Inline, Trap, signed, span
from .validate import TypedModule

PAGE = 65536
FRAME_LIMIT = 1000
DEFAULT_FUEL = 10_000_000
DEFAULT_GROW_LIMIT = 64  # pages, for memories declared without a max

RUNNING, DONE, TRAPPED, OUT_OF_FUEL = "running", "done", "trap", "fuel"


HOST_TRAP = ("op", "host-trap")
# Every kind of leakage action: the JSON names of its fields after the
# kind (a host call's JSON names only the host, not its projections), and
# the positions of those its leak record keeps, or None for a static kind,
# which a run that records only leaks does not record.  A host call keeps
# every position, kind included, so it records itself; so does HOST_TRAP,
# an "op" that the host decides (see ``recorded``).
ACTIONS = {
    "op": (("op",), None),
    "call": (("func",), None),
    "secret-select": ((), None),
    "branch": (("op", "condition"), (2,)),
    "mem": (("op", "addr", "width", "value"), (2, 4)),
    "unsafe-binop": (("op", "lhs", "rhs"), (2, 3)),
    "grow": (("old", "delta", "result"), (1, 2, 3)),
    "call-indirect": (("slot",), (1,)),
    "host": (("host",), (0, 1, 2, 3, 4, 5)),
}
# A memory access's value is seen only on public memory.  On secret
# memory the field is None, which the JSON leaves out and the record
# drops; it is the one field whose presence depends on the instance.
SEEN_IF_PUBLIC = ("mem", 4)


def recorded(action: tuple) -> tuple | None:
    """The positions of ``action``'s fields that its leak record keeps,
    or None if it is static."""
    return (0, 1) if action == HOST_TRAP else ACTIONS[action[0]][1]


def leaks(action: tuple) -> bool:
    """Whether ``action`` depends on data: every kind but the static ones
    of ``flat.static_action``, and a host trap."""
    return recorded(action) is not None


def leak_record(action: tuple):
    """What a run that records only leaks records for the data-dependent
    ``action``: the fields it keeps but a None one, alone if there is one
    and else as a tuple."""
    xs = [action[i] for i in recorded(action) if action[i] is not None]
    return xs[0] if len(xs) == 1 else tuple(xs)


def default_fuel() -> int:
    """DEFAULT_FUEL, or the integer in CTWASM_FUEL if it is set."""
    raw = os.environ.get("CTWASM_FUEL")
    try:
        return DEFAULT_FUEL if raw is None else int(raw)
    except ValueError:
        raise ValueError(
            f"CTWASM_FUEL must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class Value:
    type: ast.ValType
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.type.bits):
            raise ValueError("payload out of range for type width")

    @property
    def signed(self) -> int:
        return signed(self.bits, self.type.bits) if self.type.is_int else self.bits

    def __repr__(self) -> str:
        return f"{self.type.name}:{self.signed}" if self.type.is_int \
            else f"{self.type.name}:0x{self.bits:x}"


def parse_value(literal: str) -> Value:
    """Parse a typed argument literal like ``i32:7``, ``s64:-1``, ``f32:0.5``;
    the value after the colon follows the text format's ``t.const``."""
    if ":" not in literal:
        raise ValueError(f"expected type:value, got {literal!r}")
    tname, _, raw = literal.partition(":")
    t = ast.VALTYPES_BY_NAME.get(tname)
    if t is None:
        raise ValueError(f"unknown value type {tname!r}")
    try:
        return Value(t, text.const_bits(t, raw))
    except ValueError as e:
        raise ValueError(f"invalid literal {literal!r}: {e}") from None


class InvokeError(Exception):
    """Caller misuse: unknown export, argument arity or type mismatch."""


class InstantiateError(Exception):
    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


@dataclass
class MemInst:
    sec: ast.Secrecy
    data: bytearray
    max: int | None

    @property
    def pages(self) -> int:
        return len(self.data) // PAGE

    def _region(self, offset: int, length: int) -> slice:
        if offset < 0 or offset + length > len(self.data):
            raise Trap("out of bounds memory access")
        return slice(offset, offset + length)

    def read(self, offset: int, length: int) -> bytes:
        """Bytes of the memory for the outside; out of range, a Trap."""
        return bytes(self.data[self._region(offset, length)])

    def write(self, offset: int, data: bytes) -> None:
        """Write bytes from the outside in; out of range, a Trap, and
        nothing is written."""
        self.data[self._region(offset, len(data))] = data


def write_image(store: Store, inst_idx: int,
                image: dict[int, bytes] | None) -> None:
    """Write an image (offset -> bytes) into an instance's memory.  Raises
    ValueError when the instance has no memory, or naming the offset of a
    region that runs past the memory's end."""
    if not image:
        return
    mem_addr = store.insts[inst_idx].mem_addr
    if mem_addr is None:
        raise ValueError("memory image given but module has no memory")
    mem = store.mems[mem_addr]
    for offset, chunk in image.items():
        try:
            mem.write(offset, chunk)
        except Trap:
            raise ValueError(
                f"memory image region at offset {offset} ({len(chunk)} "
                f"bytes) runs past the {len(mem.data)}-byte memory") from None


class TableInst(list):
    """A table: the function address in each element (None if unset),
    and its maximum size."""

    def __init__(self, elems: list, max: int | None):
        super().__init__(elems)
        self.max = max


@dataclass
class GlobalInst:
    mutable: bool
    type: ast.ValType
    bits: int


@dataclass
class Instance:
    module: TypedModule
    func_addrs: list[int]
    global_addrs: list[int]
    table_addr: int | None
    mem_addr: int | None
    exports: dict[str, tuple[str, int]]  # name -> (kind, store address)


@dataclass
class WasmFunc:
    type: ast.FuncType
    inst_idx: int
    ff: flat.FlatFunc


@dataclass
class HostFunc:
    """Embedder-supplied function.

    The callback receives a HostCall.  When the declared trust is
    untrusted, the callback sees only the public projection of its
    arguments and of the caller's memory; this enforces the host
    contract mechanically instead of trusting test authors.
    """

    module: str
    field: str
    type: ast.FuncType
    fn: Callable

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.field)


@dataclass
class HostCall:
    args: list[Value | None]  # None bits are hidden secrets (untrusted host)
    memory: "HostMemory | None"


class HostMemory:
    """Host-side view of the calling instance's memory."""

    def __init__(self, mem: MemInst, visible: bool):
        self._mem = mem
        self._visible = visible

    @property
    def size(self) -> int:
        return len(self._mem.data)

    def read(self, offset: int, length: int) -> bytes:
        if not self._visible:
            raise PermissionError("secret memory is not visible to untrusted host")
        return self._mem.read(offset, length)

    def write(self, offset: int, data: bytes) -> None:
        if not self._visible:
            raise PermissionError("secret memory is not writable by untrusted host")
        self._mem.write(offset, data)


@dataclass
class ExternVal:
    kind: str  # "func" | "global" | "memory" | "table"
    addr: int


@dataclass
class Store:
    insts: list[Instance] = field(default_factory=list)
    funcs: list = field(default_factory=list)  # WasmFunc | HostFunc
    globals: list[GlobalInst] = field(default_factory=list)
    tables: list[TableInst] = field(default_factory=list)
    mems: list[MemInst] = field(default_factory=list)

    def export_of(self, inst_idx: int, name: str) -> ExternVal:
        kind, addr = self.insts[inst_idx].exports[name]
        return ExternVal(kind, addr)


# --------------------------------------------------------------------------
# Public projections of runtime state (shared with the leakage module)

SECRET_BITS = None  # placeholder for an erased payload


def project_value(t: ast.ValType, bits: int):
    return (t, bits if t.sec is ast.Secrecy.PUBLIC else SECRET_BITS)


def project_closure(cl) -> tuple:
    if isinstance(cl, HostFunc):
        return ("host", cl.module, cl.field, cl.type)
    return ("wasm", cl.inst_idx, cl.ff.index, cl.type)


def project_store(store: Store) -> tuple:
    insts = tuple(
        (tuple(i.func_addrs), tuple(i.global_addrs), i.table_addr, i.mem_addr)
        for i in store.insts)
    funcs = tuple(project_closure(cl) for cl in store.funcs)
    globs = tuple((g.mutable,) + project_value(g.type, g.bits)
                  for g in store.globals)
    tables = tuple(tuple(t) for t in store.tables)
    mems = tuple(
        ("public", bytes(m.data)) if m.sec is ast.Secrecy.PUBLIC
        else ("secret", len(m.data))
        for m in store.mems)
    return (insts, funcs, globs, tables, mems)


# --------------------------------------------------------------------------
# Instantiation

def _init_bits(store: Store, inst_globals: list[int],
               expr: tuple[ast.Instr, ...]) -> int:
    ins = expr[0]
    if isinstance(ins, ast.Const):
        return ins.bits
    if isinstance(ins, ast.GetGlobal):
        return store.globals[inst_globals[ins.glob]].bits
    raise InstantiateError("BadConstantExpression", f"{ins!r}")


# The store list that holds each kind of extern.
_STORE_FIELDS = {"func": "funcs", "table": "tables", "memory": "mems",
                 "global": "globals"}


def _import(store: Store, imports: dict, decl: ast.Field,
            kind: str) -> None:
    """Check that ``imports`` satisfies ``decl``, an imported field of
    ``kind``: with an extern of that kind (a host function only for a
    function) whose type matches the declared one, trust and secrecy
    included."""
    name = decl.imported
    ext = imports.get(name)
    if ext is None:
        raise InstantiateError("ImportMissing", f"{name[0]}.{name[1]} ({kind})")
    noun = ast.FIELD_NOUNS[kind]
    if isinstance(ext, ExternVal) and ext.kind == kind:
        got = getattr(store, _STORE_FIELDS[kind])[ext.addr]
    elif isinstance(ext, HostFunc) and kind == "func":
        got = ext
    else:
        raise InstantiateError("ImportTypeMismatch", f"{name} is not a {noun}")
    match decl:
        case ast.Func(type=t) if got.type != t:
            why = f": declared {t!r}, got {got.type!r}"
        case ast.GlobalVar(type=t) if got.type != t:
            why = f": declared {t.name}, got {got.type.name}"
        case ast.GlobalVar(mutable=mut) if got.mutable != mut:
            why = ": declared " + ("mutable, got immutable" if mut
                                   else "immutable, got mutable")
        case ast.Memory(sec=sec) if got.sec is not sec:
            why = f": secrecy {got.sec.value} != {sec.value}"
        case ast.Memory(min=lo) if got.pages < lo:
            why = f": {got.pages} pages < min {lo}"
        case ast.Table(min=lo) if len(got) < lo:
            why = " too small"
        case ast.Memory(max=hi) | ast.Table(max=hi) if hi is not None and (
                got.max is None or got.max > hi):
            why = ": max exceeds bound"
        case _:
            return
    raise InstantiateError("ImportTypeMismatch", f"{noun} {name}{why}")


def instantiate(store: Store, tm: TypedModule,
                imports: dict[tuple[str, str], object] | None = None
                ) -> tuple[Store, int]:
    """Link and initialize a validated module; returns (store, instance).

    As the Wasm spec instantiates: match every import, allocate the
    defined fields, evaluate and bounds-check every element and data
    segment, and only then write them, so a failed link writes into no
    table or memory it imported."""
    imports = imports or {}
    m = tm.module
    fields = m.fields()
    for kind, _, x in fields:
        if x.imported is not None:
            _import(store, imports, x, kind)

    inst_idx = len(store.insts)
    addrs: dict[str, list[int]] = {kind: [] for kind in _STORE_FIELDS}
    for kind, i, x in fields:
        if x.imported is not None:
            ext = imports[x.imported]
            if isinstance(ext, ExternVal):
                addrs[kind].append(ext.addr)
                continue
        elif kind == "func":
            ext = WasmFunc(x.type, inst_idx, tm.flat(i))
        elif kind == "table":
            ext = TableInst([None] * x.min, x.max)
        elif kind == "memory":
            ext = MemInst(x.sec, bytearray(x.min * PAGE), x.max)
        else:
            ext = GlobalInst(x.mutable, x.type,
                             _init_bits(store, addrs["global"], x.init))
        # a field defined here, or an imported host function
        into = getattr(store, _STORE_FIELDS[kind])
        into.append(ext)
        addrs[kind].append(len(into) - 1)
    table_addr = addrs["table"][0] if m.table else None
    mem_addr = addrs["memory"][0] if m.memory else None

    segments = [("ElemSegmentOutOfBounds", store.tables[table_addr], seg.offset,
                 [addrs["func"][fi] for fi in seg.funcs])
                for seg in (m.table.elems if m.table else ())]
    segments += [("DataSegmentOutOfBounds", store.mems[mem_addr].data,
                  seg.offset, seg.data) for seg in m.data]
    writes = []
    for error, target, offset, items in segments:
        base = _init_bits(store, addrs["global"], offset)
        if base + len(items) > len(target):
            raise InstantiateError(error, f"offset {base} + {len(items)}")
        writes.append((target, base, items))
    # a segment targeting a secret memory is classified on the way in,
    # which does not change any byte
    for target, base, items in writes:
        target[base:base + len(items)] = items

    exports: dict[str, tuple[str, int]] = {}
    for name, kind, i in m.exports():
        exports.setdefault(name, (kind, addrs[kind][i]))
    store.insts.append(Instance(tm, addrs["func"], addrs["global"],
                                table_addr, mem_addr, exports))
    return store, inst_idx


# --------------------------------------------------------------------------
# Execution

class Frame:
    __slots__ = ("inst", "ff", "code", "locals", "stack", "labels", "pc")

    def __init__(self, inst: Instance, ff: flat.FlatFunc, locals_: list[int]):
        self.inst = inst
        self.ff = ff
        if ff.compiled is None:
            ff.compiled = _code_of(tuple(ff.code))
        self.code = ff.compiled
        self.locals = locals_
        self.stack: list[int] = []
        self.labels: list[tuple[int, int, int]] = []  # (target, arity, height)
        self.pc = 0

    def copy(self) -> Frame:
        fr = Frame.__new__(Frame)
        fr.inst, fr.ff, fr.code, fr.pc = self.inst, self.ff, self.code, self.pc
        fr.locals, fr.stack = self.locals[:], self.stack[:]
        fr.labels = self.labels[:]
        return fr


class HostPending:
    __slots__ = ("cl", "args", "inst")

    def __init__(self, cl: HostFunc, args: list[int], inst: Instance):
        self.cl = cl
        self.args = args
        self.inst = inst

    def copy(self) -> HostPending:
        return HostPending(self.cl, self.args[:], self.inst)


class Config:
    """One execution: frame stack over a store, plus fuel and a trace.
    With ``leaks_only`` set, the trace gets only the ``leak_record`` of
    each action that ``leaks`` holds data-dependent."""

    def __init__(self, store: Store, inst_idx: int, fuel: int):
        self.store = store
        self.inst_idx = inst_idx
        self.frames: list = []
        self.fuel = fuel
        self.status = RUNNING
        self.trap_kind: str | None = None
        self.results: list[int] = []
        self.result_types: tuple[ast.ValType, ...] = ()
        self.trace: list[tuple] = []
        self.leaks_only = False

    @property
    def terminal(self) -> bool:
        return self.status != RUNNING

    def typed_results(self) -> list[Value]:
        return [Value(t, b) for t, b in zip(self.result_types, self.results)]

    def copy(self) -> Config:
        """A configuration that runs on from this one's state on its own,
        in the same mode, keeping no trace.  Its store shares the
        instances and closures, which a run never changes, and copies the
        globals, tables and memories; compiled code is shared."""
        s = self.store
        store = Store(s.insts, s.funcs,
                      [GlobalInst(g.mutable, g.type, g.bits) for g in s.globals],
                      [TableInst(t, t.max) for t in s.tables],
                      [MemInst(m.sec, bytearray(m.data), m.max) for m in s.mems])
        cfg = Config(store, self.inst_idx, self.fuel)
        cfg.frames = [f.copy() for f in self.frames]
        cfg.status, cfg.trap_kind = self.status, self.trap_kind
        cfg.results, cfg.result_types = self.results[:], self.result_types
        cfg.trace, cfg.leaks_only = deque(maxlen=0), self.leaks_only
        return cfg

    def frame_pointers(self) -> tuple:
        """Projected residual-instruction shape: one (func, pc) per frame."""
        return tuple(
            (f.ff.index, f.pc, len(f.stack), tuple(l[0] for l in f.labels))
            if isinstance(f, Frame) else ("host", f.cl.key)
            for f in self.frames)


def make_config(store: Store, inst_idx: int, export: str, args: list[Value],
                fuel: int | None = None) -> Config:
    inst = store.insts[inst_idx]
    if export not in inst.exports:
        raise InvokeError(f"no export named {export!r}")
    kind, addr = inst.exports[export]
    if kind != "func":
        raise InvokeError(f"export {export!r} is a {kind}, not a function")
    cl = store.funcs[addr]
    ft = cl.type
    if len(args) != len(ft.params):
        raise InvokeError(f"expected {len(ft.params)} arguments, got {len(args)}")
    for i, (a, t) in enumerate(zip(args, ft.params)):
        if a.type != t:
            raise InvokeError(
                f"argument {i} must be {t.name} exactly, got {a.type.name}")
    cfg = Config(store, inst_idx, default_fuel() if fuel is None else fuel)
    cfg.result_types = ft.results
    if isinstance(cl, HostFunc):
        cfg.frames.append(HostPending(cl, [a.bits for a in args],
                                      store.insts[inst_idx]))
    else:
        locals_ = [a.bits for a in args] + [0] * (len(cl.ff.local_types)
                                                  - len(ft.params))
        cfg.frames.append(Frame(store.insts[cl.inst_idx], cl.ff, locals_))
    return cfg


def _normalize_host_results(cl: HostFunc, out) -> list[int]:
    results = out if isinstance(out, (list, tuple)) else \
        ([] if out is None else [out])
    if len(results) != len(cl.type.results):
        raise Trap("host result arity mismatch")
    bits = []
    for v, t in zip(results, cl.type.results):
        if isinstance(v, Value):
            if v.type != t:
                raise Trap("host result type mismatch")
            bits.append(v.bits)
        else:
            bits.append(int(v) & ((1 << t.bits) - 1))
    return bits


def _run_host(cfg: Config, pend: HostPending) -> tuple:
    cl = pend.cl
    store = cfg.store
    untrusted = cl.type.trust is ast.Trust.UNTRUSTED
    call_args = []
    for bits, t in zip(pend.args, cl.type.params):
        hidden = untrusted and t.sec is ast.Secrecy.SECRET
        call_args.append(None if hidden else Value(t, bits))
    mem = None
    if pend.inst.mem_addr is not None:
        mi = store.mems[pend.inst.mem_addr]
        mem = HostMemory(mi, visible=not untrusted or
                         mi.sec is ast.Secrecy.PUBLIC)
    pre = project_store(store)
    out = cl.fn(HostCall(call_args, mem))
    bits = _normalize_host_results(cl, out)
    post = project_store(store)
    args_proj = tuple(project_value(t, b)
                      for b, t in zip(pend.args, cl.type.params))
    res_proj = tuple(project_value(t, b)
                     for t, b in zip(cl.type.results, bits))
    action = ("host", cl.key, pre, args_proj, post, res_proj)
    cfg.frames.pop()
    if cfg.frames:
        cfg.frames[-1].stack.extend(bits)
    else:
        cfg.results = bits
        cfg.status = DONE
    return action


def run(cfg: Config, max_steps: int | None = None, *,
        to_block_end: bool = False) -> None:
    """Drive the configuration until it terminates, runs out of fuel, or
    has executed max_steps further instructions; with ``to_block_end``,
    until the first block end at or past max_steps.

    Each turn of the loop calls one compiled function of the top frame
    with ``n``, the steps it may run, and charges what it did not hand
    back.  That is the full-length function at the frame's pc, given the
    smaller of the fuel and the budget, or with ``to_block_end`` at least
    its length, so the budget never cuts it; when ``n`` is shorter than
    the function's length, it is the one-op function, given one step, so
    every stop falls on the same instruction as with single steps.  A run
    whose fuel is spent is out of fuel, also when its budget ran out on
    the same step."""
    frames = cfg.frames
    budget = sys.maxsize if max_steps is None else max_steps
    while cfg.status == RUNNING:
        fuel = cfg.fuel
        if fuel <= 0:  # before the budget: no step can run
            cfg.status = OUT_OF_FUEL
            return
        if budget <= 0:
            return
        fr = frames[-1]
        if fr.__class__ is HostPending:
            cfg.fuel = fuel - 1
            budget -= 1
            try:
                cfg.trace.append(_run_host(cfg, fr))
            except Trap as t:
                cfg.trace.append(HOST_TRAP)
                _trap(cfg, t.kind)
            continue
        code = fr.code
        pc = fr.pc
        n = fuel if fuel < budget else budget
        m = code.lens[pc]
        if m > n and to_block_end and m <= fuel:
            n = m
        if m > n:
            n = 1
            fn = code.singles[pc] or code.compile(fr.ff, pc, 1)
        else:
            fn = code.blocks[pc] or code.compile(fr.ff, pc, m)
        left = fn(cfg, fr, n)
        cfg.fuel = fuel - n + left
        budget -= n - left


def _return(cfg: Config, fr: Frame) -> None:
    arity = len(fr.ff.type.results)
    results = fr.stack[-arity:] if arity else []
    cfg.frames.pop()
    if cfg.frames:
        cfg.frames[-1].stack.extend(results)
    else:
        cfg.results = results
        cfg.status = DONE


def _trap(cfg: Config, kind: str) -> None:
    cfg.status = TRAPPED
    cfg.trap_kind = kind
    cfg.frames.clear()


def _fault(cfg: Config, kind: str, actions: tuple, left: int) -> int:
    """Trap inside a compiled function: record the static actions of the
    ops run since the last flush, unless only leaks are recorded, and
    return ``left``, the steps it hands back."""
    if not cfg.leaks_only:
        cfg.trace.extend(actions)
    _trap(cfg, kind)
    return left


def _br(cfg: Config, fr: Frame, depth: int) -> None:
    """Branch to a label, or return from the function at its depth."""
    labels = fr.labels
    if depth == len(labels):
        _return(cfg, fr)
        return
    target, arity, height = labels[-1 - depth]
    stack = fr.stack
    if arity:
        vals = stack[-arity:]
        del stack[height:]
        stack.extend(vals)
    else:
        del stack[height:]
    del labels[len(labels) - depth - 1:]
    fr.pc = target


def _enter(cfg: Config, fr: Frame, cl) -> None:
    """Push a callee frame, or trap when the call stack is full."""
    if len(cfg.frames) >= FRAME_LIMIT:
        _trap(cfg, "call stack exhausted")
        return
    n = len(cl.type.params)
    stack = fr.stack
    args = stack[-n:] if n else []
    if n:
        del stack[-n:]
    if isinstance(cl, HostFunc):
        cfg.frames.append(HostPending(cl, args, fr.inst))
        return
    locals_ = args + [0] * (len(cl.ff.local_types) - n)
    cfg.frames.append(Frame(cfg.store.insts[cl.inst_idx], cl.ff, locals_))


def _call_indirect(cfg: Config, fr: Frame, idx: int, ft: ast.FuncType) -> None:
    store = cfg.store
    table = store.tables[fr.inst.table_addr]
    if idx >= len(table):
        _trap(cfg, "undefined element")
        return
    entry = table[idx]
    if entry is None:
        _trap(cfg, "uninitialized element")
        return
    cl = store.funcs[entry]
    if cl.type != ft:
        _trap(cfg, "indirect call type mismatch")
        return
    _enter(cfg, fr, cl)


def step(cfg: Config) -> tuple | None:
    """Execute exactly one instruction; returns its action, or its record
    if the configuration records only leaks (None if it was already
    terminal, or if it records only leaks and the action is static)."""
    if cfg.terminal:
        return None
    before = len(cfg.trace)
    run(cfg, max_steps=1)
    return cfg.trace[before] if len(cfg.trace) > before else None


# --------------------------------------------------------------------------
# Compilation of flat code to blocks
#
# A block is a run of ops that ends at its first control op (or after
# MAX_BLOCK ops), compiled to one Python function.  Every compiled
# function is called as ``fn(cfg, fr, n)``, ``n`` being the steps it may
# run, and returns the steps it did not: it charges its length on entry,
# and a branch out or a trap returns those of the ops after it.
# Operand-stack slots become Python locals, and the frame's stack sees
# only the values the block takes from below it and leaves behind.  So do
# the Wasm locals it uses: ``lK`` is loaded from ``fr.locals[K]`` on entry
# (unless the block assigns it first), ``local.get`` pushes the name itself
# and ``local.set`` and ``local.tee`` assign it, after moving any operand
# that still names the old value to a temp.  The locals assigned are
# written back before every exit that leaves the frame live: a control op
# and a branch out; a trap clears the frames, and needs none.  A template
# states only what its op does with operands: the compiler queues the
# op's static action (its flat op's second field) before calling it, and
# a helper that builds an expression reading the frame's stack, locals,
# globals, labels or memory has the block load that state on entry.  A pure
# expression (an inlined or non-trapping numeric op, a select, an address
# or a stored value) is computed once into a temp, which an identical
# expression later reuses until a local it reads is assigned; one that
# reads a global or the memory's size is always computed anew, and loads
# and bounds checks keep their order, so the trace is unchanged.  A
# ``local.set`` of a value just computed assigns its expression to the
# local directly.  A load of the width and address of an earlier one
# reuses its value, bounds check and action, and records the action
# again, until a store or ``memory.grow`` forgets every load, or a
# ``local.set`` the loads whose address reads that local; the first load
# binds its action to a temp only once a second one reuses it.  The
# actions of ops whose observation is static are buffered at compile time
# and go out with one ``trace.extend`` before the next data-dependent
# action, before a trap, and at the end of the block, each behind the
# test ``full``, read once on entry, which skips them when the
# configuration records only leaks; a data-dependent op appends
# ``action if full else record``, both built from ``ACTIONS`` by
# ``_Block.action``.
#
# An inlined integer op that wraps (``numerics.Inline``) leaves its value
# unmasked, only congruent to it mod 2 ** width, unless it is sure to lie
# in its width.  Such a value may flow into the operands that an op reads
# only the low bits of (add, sub, mul, shl, and, or and xor, i32.wrap_i64,
# and a shift's or rotate's count), and ``_Block.loose`` keeps the least
# and greatest value it may have.  It is made exact (``exact``) before
# every other reader: every action and record; an address and its bounds
# check; the condition of an ``if``, ``br_if`` or ``select``, the index of
# a ``br_table`` or ``call_indirect``; a relop, eqz, clz, ctz, popcnt,
# the shifted operand of a shr_s, shr_u, rotl or rotr, a div or rem, a
# conversion but wrap, a reinterpret and a float op; ``local.set``,
# ``local.tee`` and ``global.set``; ``memory.grow``'s delta; and a spill
# to the frame's stack at a block end, branch, call or return.  A store
# masks its value to its own width, when it may exceed it.  A value is
# made exact once: the line that computes it masks it if no line since
# reads it, or else one temp holds ``v & mask``; and a value whose bound
# passes twice its width is masked where it is computed, so ints stay
# small.  A block thus never masks more often than one that masks every
# op's value.
# Per-instance state (globals, memory, its size and its secrecy) is read
# through ``cfg`` and ``fr`` on each call, and a block embeds nothing of
# its function but its flat code, so compiled code is shared by every
# function with equal flat code: twins in two stores, and a module
# validated again.  The cache keeps the code of at most CODE_CACHE_SIZE
# distinct functions, the least recently looked up going first; a
# FlatFunc holds on to its own for as long as it lives.
#
# A counted loop, whose body holds no block, loop, if, call, br_table,
# return or unreachable and ends in an unconditional br, compiles to a
# loop function instead of a block: it pushes the loop's label once and
# runs whole iterations in a Python ``while`` as long as ``n`` leaves room
# for one.  A branch to the loop is a ``continue``, any other leaves
# through ``_br``, and the frame is left at the loop op as the back edge
# leaves it.  The Wasm locals stay in Python locals from one iteration to
# the next, and every exit writes back each local the iteration assigns,
# not only those assigned above it: an earlier turn assigned the others.
# MAX_BLOCK does not split an iteration: a piece of one would leave the
# ``while``.

# Longer straight-line runs are split: compiling a block takes transient
# memory in proportion to its source (about 0.7 MB at 64 ops), and a
# lockstep batch runs on to the end of the block its budget runs out in.
MAX_BLOCK = 64
# A longer iteration keeps the block path, for the same compile memory
# (1.1 MB by tracemalloc for Salsa20's double round, the corpus's longest
# at 266 ops).
MAX_ITERATION = 512
CODE_CACHE_SIZE = 64
_SERIALS = itertools.count()  # one per compiled function, for its label

_CONTROL = frozenset((
    flat.T_BR, flat.T_BR_IF, flat.T_BR_TABLE, flat.T_IF, flat.T_ELSE,
    flat.T_RETURN, flat.T_CALL, flat.T_CALL_INDIRECT, flat.T_UNREACHABLE))
# ops a counted loop's body holds none of, but for its closing br
_NOT_IN_LOOP = _CONTROL - {flat.T_BR_IF} | {flat.T_BLOCK, flat.T_LOOP,
                                            flat.T_END}
_PUBLIC = ast.Secrecy.PUBLIC

# what a block loads on entry, by the names its code uses
_PROLOGUE = (
    ("S", "S = fr.stack"),
    ("L", "L = fr.locals"),
    ("labels", "labels = fr.labels"),
    ("full", "full = not cfg.leaks_only"),
    ("G", "G = cfg.store.globals; ga = fr.inst.global_addrs"),
    ("mem", "mem = cfg.store.mems[fr.inst.mem_addr]; data = mem.data; "
            "size = len(data); pub = mem.sec is _PUBLIC"),
)
# little-endian unsigned accessors of linear memory, by width in bytes
_FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
_UNPACK = {w: struct.Struct(f).unpack_from for w, f in _FORMATS.items()}
_PACK = {w: struct.Struct(f).pack_into for w, f in _FORMATS.items()}


class _Code:
    """Compiled functions of one function's flat code, built on first use.

    ``blocks[pc]`` is the full-length function at ``pc`` and ``lens[pc]``
    its length: the block that starts there or, at a counted loop's op,
    where ``iters[pc]`` is also set (0 elsewhere), the loop function and
    the length of one iteration.  ``singles[pc]`` runs the op at ``pc``
    alone.  All are compiled when first needed and kept here, shared by
    every FlatFunc with equal flat code (see ``_code_of``).
    ``dynamic[pc]`` counts the ops before ``pc`` with no static action,
    each of which records one data-dependent action."""

    __slots__ = ("lens", "blocks", "singles", "iters", "dynamic")

    def __init__(self, code: tuple):
        lens = [1] * len(code)
        for pc in range(len(code) - 2, -1, -1):
            if code[pc][0] not in _CONTROL and lens[pc + 1] < MAX_BLOCK:
                lens[pc] = lens[pc + 1] + 1
        self.lens = lens
        self.blocks: list = [None] * len(code)
        self.singles: list = [None] * len(code)
        self.iters = [0] * len(code)
        self.dynamic = list(itertools.accumulate(
            (op[1] is None for op in code), initial=0))
        for pc, op in enumerate(code):
            if op[0] == flat.T_LOOP:
                end = pc + 1
                while code[end][0] not in _NOT_IN_LOOP:
                    end += 1
                if code[end][0] == flat.T_BR and code[end + 1][0] == \
                        flat.T_END and end - pc < MAX_ITERATION:
                    lens[pc] = self.iters[pc] = end + 1 - pc

    def compile(self, ff: flat.FlatFunc, pc: int, n: int):
        fn = _Block(ff, pc, n, n == self.iters[pc]).build()
        if n == self.lens[pc]:
            self.blocks[pc] = fn
        if n == 1:
            self.singles[pc] = fn
        return fn


@functools.lru_cache(maxsize=CODE_CACHE_SIZE)
def _code_of(code: tuple) -> _Code:
    """The one _Code of a function's flat code.  Keys compare as whole
    tuples, not by hash alone, and every op field is an int, str, bool,
    None, enum, value or function type, or numerics function, so equal
    keys compile alike."""
    return _Code(code)


class _Block:
    """Source generator for the block of ``n`` ops starting at ``pc0``,
    or, in loop mode, for the loop function whose iteration they are."""

    def __init__(self, ff: flat.FlatFunc, pc0: int, n: int, loop: bool):
        self.ff, self.pc0, self.n, self.loop = ff, pc0, n, loop
        self.pc = pc0
        self.lines: list[str] = []
        self.consts: dict[int, tuple[str, object]] = {}
        self.stack: list[str] = []  # operand expressions above fr.stack
        self.pending: list[tuple] = []  # static actions not yet recorded
        self.uses: set[str] = set()  # _PROLOGUE names, added by helpers
        self.temps = 0
        self.ended = False  # a control op has set the next pc
        self.exprs: dict[str, str] = {}  # pure expression -> temp holding it
        self.shared: dict[str, int | str] = {}  # see ``record``
        # temps only congruent to their values: (the line that computes
        # it, the mask of its width, its least and greatest value)
        self.loose: dict[str, tuple[int, int, int, int]] = {}
        # locals assigned and not yet written back; a loop function writes
        # back every local its iteration assigns, at every exit, since an
        # earlier turn may have assigned those below the exit
        self.dirty: set[int] = set() if not loop else {
            op[2] for op in ff.code[pc0:pc0 + n]
            if op[0] == flat.T_SET_LOCAL or op[0] == flat.T_TEE_LOCAL}
        self.loads = set(self.dirty)  # locals loaded on entry

    def build(self):
        entry = self.label(self.pc0, None) if self.loop else None
        for pc in range(self.pc0, self.pc0 + self.n):
            self.pc = pc
            op = self.ff.code[pc]
            if op[1] is not None:  # its static action, before its template
                self.pending.append(op[1])
            _TEMPLATES[op[0]](self, op)
        if not self.ended:  # cut short of a control op
            self.control(self.pc0 + self.n)
        kind, body = "block", [f"n -= {self.n}"] + self.lines
        if self.loop:
            kind, body = "loop", [entry, f"while n >= {self.n}:"] + [
                "    " + line for line in body] + self.stored() + [
                self.unlabel(), f"fr.pc = {self.pc0}"]
        head = ["trace = cfg.trace"] + [
            line for name, line in _PROLOGUE if name in self.uses] + [
            f"l{i} = L[{i}]" for i in sorted(self.loads)]
        names = [name for name, _ in self.consts.values()]
        src = "\n".join(
            [f"def _make({', '.join(names)}):", f"  def {kind}(cfg, fr, n):"]
            + ["    " + line for line in head + body + ["return n"]]
            + [f"  return {kind}"])
        label = f"<func {self.ff.index} pc {self.pc0} len {self.n} " \
            f"#{next(_SERIALS)}>"
        ns: dict = {}
        exec(compile(src, label, "exec"), globals(), ns)
        return ns["_make"](*(v for _, v in self.consts.values()))

    # -- emission helpers

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def const(self, value) -> str:
        """Name of a closure variable holding ``value``."""
        entry = self.consts.get(id(value))
        if entry is None:
            entry = self.consts[id(value)] = (f"c{len(self.consts)}", value)
        return entry[0]

    def fresh(self) -> str:
        self.temps += 1
        return f"v{self.temps}"

    def assign(self, expr: str) -> str:
        name = self.fresh()
        self.emit(f"{name} = {expr}")
        return name

    def value(self, expr: str) -> str:
        """A temp holding the value of ``expr``, which neither traps nor
        reads state other than locals and temps: the one computed for an
        identical expression earlier, if no local it reads was assigned
        since, or the local ``set_local`` gave that temp's value to."""
        name = self.exprs.get(expr)
        if name is None:
            name = self.exprs[expr] = self.assign(expr)
        return name

    def pop(self, low: bool = False) -> str:
        """The top operand, exact unless ``low``: the reader then reads
        only its low bits, and it may be only congruent to its value."""
        if self.stack:
            v = self.stack.pop()
            return v if low else self.exact(v)
        self.uses.add("S")
        return self.assign("S.pop()")

    def exact(self, v: str) -> str:
        """``v``, exact.  A value only congruent to its own is masked
        once: by the line that computes it, if no line since reads it, or
        else in a temp holding ``v & mask`` (see ``value``)."""
        facts = self.loose.get(v)
        if facts is None:
            return v
        line, mask = facts[:2]
        read = re.compile(rf"\b{v}\b")
        if any(read.search(later) for later in self.lines[line + 1:]):
            return self.value(f"{v} & {mask}")
        self.lines[line] += f" & {mask}"
        del self.loose[v]
        return v

    def span_of(self, v: str, bits: int) -> tuple[int, int]:
        """The least and greatest value of operand ``v``, ``bits`` wide
        when it is exact."""
        if v in self.loose:
            return self.loose[v][2:]
        if v.isdigit():
            return int(v), int(v)
        return 0, (1 << bits) - 1

    def push(self, expr: str, trapping: bool = False) -> None:
        """Push the value of pure ``expr`` (see ``value``); a ``trapping``
        one may raise Trap, and is computed anew."""
        if not trapping:
            self.stack.append(self.value(expr))
            return
        name = self.fresh()
        self.emit("try:")
        self.emit(f"    {name} = {expr}")
        self.emit("except Trap as e:")
        self.emit("    " + self.fault("e.kind"))
        self.stack.append(name)

    def height(self) -> str:
        self.uses.add("S")
        return f"len(S) + {len(self.stack)}" if self.stack else "len(S)"

    def local(self, i: int) -> str:
        """The Python local holding Wasm local ``i``, loaded on entry
        unless the function assigns it first."""
        self.uses.add("L")
        if i not in self.dirty:
            self.loads.add(i)
        return f"l{i}"

    def set_local(self, i: int, v: str) -> str:
        """Assign ``v`` to local ``i``, and return the local's name.  A
        temp that only the last line computed is not kept: its expression
        is assigned directly, and the local holds it for reuse instead.
        An operand that still names the old value is moved to a temp
        first, and every reused expression that reads it is forgotten."""
        name = f"l{i}"
        if v == name:
            return name
        self.uses.add("L")
        held = []
        if v[0] == "v" and v not in self.stack and \
                self.lines[-1].startswith(f"{v} = "):
            held = [e for e, t in self.exprs.items() if t == v]
            v = self.lines.pop()[len(v) + 3:]
        if name in self.stack:
            old = self.assign(name)
            self.stack = [old if e == name else e for e in self.stack]
        self.forget(name)
        self.emit(f"{name} = {v}")
        self.exprs.update((e, name) for e in held
                          if name not in re.findall(r"\w+", e))
        self.dirty.add(i)
        return name

    def forget(self, name: str) -> None:
        """Reuse no expression that reads ``name``, which has changed, nor
        ``name`` for one."""
        self.exprs = {e: t for e, t in self.exprs.items()
                      if t != name and name not in re.findall(r"\w+", e)}

    def glob(self, i: int) -> str:
        self.uses.add("G")
        return f"G[ga[{i}]].bits"

    def label(self, target: int, result) -> str:
        """A statement pushing the label of a construct whose branches go
        to ``target`` and carry ``result``'s value, if it has one."""
        self.uses.add("labels")
        arity = 0 if result is None else 1
        return f"labels.append(({target}, {arity}, {self.height()}))"

    def unlabel(self) -> str:
        self.uses.add("labels")
        return "labels.pop()"

    def pages(self) -> str:
        self.uses.add("mem")
        return f"size // {PAGE}"

    def address(self, offset: int) -> str:
        addr = self.pop()
        self.uses.add("mem")
        return self.value(f"{addr} + {offset}") if offset else addr

    def left(self) -> str:
        """The steps to hand back from the current op: ``n`` and those of
        the ops after it, charged but not run."""
        refund = self.pc0 + self.n - 1 - self.pc
        return f"n + {refund}" if refund else "n"

    def flush(self) -> None:
        """Record the pending static actions, unless only leaks are."""
        if len(self.pending) == 1:
            self.emit(f"if full: trace.append({self.const(self.pending[0])})")
        elif self.pending:
            actions = self.const(tuple(self.pending))
            self.emit(f"if full: trace.extend({actions})")
        if self.pending:
            self.uses.add("full")
        self.pending = []

    def action(self, kind: str, *fields: str) -> str:
        """An expression of the action of ``kind`` whose fields after the
        kind are the expressions ``fields``, or of its leak record when
        only leaks are recorded: the fields that ``ACTIONS`` keeps, but a
        literal None.  The field of ``SEEN_IF_PUBLIC`` is None on secret
        memory, which ``pub`` tells."""
        self.uses.add("full")
        xs = (f'"{kind}"',) + fields

        def record_of(xs: tuple) -> str:
            kept = [xs[i] for i in ACTIONS[kind][1] if xs[i] != "None"]
            return kept[0] if len(kept) == 1 else f"({', '.join(kept)})"
        rec = record_of(xs)
        public_only, i = SEEN_IF_PUBLIC
        if kind == public_only and xs[i] != "None":
            unseen = record_of(xs[:i] + ("None",) + xs[i + 1:])
            rec = f"{rec} if pub else {unseen}"
            xs = xs[:i] + (f"{xs[i]} if pub else None",) + xs[i + 1:]
        return f"({', '.join(xs)}) if full else {rec}"

    def record(self, kind: str, *fields: str, shared: bool = False) -> None:
        """Record the ``action`` of ``kind`` with ``fields``, after the
        static actions before it.  A ``shared`` one (``shared`` maps it to
        the line that appends it) is appended again by an identical later
        call, which binds its value to a temp."""
        self.flush()
        expr = self.action(kind, *fields)
        at = self.shared.get(expr)
        if isinstance(at, int):  # bind the first one's value to a temp
            line, at = at, self.fresh()
            self.shared[expr] = at
            self.lines[line] = self.lines[line].replace(
                "append(", f"append({at} := ", 1)
        elif shared and at is None:
            self.shared[expr] = len(self.lines)
        self.emit(f"trace.append({at or expr})")

    def spilled(self) -> list[str]:
        """Statements moving the operand expressions to the frame's stack,
        after the lines that make them exact."""
        if not self.stack:
            return []
        self.stack = [self.exact(v) for v in self.stack]
        self.uses.add("S")
        return [f"S.extend(({', '.join(self.stack)},))"
                if len(self.stack) > 1 else f"S.append({self.stack[0]})"]

    def spill(self) -> None:
        self.lines += self.spilled()
        self.stack = []

    def stored(self) -> list[str]:
        """Statements writing the dirty locals back to the frame's."""
        return [f"L[{i}] = l{i}" for i in sorted(self.dirty)]

    def branch(self, depth: int) -> list[str]:
        """Statements that take a branch to ``depth``, the actions before
        it recorded, and return the steps not run.  In a loop function a
        branch to the loop drops this iteration's operands and starts the
        next one."""
        if self.loop and depth == 0:
            left = self.left()
            return ["continue"] if left == "n" else [f"n = {left}", "continue"]
        return self.spilled() + self.stored() + [
            f"_br(cfg, fr, {depth})", f"return {self.left()}"]

    def fault(self, kind: str) -> str:
        """A statement that traps with ``kind`` (an expression) after the
        pending static actions."""
        actions = self.const(tuple(self.pending))
        return f"return _fault(cfg, {kind}, {actions}, {self.left()})"

    def inline(self, op: Inline, *args: str) -> None:
        """Push ``op`` applied to operands, which are temps or non-negative
        int literals, so that its text may name one twice.  The result is
        exact when it cannot leave its width, or is masked when its bound
        passes twice the width, so ints stay small; else it is left only
        congruent to its value, and unmasked."""
        assert all(a.isidentifier() or a.isdigit() for a in args), args
        expr = "(" + op.text.format(**dict(zip("ab", args))) + ")"
        lo = hi = 0
        if op.wraps or any(a in self.loose for a in args):
            lo, hi = span(op, {x: self.span_of(a, op.bits)
                               for x, a in zip("ab", args)})
        if 0 <= lo and hi <= op.mask:
            self.push(expr)
        elif max(-lo, hi).bit_length() > 2 * op.mask.bit_length():
            self.push(f"{expr} & {op.mask}")
        else:
            computed = expr in self.exprs  # its temp's record stands
            self.push(expr)
            if not computed:
                self.loose[self.stack[-1]] = (len(self.lines) - 1, op.mask,
                                              lo, hi)

    def bounds(self, kind: str, ea: str, width: int) -> None:
        """Trap unless ``width`` bytes at ``ea`` lie inside the memory."""
        self.flush()
        action = self.action("mem", f'"{kind}"', ea, str(width), "None")
        self.emit(f"if {ea} + {width} > size:")
        self.emit(f"    trace.append({action})")
        self.emit("    " + self.fault('"out of bounds memory access"'))

    def control(self, next_pc: int | None = None) -> None:
        """The op being lowered is a control op: record the block's
        actions, hand its operands to the frame and leave, setting the
        frame's pc to ``next_pc`` if it is given."""
        self.flush()
        self.spill()
        self.lines += self.stored()
        self.dirty = set()
        self.ended = True
        if next_pc is not None:
            self.emit(f"fr.pc = {next_pc}")


# -- one template per tag: the semantics of each op, written once

def _t_unreachable(b: _Block, op) -> None:
    b.emit(b.fault('"unreachable"'))
    b.ended = True


def _t_static(b: _Block, op) -> None:
    """nop, classify, declassify: the value is unchanged."""


def _t_drop(b: _Block, op) -> None:
    b.pop(low=True)


def _t_reinterpret(b: _Block, op) -> None:
    """The bits are unchanged, and must be exact (the frame's are)."""
    if b.stack:
        b.stack[-1] = b.exact(b.stack[-1])


def _t_select(b: _Block, op) -> None:
    c, v2, v1 = b.pop(), b.pop(), b.pop()
    if op[1] is None:
        b.record("branch", '"select"', c)
    b.push(f"{v2} if {c} == 0 else {v1}")


def _t_block(b: _Block, op) -> None:
    b.emit(b.label(op[3] + 1, op[2]))


def _t_loop(b: _Block, op) -> None:
    if not b.loop:  # a loop function pushes its label once, on entry
        b.emit(b.label(b.pc, None))


def _t_if(b: _Block, op) -> None:
    c = b.pop()
    b.record("branch", '"if"', c)
    b.control()
    else_pc, end_pc = op[3], op[4]
    label = b.label(end_pc + 1, op[2])
    b.emit(f"if {c}:")
    b.emit(f"    {label}")
    b.emit(f"    fr.pc = {b.pc + 1}")
    b.emit("else:")
    if else_pc >= 0:
        b.emit(f"    {label}")
        b.emit(f"    fr.pc = {else_pc + 1}")
    else:
        b.emit(f"    fr.pc = {end_pc + 1}")


def _t_else(b: _Block, op) -> None:
    # reached only by falling out of the then-branch
    b.control(op[2])


def _t_end(b: _Block, op) -> None:
    if b.pc == len(b.ff.code) - 1:  # the function's own end
        _t_return(b, op)
    else:
        b.emit(b.unlabel())


def _t_br(b: _Block, op) -> None:
    b.flush()
    b.lines += b.branch(op[2])
    b.ended = True


def _t_br_if(b: _Block, op) -> None:
    c = b.pop()
    b.record("branch", '"br_if"', c)
    if not b.loop:  # the block ends here either way
        b.control(b.pc + 1)
    lines = b.branch(op[2])  # which may make operands exact first
    b.emit(f"if {c}:")
    b.lines += ["    " + line for line in lines]


def _t_br_table(b: _Block, op) -> None:
    i = b.pop()
    b.record("branch", '"br_table"', i)
    b.control()
    targets = b.const(op[2])
    b.emit(f"_br(cfg, fr, {targets}[{i}] if {i} < {len(op[2])} else {op[3]})")


def _t_return(b: _Block, op) -> None:
    b.control()
    b.emit("_return(cfg, fr)")


def _t_call(b: _Block, op) -> None:
    b.control(b.pc + 1)
    b.emit(f"_enter(cfg, fr, cfg.store.funcs[fr.inst.func_addrs[{op[2]}]])")


def _t_call_indirect(b: _Block, op) -> None:
    i = b.pop()
    b.record("call-indirect", i)
    b.control(b.pc + 1)
    b.emit(f"_call_indirect(cfg, fr, {i}, {b.const(op[2])})")


def _t_get_local(b: _Block, op) -> None:
    b.stack.append(b.local(op[2]))


def _t_set_local(b: _Block, op) -> None:
    b.set_local(op[2], b.pop())


def _t_tee_local(b: _Block, op) -> None:
    v = b.set_local(op[2], b.pop())  # which may rebind b.stack
    b.stack.append(v)


def _t_get_global(b: _Block, op) -> None:
    b.stack.append(b.assign(b.glob(op[2])))


def _t_set_global(b: _Block, op) -> None:
    b.emit(f"{b.glob(op[2])} = {b.pop()}")


def _t_load(b: _Block, op) -> None:
    """The value, bounds check and action of a load of an address and
    width loaded before are that load's, until ``forget("data")``."""
    t, pack, sign, offset, width = op[2], op[3], op[4], op[6], op[7]
    ea = b.address(offset)
    fetch = f"{b.const(_UNPACK[width])}(data, {ea})[0]"
    v = b.exprs.get(fetch)
    if v is None:
        b.bounds("load", ea, width)
        v = b.exprs[fetch] = b.assign(fetch)
    b.record("mem", '"load"', ea, str(width), v, shared=True)
    if pack is not None and sign:
        v = b.value(f"signed({v}, {pack}) & {(1 << t.bits) - 1}")
    b.stack.append(v)


def _t_store(b: _Block, op) -> None:
    """A packed store reads only the low bits of its value, which is
    masked to the store's width only if it may exceed it."""
    pack, offset, width = op[3], op[5], op[6]
    value = b.pop(low=pack is not None)
    ea = b.address(offset)
    b.bounds("store", ea, width)
    lo, hi = b.span_of(value, op[2].bits)
    mask = (1 << (width * 8)) - 1
    bits = value if 0 <= lo and hi <= mask else b.value(f"{value} & {mask}")
    b.emit(f"{b.const(_PACK[width])}(data, {ea}, {bits})")
    b.forget("data")
    b.record("mem", '"store"', ea, str(width), bits)


def _t_memory_size(b: _Block, op) -> None:
    b.stack.append(b.assign(b.pages()))


def _t_memory_grow(b: _Block, op) -> None:
    delta = b.pop()
    old, result = b.assign(b.pages()), b.fresh()
    b.emit(f"if {old} + {delta} <= ({DEFAULT_GROW_LIMIT} if mem.max is None "
           "else mem.max):")
    b.emit(f"    data.extend(bytes({delta} * {PAGE}))")
    b.emit("    size = len(data)")
    b.emit(f"    {result} = {old}")
    b.emit("else:")
    b.emit(f"    {result} = 0xFFFFFFFF")
    b.forget("data")
    b.stack.append(result)
    b.record("grow", old, delta, result)


def _t_const(b: _Block, op) -> None:
    b.stack.append(repr(op[3]))


def _t_numeric(b: _Block, op) -> None:
    """unop, testop, binop, relop and convert: the function is the op's
    last field, and only an integer div or rem, public or secret, leaks
    its operands."""
    fn = op[-1]
    inline = EXPRS.get(fn)
    low = inline.low if inline else ""
    names = "ab" if op[0] == flat.T_BINOP or op[0] == flat.T_RELOP else "a"
    args = [b.pop(x in low) for x in reversed(names)][::-1]
    if op[1] is None:
        b.record("unsafe-binop", repr(op[3]), *args)
    if inline is None:
        b.push(f"{b.const(fn)}({', '.join(args)})", fn in TRAPPING)
    else:
        b.inline(inline, *args)


_TEMPLATES = {
    flat.T_UNREACHABLE: _t_unreachable,
    flat.T_DROP: _t_drop, flat.T_SELECT: _t_select,
    flat.T_BLOCK: _t_block, flat.T_LOOP: _t_loop, flat.T_IF: _t_if,
    flat.T_ELSE: _t_else, flat.T_END: _t_end,
    flat.T_BR: _t_br, flat.T_BR_IF: _t_br_if, flat.T_BR_TABLE: _t_br_table,
    flat.T_RETURN: _t_return,
    flat.T_CALL: _t_call, flat.T_CALL_INDIRECT: _t_call_indirect,
    flat.T_GET_LOCAL: _t_get_local, flat.T_SET_LOCAL: _t_set_local,
    flat.T_TEE_LOCAL: _t_tee_local, flat.T_GET_GLOBAL: _t_get_global,
    flat.T_SET_GLOBAL: _t_set_global,
    flat.T_LOAD: _t_load, flat.T_STORE: _t_store,
    flat.T_MEMORY_SIZE: _t_memory_size, flat.T_MEMORY_GROW: _t_memory_grow,
    flat.T_CONST: _t_const,
    flat.T_REINTERPRET: _t_reinterpret,
} | dict.fromkeys((flat.T_NOP, flat.T_CLASSIFY, flat.T_DECLASSIFY),
                  _t_static) \
  | dict.fromkeys((flat.T_UNOP, flat.T_TESTOP, flat.T_BINOP, flat.T_RELOP,
                   flat.T_CONVERT), _t_numeric)


@dataclass
class Outcome:
    status: str  # "done" | "trap" | "fuel"
    results: list[Value]
    trap_kind: str | None
    trace: list[tuple]
    store: Store
    steps: int


_NEW_LIST = object()  # invoke's default trace


def invoke(store: Store, inst_idx: int, export: str, args: list[Value],
           fuel: int | None = None, trace=_NEW_LIST) -> Outcome:
    """Run an exported function to completion (or trap / fuel exhaustion).
    Its actions go to ``trace``, the list to append to (by default a new
    one), or nowhere when it is None, which runs it recording only leaks;
    the outcome holds it."""
    cfg = make_config(store, inst_idx, export, args, fuel)
    if trace is not _NEW_LIST:
        cfg.trace = deque(maxlen=0) if trace is None else trace
        cfg.leaks_only = trace is None
    fuel0 = cfg.fuel
    run(cfg)
    return Outcome(cfg.status, cfg.typed_results(), cfg.trap_kind, cfg.trace,
                   store, fuel0 - cfg.fuel)


def action_to_json(index: int, action: tuple) -> dict:
    """Line-oriented trace serialization for the CLI: the fields that
    ``ACTIONS`` names, but a None one, and a host by its dotted name."""
    body: dict = {"step": index, "action": action[0]}
    for name, x in zip(ACTIONS[action[0]][0], action[1:]):
        if x is not None:
            body[name] = ".".join(x) if name == "host" else x
    return body
