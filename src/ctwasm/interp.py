"""Deterministic interpreter emitting one leakage action per executed op.

Runtime state follows the usual store/instance split: a Store owns every
closure, global, table, and memory; instances index into it; a Config is
a frame stack over one store plus a fuel budget that makes every run
finite.  Values live on the operand stack as raw bit patterns; their
types are static, known from validation.

Leakage actions are plain tuples (cheap to build, compare, and
serialize):

    ("op", name)                          no data-dependent observation
    ("branch", name, bits)                taken condition / table index
    ("secret-select",)                    occurrence only
    ("mem", kind, addr, width, bits|None) address always; bits iff the
                                          memory is public
    ("unsafe-binop", name, lhs, rhs)      public div/rem operand values
    ("grow", old_pages, delta, result)
    ("call", func_index)
    ("call-indirect", table_slot)
    ("host", key, pre, args, post, results)   all public projections

Ops whose action is data-independent reuse one precomputed tuple, so
tracing adds no allocation on the hot path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from . import ast, flat
from .numerics import Trap, signed
from .validate import TypedModule

PAGE = 65536
FRAME_LIMIT = 1000
DEFAULT_FUEL = 10_000_000
DEFAULT_GROW_LIMIT = 64  # pages, for memories declared without a max

RUNNING, DONE, TRAPPED, OUT_OF_FUEL = "running", "done", "trap", "fuel"


def default_fuel() -> int:
    return int(os.environ.get("CTWASM_FUEL", DEFAULT_FUEL))


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
    """Parse a typed argument literal like ``i32:7``, ``s64:-1``, ``f32:0.5``."""
    if ":" not in literal:
        raise ValueError(f"expected type:value, got {literal!r}")
    tname, _, raw = literal.partition(":")
    t = ast.VALTYPES_BY_NAME.get(tname)
    if t is None:
        raise ValueError(f"unknown value type {tname!r}")
    if t.is_int:
        v = int(raw, 0)
        lo, hi = -(1 << (t.bits - 1)), (1 << t.bits) - 1
        if not lo <= v <= hi:
            raise ValueError(f"{raw} out of range for {tname}")
        return Value(t, v & hi)
    import struct as _struct
    fmt = "<I" if t.bits == 32 else "<Q"
    ffmt = "<f" if t.bits == 32 else "<d"
    try:
        return Value(t, _struct.unpack(fmt, _struct.pack(ffmt, float(raw)))[0])
    except OverflowError:
        raise ValueError(f"{raw} out of range for {tname}") from None


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
        return bytes(self._mem.data[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        if not self._visible:
            raise PermissionError("secret memory is not writable by untrusted host")
        self._mem.data[offset:offset + len(data)] = data


@dataclass
class ExternVal:
    kind: str  # "func" | "global" | "memory" | "table"
    addr: int


@dataclass
class Store:
    insts: list[Instance] = field(default_factory=list)
    funcs: list = field(default_factory=list)  # WasmFunc | HostFunc
    globals: list[GlobalInst] = field(default_factory=list)
    tables: list[list[int | None]] = field(default_factory=list)
    mems: list[MemInst] = field(default_factory=list)

    def export_of(self, inst_idx: int, name: str) -> ExternVal:
        kind, addr = self.insts[inst_idx].exports[name]
        return ExternVal(kind, addr)

    def alloc_global(self, t: ast.ValType, mutable: bool, bits: int) -> ExternVal:
        self.globals.append(GlobalInst(mutable, t, bits))
        return ExternVal("global", len(self.globals) - 1)

    def alloc_memory(self, sec: ast.Secrecy, pages: int,
                     max_pages: int | None = None) -> ExternVal:
        self.mems.append(MemInst(sec, bytearray(pages * PAGE), max_pages))
        return ExternVal("memory", len(self.mems) - 1)

    def alloc_table(self, size: int) -> ExternVal:
        self.tables.append([None] * size)
        return ExternVal("table", len(self.tables) - 1)


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


def instantiate(store: Store, tm: TypedModule,
                imports: dict[tuple[str, str], object] | None = None
                ) -> tuple[Store, int]:
    """Link and initialize a validated module; returns (store, instance)."""
    imports = imports or {}
    m = tm.module
    inst_idx = len(store.insts)
    func_addrs: list[int] = []
    global_addrs: list[int] = []
    table_addr = mem_addr = None

    def lookup(name_pair: tuple[str, str], kind: str):
        ext = imports.get(name_pair)
        if ext is None:
            raise InstantiateError(
                "ImportMissing", f"{name_pair[0]}.{name_pair[1]} ({kind})")
        return ext

    for i, f in enumerate(m.funcs):
        if f.imported is None:
            continue
        ext = lookup(f.imported, "func")
        if isinstance(ext, HostFunc):
            if ext.type != f.type:
                raise InstantiateError(
                    "ImportTypeMismatch",
                    f"function {f.imported}: declared {f.type!r}, got {ext.type!r}")
            store.funcs.append(ext)
            func_addrs.append(len(store.funcs) - 1)
        elif isinstance(ext, ExternVal) and ext.kind == "func":
            cl = store.funcs[ext.addr]
            if cl.type != f.type:
                raise InstantiateError(
                    "ImportTypeMismatch",
                    f"function {f.imported}: declared {f.type!r}, got {cl.type!r}")
            func_addrs.append(ext.addr)
        else:
            raise InstantiateError("ImportTypeMismatch",
                                   f"{f.imported} is not a function")

    for g in m.globals:
        if g.imported is None:
            continue
        ext = lookup(g.imported, "global")
        if not (isinstance(ext, ExternVal) and ext.kind == "global"):
            raise InstantiateError("ImportTypeMismatch",
                                   f"{g.imported} is not a global")
        gi = store.globals[ext.addr]
        if gi.type != g.type or gi.mutable != g.mutable:
            raise InstantiateError(
                "ImportTypeMismatch",
                f"global {g.imported}: declared {g.type.name}, got {gi.type.name}")
        global_addrs.append(ext.addr)

    if m.memory is not None:
        mem = m.memory
        if mem.imported is not None:
            ext = lookup(mem.imported, "memory")
            if not (isinstance(ext, ExternVal) and ext.kind == "memory"):
                raise InstantiateError("ImportTypeMismatch",
                                       f"{mem.imported} is not a memory")
            mi = store.mems[ext.addr]
            if mi.sec is not mem.sec:
                raise InstantiateError(
                    "ImportTypeMismatch",
                    f"memory {mem.imported}: secrecy {mi.sec.value} != "
                    f"{mem.sec.value}")
            if mi.pages < mem.min:
                raise InstantiateError(
                    "ImportTypeMismatch",
                    f"memory {mem.imported}: {mi.pages} pages < min {mem.min}")
            if mem.max is not None and (mi.max is None or mi.max > mem.max):
                raise InstantiateError(
                    "ImportTypeMismatch", f"memory {mem.imported}: max exceeds bound")
            mem_addr = ext.addr
        else:
            store.mems.append(MemInst(mem.sec, bytearray(mem.min * PAGE), mem.max))
            mem_addr = len(store.mems) - 1

    if m.table is not None:
        tab = m.table
        if tab.imported is not None:
            ext = lookup(tab.imported, "table")
            if not (isinstance(ext, ExternVal) and ext.kind == "table"):
                raise InstantiateError("ImportTypeMismatch",
                                       f"{tab.imported} is not a table")
            if len(store.tables[ext.addr]) < tab.min:
                raise InstantiateError("ImportTypeMismatch",
                                       f"table {tab.imported} too small")
            table_addr = ext.addr
        else:
            store.tables.append([None] * tab.min)
            table_addr = len(store.tables) - 1

    # defined globals: constant expressions, classification is bit-preserving
    for g in m.globals:
        if g.imported is not None:
            continue
        bits = _init_bits(store, global_addrs, g.init)
        store.globals.append(GlobalInst(g.mutable, g.type, bits))
        global_addrs.append(len(store.globals) - 1)

    for i, f in enumerate(m.funcs):
        if f.imported is not None:
            continue
        store.funcs.append(WasmFunc(f.type, inst_idx, tm.flat(i)))
        func_addrs.append(len(store.funcs) - 1)

    if m.table is not None:
        table = store.tables[table_addr]
        for seg in m.table.elems:
            base = _init_bits(store, global_addrs, seg.offset)
            if base + len(seg.funcs) > len(table):
                raise InstantiateError("ElemSegmentOutOfBounds",
                                       f"offset {base} + {len(seg.funcs)}")
            for k, fi in enumerate(seg.funcs):
                table[base + k] = func_addrs[fi]

    if m.data:
        mem = store.mems[mem_addr]
        for seg in m.data:
            base = _init_bits(store, global_addrs, seg.offset)
            if base + len(seg.data) > len(mem.data):
                raise InstantiateError("DataSegmentOutOfBounds",
                                       f"offset {base} + {len(seg.data)}")
            # a segment targeting a secret memory is classified on the way
            # in, which does not change any byte
            mem.data[base:base + len(seg.data)] = seg.data

    exports: dict[str, tuple[str, int]] = {}
    for i, f in enumerate(m.funcs):
        for name in f.exports:
            exports[name] = ("func", func_addrs[i])
    for i, g in enumerate(m.globals):
        for name in g.exports:
            exports[name] = ("global", global_addrs[i])
    if m.table is not None:
        for name in m.table.exports:
            exports[name] = ("table", table_addr)
    if m.memory is not None:
        for name in m.memory.exports:
            exports[name] = ("memory", mem_addr)

    store.insts.append(Instance(tm, func_addrs, global_addrs,
                                table_addr, mem_addr, exports))
    return store, inst_idx


# --------------------------------------------------------------------------
# Execution

class Frame:
    __slots__ = ("inst", "ff", "code", "locals", "stack", "labels", "pc")

    def __init__(self, inst: Instance, ff: flat.FlatFunc, locals_: list[int]):
        self.inst = inst
        self.ff = ff
        self.code = ff.code
        self.locals = locals_
        self.stack: list[int] = []
        self.labels: list[tuple[int, int, int]] = []  # (target, arity, height)
        self.pc = 0


class HostPending:
    __slots__ = ("cl", "args", "inst")

    def __init__(self, cl: HostFunc, args: list[int], inst: Instance):
        self.cl = cl
        self.args = args
        self.inst = inst


class Config:
    """One execution: frame stack over a store, plus fuel and a trace."""

    def __init__(self, store: Store, inst_idx: int, fuel: int,
                 grow_limit: int = DEFAULT_GROW_LIMIT, debug: bool = False):
        self.store = store
        self.inst_idx = inst_idx
        self.frames: list = []
        self.fuel = fuel
        self.grow_limit = grow_limit
        self.status = RUNNING
        self.trap_kind: str | None = None
        self.results: list[int] = []
        self.result_types: tuple[ast.ValType, ...] = ()
        self.trace: list[tuple] = []
        self.debug = debug

    @property
    def terminal(self) -> bool:
        return self.status != RUNNING

    def typed_results(self) -> list[Value]:
        return [Value(t, b) for t, b in zip(self.result_types, self.results)]

    def frame_pointers(self) -> tuple:
        """Projected residual-instruction shape: one (func, pc) per frame."""
        return tuple(
            (f.ff.index, f.pc, len(f.stack), tuple(l[0] for l in f.labels))
            if isinstance(f, Frame) else ("host", f.cl.key)
            for f in self.frames)


def make_config(store: Store, inst_idx: int, export: str, args: list[Value],
                fuel: int | None = None, grow_limit: int = DEFAULT_GROW_LIMIT,
                debug: bool = False) -> Config:
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
    cfg = Config(store, inst_idx, default_fuel() if fuel is None else fuel,
                 grow_limit, debug)
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


def run(cfg: Config, max_steps: int | None = None) -> None:
    """Drive the configuration until it terminates, runs out of fuel, or
    has executed max_steps further instructions."""
    store = cfg.store
    trace = cfg.trace
    frames = cfg.frames
    budget = -1 if max_steps is None else max_steps
    T = flat
    while cfg.status == RUNNING:
        if budget == 0:
            return
        budget -= 1
        if cfg.fuel <= 0:
            cfg.status = OUT_OF_FUEL
            return
        cfg.fuel -= 1
        fr = frames[-1]
        if fr.__class__ is HostPending:
            try:
                trace.append(_run_host(cfg, fr))
            except Trap as t:
                trace.append(("op", "host-trap"))
                _trap(cfg, t.kind)
            continue
        code = fr.code
        pc = fr.pc
        op = code[pc]
        tag = op[0]
        stack = fr.stack
        if cfg.debug:
            _debug_check(cfg, fr, pc)

        if tag == T.T_GET_LOCAL:
            stack.append(fr.locals[op[2]])
            trace.append(op[1])
        elif tag == T.T_CONST:
            stack.append(op[3])
            trace.append(op[1])
        elif tag == T.T_BINOP:
            b = stack.pop()
            a = stack.pop()
            act = op[1]
            trace.append(act if act is not None
                         else ("unsafe-binop", op[3], a, b))
            try:
                stack.append(op[4](a, b))
            except Trap as t:
                _trap(cfg, t.kind)
                continue
        elif tag == T.T_SET_LOCAL:
            fr.locals[op[2]] = stack.pop()
            trace.append(op[1])
        elif tag == T.T_TEE_LOCAL:
            fr.locals[op[2]] = stack[-1]
            trace.append(op[1])
        elif tag == T.T_GET_GLOBAL:
            stack.append(store.globals[fr.inst.global_addrs[op[2]]].bits)
            trace.append(op[1])
        elif tag == T.T_SET_GLOBAL:
            store.globals[fr.inst.global_addrs[op[2]]].bits = stack.pop()
            trace.append(op[1])
        elif tag == T.T_LOAD:
            addr = stack.pop()
            ea = addr + op[6]
            width = op[7]
            mem = store.mems[fr.inst.mem_addr]
            data = mem.data
            if ea + width > len(data):
                trace.append(("mem", "load", ea, width, None))
                _trap(cfg, "out of bounds memory access")
                continue
            bits = int.from_bytes(data[ea:ea + width], "little")
            trace.append(("mem", "load", ea, width,
                          bits if mem.sec is ast.Secrecy.PUBLIC else None))
            if op[3] is not None and op[4]:  # signed packed load
                bits = signed(bits, op[3]) & ((1 << op[2].bits) - 1)
            stack.append(bits)
        elif tag == T.T_STORE:
            value = stack.pop()
            addr = stack.pop()
            ea = addr + op[5]
            width = op[6]
            mem = store.mems[fr.inst.mem_addr]
            data = mem.data
            if ea + width > len(data):
                trace.append(("mem", "store", ea, width, None))
                _trap(cfg, "out of bounds memory access")
                continue
            bits = value & ((1 << (width * 8)) - 1)
            data[ea:ea + width] = bits.to_bytes(width, "little")
            trace.append(("mem", "store", ea, width,
                          bits if mem.sec is ast.Secrecy.PUBLIC else None))
        elif tag == T.T_RELOP:
            b = stack.pop()
            a = stack.pop()
            stack.append(op[4](a, b))
            trace.append(op[1])
        elif tag == T.T_TESTOP:
            stack.append(op[3](stack.pop()))
            trace.append(op[1])
        elif tag == T.T_UNOP:
            stack.append(op[4](stack.pop()))
            trace.append(op[1])
        elif tag == T.T_BR_IF:
            cond = stack.pop()
            trace.append(("branch", "br_if", cond))
            if cond:
                pc = _br(cfg, fr, op[2])
                if pc < 0:
                    continue
                fr.pc = pc
                continue
        elif tag == T.T_BR:
            trace.append(op[1])
            pc = _br(cfg, fr, op[2])
            if pc < 0:
                continue
            fr.pc = pc
            continue
        elif tag == T.T_BR_TABLE:
            idx = stack.pop()
            trace.append(("branch", "br_table", idx))
            targets = op[2]
            depth = targets[idx] if idx < len(targets) else op[3]
            pc = _br(cfg, fr, depth)
            if pc < 0:
                continue
            fr.pc = pc
            continue
        elif tag == T.T_BLOCK:
            trace.append(op[1])
            arity = 1 if op[2] is not None else 0
            fr.labels.append((op[3] + 1, arity, len(stack)))
        elif tag == T.T_LOOP:
            trace.append(op[1])
            fr.labels.append((pc, 0, len(stack)))
        elif tag == T.T_IF:
            cond = stack.pop()
            trace.append(("branch", "if", cond))
            arity = 1 if op[2] is not None else 0
            else_pc, end_pc = op[3], op[4]
            if cond:
                fr.labels.append((end_pc + 1, arity, len(stack)))
            elif else_pc >= 0:
                fr.labels.append((end_pc + 1, arity, len(stack)))
                fr.pc = else_pc + 1
                continue
            else:
                fr.pc = end_pc + 1
                continue
        elif tag == T.T_ELSE:
            # reached only by falling out of the then-branch
            trace.append(op[1])
            fr.pc = op[2]
            continue
        elif tag == T.T_END:
            trace.append(op[1])
            if fr.labels:
                fr.labels.pop()
            else:
                _return(cfg, fr)
                continue
        elif tag == T.T_SELECT:
            cond = stack.pop()
            v2 = stack.pop()
            v1 = stack.pop()
            act = op[1]
            trace.append(act if act is not None else ("branch", "select", cond))
            stack.append(v2 if cond == 0 else v1)
        elif tag == T.T_DROP:
            stack.pop()
            trace.append(op[1])
        elif tag == T.T_NOP:
            trace.append(op[1])
        elif tag == T.T_CONVERT:
            trace.append(op[1])
            try:
                stack.append(op[4](stack.pop()))
            except Trap as t:
                _trap(cfg, t.kind)
                continue
        elif tag in (T.T_REINTERPRET, T.T_CLASSIFY, T.T_DECLASSIFY):
            trace.append(op[1])  # bit-preserving retags
        elif tag == T.T_CALL:
            trace.append(op[1])
            _enter(cfg, fr, store.funcs[fr.inst.func_addrs[op[2]]])
            continue
        elif tag == T.T_CALL_INDIRECT:
            idx = stack.pop()
            trace.append(("call-indirect", idx))
            table = store.tables[fr.inst.table_addr]
            if idx >= len(table):
                _trap(cfg, "undefined element")
                continue
            entry = table[idx]
            if entry is None:
                _trap(cfg, "uninitialized element")
                continue
            cl = store.funcs[entry]
            if cl.type != op[2]:
                _trap(cfg, "indirect call type mismatch")
                continue
            _enter(cfg, fr, cl)
            continue
        elif tag == T.T_MEMORY_SIZE:
            trace.append(op[1])
            stack.append(store.mems[fr.inst.mem_addr].pages)
        elif tag == T.T_MEMORY_GROW:
            delta = stack.pop()
            mem = store.mems[fr.inst.mem_addr]
            old = mem.pages
            limit = mem.max if mem.max is not None else cfg.grow_limit
            if old + delta <= limit:
                mem.data.extend(bytes(delta * PAGE))
                result = old
            else:
                result = 0xFFFFFFFF
            stack.append(result)
            trace.append(("grow", old, delta, result))
        elif tag == T.T_RETURN:
            trace.append(op[1])
            _return(cfg, fr)
            continue
        elif tag == T.T_UNREACHABLE:
            trace.append(op[1])
            _trap(cfg, "unreachable")
            continue
        else:  # pragma: no cover
            raise AssertionError(f"unhandled tag {tag}")
        fr.pc = pc + 1


def _br(cfg: Config, fr: Frame, depth: int) -> int:
    """Branch to a label; returns new pc, or -1 after a function return."""
    labels = fr.labels
    if depth == len(labels):
        _return(cfg, fr)
        return -1
    target, arity, height = labels[-1 - depth]
    stack = fr.stack
    if arity:
        vals = stack[-arity:]
        del stack[height:]
        stack.extend(vals)
    else:
        del stack[height:]
    del labels[len(labels) - depth - 1:]
    return target


def _enter(cfg: Config, fr: Frame, cl) -> bool:
    """Push a callee frame; False if the config trapped instead."""
    if len(cfg.frames) >= FRAME_LIMIT:
        _trap(cfg, "call stack exhausted")
        return False
    n = len(cl.type.params)
    stack = fr.stack
    args = stack[-n:] if n else []
    if n:
        del stack[-n:]
    fr.pc += 1  # resume after the call upon return
    if isinstance(cl, HostFunc):
        cfg.frames.append(HostPending(cl, args, fr.inst))
        return True
    locals_ = args + [0] * (len(cl.ff.local_types) - n)
    cfg.frames.append(Frame(cfg.store.insts[cl.inst_idx], cl.ff, locals_))
    return True


def _debug_check(cfg: Config, fr: Frame, pc: int) -> None:
    """Compare the live stack against the validator's annotation."""
    ann = fr.ff.stack_types
    if ann is None:
        return
    expected = ann[pc]
    if len(expected) != len(fr.stack):
        raise AssertionError(
            f"stack depth {len(fr.stack)} != annotated {len(expected)} "
            f"at func {fr.ff.index} pc {pc}")
    for t, bits in zip(expected, fr.stack):
        if t is not None and not 0 <= bits < (1 << t.bits):
            raise AssertionError(
                f"value 0x{bits:x} out of range for annotated {t.name} "
                f"at func {fr.ff.index} pc {pc}")


def step(cfg: Config) -> tuple | None:
    """Execute exactly one instruction; returns its action (None if the
    configuration was already terminal)."""
    if cfg.terminal:
        return None
    before = len(cfg.trace)
    run(cfg, max_steps=1)
    return cfg.trace[before] if len(cfg.trace) > before else None


@dataclass
class Outcome:
    status: str  # "done" | "trap" | "fuel"
    results: list[Value]
    trap_kind: str | None
    trace: list[tuple]
    store: Store
    steps: int


def invoke(store: Store, inst_idx: int, export: str, args: list[Value],
           fuel: int | None = None, grow_limit: int = DEFAULT_GROW_LIMIT,
           debug: bool = False) -> Outcome:
    """Run an exported function to completion (or trap / fuel exhaustion)."""
    cfg = make_config(store, inst_idx, export, args, fuel, grow_limit, debug)
    fuel0 = cfg.fuel
    run(cfg)
    results = cfg.typed_results() if cfg.status == DONE else []
    return Outcome(cfg.status, results, cfg.trap_kind, cfg.trace, store,
                   fuel0 - cfg.fuel)


def action_to_json(index: int, action: tuple) -> dict:
    """Line-oriented trace serialization for the CLI."""
    kind = action[0]
    body: dict = {"step": index, "action": kind}
    if kind == "op":
        body["op"] = action[1]
    elif kind == "branch":
        body["op"] = action[1]
        body["condition"] = action[2]
    elif kind == "mem":
        body.update(op=action[1], addr=action[2], width=action[3])
        if action[4] is not None:
            body["value"] = action[4]
    elif kind == "unsafe-binop":
        body.update(op=action[1], lhs=action[2], rhs=action[3])
    elif kind == "grow":
        body.update(old=action[1], delta=action[2], result=action[3])
    elif kind == "call":
        body["func"] = action[1]
    elif kind == "call-indirect":
        body["slot"] = action[1]
    elif kind == "host":
        body["host"] = ".".join(action[1])
    return body
