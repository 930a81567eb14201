"""Flat instruction arrays shared by the validator and the interpreter.

Nested bodies are lowered to the same linear shape the binary format uses:
``block``/``loop``/``if`` become markers with precomputed partner offsets,
``else``/``end`` appear as explicit ops, and every function body ends with
a closing ``end``.  The validator walks this array once; the interpreter
executes it with a label stack, so both agree on instruction offsets.

Each op is a tuple ``(tag, static_action, *fields)``.  ``static_action``
is the leakage record for ops whose observation never depends on operand
values (reused every execution); ops with data-dependent observations
carry ``None`` and the interpreter builds the record per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .numerics import BINOP_FNS, CONVERT_FNS, RELOP_FNS, TESTOP_FNS, UNOP_FNS

(
    T_UNREACHABLE, T_NOP, T_DROP, T_SELECT,
    T_BLOCK, T_LOOP, T_IF, T_ELSE, T_END,
    T_BR, T_BR_IF, T_BR_TABLE, T_RETURN,
    T_CALL, T_CALL_INDIRECT,
    T_GET_LOCAL, T_SET_LOCAL, T_TEE_LOCAL, T_GET_GLOBAL, T_SET_GLOBAL,
    T_LOAD, T_STORE, T_MEMORY_SIZE, T_MEMORY_GROW,
    T_CONST, T_UNOP, T_BINOP, T_TESTOP, T_RELOP,
    T_CONVERT, T_REINTERPRET, T_CLASSIFY, T_DECLASSIFY,
) = range(33)

@dataclass
class FlatFunc:
    index: int
    type: ast.FuncType
    local_types: tuple[ast.ValType, ...]  # params followed by declared locals
    code: list[tuple]
    origins: list[ast.Instr]
    # operand-stack types before each op, filled in by the validator when
    # annotation is requested (None otherwise)
    stack_types: list[tuple[ast.ValType, ...]] | None = None
    # the interpreter's compiled code, shared by every FlatFunc with equal
    # code and looked up on first execution
    compiled: object = field(default=None, repr=False, compare=False)

    @property
    def n_params(self) -> int:
        return len(self.type.params)


class _Flattener:
    def __init__(self) -> None:
        self.code: list[tuple] = []
        self.origins: list[ast.Instr] = []

    def emit(self, origin: ast.Instr, *op) -> int:
        self.code.append(op)
        self.origins.append(origin)
        return len(self.code) - 1

    def block_body(self, body: tuple[ast.Instr, ...]) -> None:
        for ins in body:
            self.instr(ins)

    def instr(self, ins: ast.Instr) -> None:
        safe = ("op", ast.mnemonic(ins))
        match ins:
            case ast.Unreachable():
                self.emit(ins, T_UNREACHABLE, safe)
            case ast.Nop():
                self.emit(ins, T_NOP, safe)
            case ast.Drop():
                self.emit(ins, T_DROP, safe)
            case ast.Select(sec=sec):
                if sec is ast.Secrecy.SECRET:
                    self.emit(ins, T_SELECT, ("secret-select",), sec)
                else:
                    self.emit(ins, T_SELECT, None, sec)
            case ast.Block(result=r, body=b):
                at = self.emit(ins, T_BLOCK, safe, r, -1)
                self.block_body(b)
                end = self.emit(ins, T_END, ("op", "end"))
                self.code[at] = (T_BLOCK, safe, r, end)
            case ast.Loop(result=r, body=b):
                at = self.emit(ins, T_LOOP, safe, r)
                self.block_body(b)
                self.emit(ins, T_END, ("op", "end"))
            case ast.If(result=r, then=t, else_=e):
                at = self.emit(ins, T_IF, None, r, -1, -1)
                self.block_body(t)
                else_pc = -1
                if e:
                    else_pc = self.emit(ins, T_ELSE, ("op", "else"), -1)
                    self.block_body(e)
                end = self.emit(ins, T_END, ("op", "end"))
                if else_pc >= 0:
                    self.code[else_pc] = (T_ELSE, ("op", "else"), end)
                self.code[at] = (T_IF, None, r, else_pc, end)
            case ast.Br(label=k):
                self.emit(ins, T_BR, safe, k)
            case ast.BrIf(label=k):
                self.emit(ins, T_BR_IF, None, k)
            case ast.BrTable(labels=ls, default=d):
                self.emit(ins, T_BR_TABLE, None, ls, d)
            case ast.Return():
                self.emit(ins, T_RETURN, safe)
            case ast.Call(func=k):
                self.emit(ins, T_CALL, ("call", k), k)
            case ast.CallIndirect(type=ft):
                self.emit(ins, T_CALL_INDIRECT, None, ft)
            case ast.GetLocal(local=k):
                self.emit(ins, T_GET_LOCAL, safe, k)
            case ast.SetLocal(local=k):
                self.emit(ins, T_SET_LOCAL, safe, k)
            case ast.TeeLocal(local=k):
                self.emit(ins, T_TEE_LOCAL, safe, k)
            case ast.GetGlobal(glob=k):
                self.emit(ins, T_GET_GLOBAL, safe, k)
            case ast.SetGlobal(glob=k):
                self.emit(ins, T_SET_GLOBAL, safe, k)
            case ast.Load(type=t, pack=pack, signed=signed, align=align,
                          offset=off):
                width = (pack or t.bits) // 8
                self.emit(ins, T_LOAD, None, t, pack, signed, align, off, width)
            case ast.Store(type=t, pack=pack, align=align, offset=off):
                width = (pack or t.bits) // 8
                self.emit(ins, T_STORE, None, t, pack, align, off, width)
            case ast.MemorySize():
                self.emit(ins, T_MEMORY_SIZE, safe)
            case ast.MemoryGrow():
                self.emit(ins, T_MEMORY_GROW, None)
            case ast.Const(type=t, bits=bits):
                self.emit(ins, T_CONST, safe, t, bits)
            case ast.Unop(type=t, op=op):
                self.emit(ins, T_UNOP, safe, t, op, UNOP_FNS[(t.rep.value, op)])
            case ast.Binop(type=t, op=op):
                unsafe = t.is_int and op in ast.UNSAFE_BINOPS
                act = None if unsafe and t.sec is ast.Secrecy.PUBLIC else safe
                self.emit(ins, T_BINOP, act, t, op, BINOP_FNS[(t.rep.value, op)])
            case ast.Testop(type=t):
                self.emit(ins, T_TESTOP, safe, t, TESTOP_FNS[(t.rep.value, "eqz")])
            case ast.Relop(type=t, op=op):
                self.emit(ins, T_RELOP, safe, t, op, RELOP_FNS[(t.rep.value, op)])
            case ast.Convert(to=to, frm=frm, sign=sign):
                self.emit(ins, T_CONVERT, safe, to, frm,
                          CONVERT_FNS[(to.rep.value, frm.rep.value, sign)])
            case ast.Reinterpret(to=to, frm=frm):
                self.emit(ins, T_REINTERPRET, safe, to, frm)
            case ast.Classify(to=to, frm=frm):
                self.emit(ins, T_CLASSIFY, safe, to, frm)
            case ast.Declassify(to=to, frm=frm):
                self.emit(ins, T_DECLASSIFY, safe, to, frm)
            case _:
                raise TypeError(f"unknown instruction {ins!r}")


def instr_pcs(code: list[tuple]) -> list[int]:
    """Offsets of the ops that stand for instructions of the body.

    Every op but an ``else`` or ``end`` marker does, so the k-th offset is
    that of the k-th instruction in pre-order (``ast.iter_instrs``)."""
    return [pc for pc, op in enumerate(code)
            if op[0] != T_ELSE and op[0] != T_END]


def flatten_func(index: int, f: ast.Func) -> FlatFunc:
    fl = _Flattener()
    fl.block_body(f.body)
    end = ast.Nop(span=f.span)
    fl.emit(f.body[-1] if f.body else end, T_END, ("op", "end"))
    return FlatFunc(index, f.type, f.type.params + f.locals, fl.code, fl.origins)
