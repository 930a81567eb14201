"""Flat instruction arrays shared by the validator and the interpreter.

Nested bodies are lowered to the same linear shape the binary format uses:
``block``/``loop``/``if`` become markers with precomputed partner offsets,
``else``/``end`` appear as explicit ops, and every function body ends with
a closing ``end``.  The validator walks this array once; the interpreter
executes it with a label stack, so both agree on instruction offsets.

Every instruction is flattened by one rule, to the op
``(tag, static_action, *fields, *extras)``.  The tag is its class's
position in ``ast.INSTRUCTION_VARIANTS`` (``T_ELSE`` and ``T_END`` come
after).  The fields are its dataclass fields in declaration order, without
``span``; a block's body stands as its ``end`` offset, a loop's as
nothing, and an if's two bodies as its ``else`` (-1 if none) and ``end``
offsets.  The extras are a load's or store's width in bytes and the
``numerics`` function of a unop, binop, testop, relop or convert.
``static_action`` is the leakage record, reused every execution, of an op
whose observation never depends on operand values: ``("call", k)``,
``("secret-select",)`` or ``("op", mnemonic)``.  ``if``, ``br_if``,
``br_table``, ``call_indirect``, loads, stores, ``memory.grow``, a public
``select`` and a public integer div or rem carry ``None``, and the
interpreter builds their record per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .numerics import BINOP_FNS, CONVERT_FNS, RELOP_FNS, TESTOP_FNS, UNOP_FNS

(
    T_UNREACHABLE, T_NOP, T_DROP, T_SELECT,
    T_BLOCK, T_LOOP, T_IF, T_BR, T_BR_IF, T_BR_TABLE, T_RETURN,
    T_CALL, T_CALL_INDIRECT,
    T_GET_LOCAL, T_SET_LOCAL, T_TEE_LOCAL, T_GET_GLOBAL, T_SET_GLOBAL,
    T_LOAD, T_STORE, T_MEMORY_SIZE, T_MEMORY_GROW,
    T_CONST, T_UNOP, T_BINOP, T_TESTOP, T_RELOP,
    T_CONVERT, T_REINTERPRET, T_CLASSIFY, T_DECLASSIFY,
    T_ELSE, T_END,
) = range(len(ast.INSTRUCTION_VARIANTS) + 2)
TAGS: dict[type, int] = {cls: tag
                         for tag, cls in enumerate(ast.INSTRUCTION_VARIANTS)}

# the classes of which every op's observation depends on its operands
_DYNAMIC = frozenset((ast.If, ast.BrIf, ast.BrTable, ast.CallIndirect,
                      ast.Load, ast.Store, ast.MemoryGrow))
_NUMERICS = {ast.Unop: UNOP_FNS, ast.Binop: BINOP_FNS, ast.Testop: TESTOP_FNS,
             ast.Relop: RELOP_FNS, ast.Convert: CONVERT_FNS}
# each class's tag, field names and numerics table (None if it has none)
_LAYOUTS = {cls: (TAGS[cls], ast.INSTR_FIELDS[cls], _NUMERICS.get(cls))
            for cls in ast.INSTRUCTION_VARIANTS}
_ELSE = ("op", "else")
_END = ("op", "end")


def static_action(ins: ast.Instr) -> tuple | None:
    """The leakage record ``ins`` leaves whatever its operands, or None
    when its operand values change what it reveals."""
    cls = type(ins)
    if cls in _DYNAMIC:
        return None
    if cls is ast.Select:
        return ("secret-select",) if ins.sec is ast.Secrecy.SECRET else None
    if cls is ast.Binop and ins.op in ast.UNSAFE_BINOPS \
            and ins.type.sec is ast.Secrecy.PUBLIC:
        return None
    if cls is ast.Call:
        return ("call", ins.func)
    return ("op", ast.mnemonic(ins))  # raises TypeError for a non-instruction


@dataclass
class DefUse:
    """Def-use edges of one function's flat code, indexed by pc.

    A producer is the pc of the op that pushed a value, or the opening pc
    of the block, loop or if whose result it is.  ``args[pc]`` holds the
    producers of the op's operands, deepest first, with None for an
    operand that dead code pops from the polymorphic stack.  ``flows[pc]``
    holds a (target, producer) pair for each value the op hands to the
    result of the construct opened at pc ``target``, or of the function
    (target -1): by branch, ``return``, ``else`` or ``end``.  ``types[p]``
    is the type of the value p pushes, None where dead code leaves it
    unconstrained.  ``targets[pc]`` is a br_if's target, whose result is
    what the br_if re-pushes in dead code.
    """

    args: list[tuple]
    flows: list[tuple]
    types: list
    targets: dict[int, int]


@dataclass
class FlatFunc:
    index: int
    type: ast.FuncType
    local_types: tuple[ast.ValType, ...]  # params followed by declared locals
    code: list[tuple]
    origins: list[ast.Instr]
    # left by the validator when annotation is requested (None otherwise):
    # the operand-stack types before each op, None in a slot dead code
    # leaves unconstrained, and, if the function checks, its def-use record
    stack_types: list[tuple[ast.ValType | None, ...]] | None = None
    def_use: DefUse | None = None
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
        self.depth = -1  # of the body being flattened; the function's is 0

    def emit(self, origin: ast.Instr, *op) -> int:
        self.code.append(op)
        self.origins.append(origin)
        return len(self.code) - 1

    def block_body(self, body: tuple[ast.Instr, ...]) -> None:
        self.depth += 1
        if self.depth > ast.MAX_NESTING:
            raise ast.NestingTooDeep(ast.TOO_DEEP)
        for ins in body:
            self.instr(ins)
        self.depth -= 1

    def instr(self, ins: ast.Instr) -> None:
        act = static_action(ins)
        match ins:
            case ast.Block(result=r, body=b):
                at = self.emit(ins, T_BLOCK, act, r, -1)
                self.block_body(b)
                end = self.emit(ins, T_END, _END)
                self.code[at] = (T_BLOCK, act, r, end)
            case ast.Loop(result=r, body=b):
                self.emit(ins, T_LOOP, act, r)
                self.block_body(b)
                self.emit(ins, T_END, _END)
            case ast.If(result=r, then=t, else_=e):
                at = self.emit(ins, T_IF, act, r, -1, -1)
                self.block_body(t)
                else_pc = -1
                if e:
                    else_pc = self.emit(ins, T_ELSE, _ELSE, -1)
                    self.block_body(e)
                end = self.emit(ins, T_END, _END)
                if else_pc >= 0:
                    self.code[else_pc] = (T_ELSE, _ELSE, end)
                self.code[at] = (T_IF, act, r, else_pc, end)
            case _:
                tag, names, fns = _LAYOUTS[type(ins)]
                fields = [getattr(ins, n) for n in names]
                if fns is not None:
                    fields.append(fns[tuple(
                        f.rep.value if isinstance(f, ast.ValType) else f
                        for f in fields)])
                elif tag == T_LOAD or tag == T_STORE:
                    fields.append((ins.pack or ins.type.bits) // 8)
                self.emit(ins, tag, act, *fields)


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
    fl.emit(f.body[-1] if f.body else end, T_END, _END)
    return FlatFunc(index, f.type, f.type.params + f.locals, fl.code, fl.origins)
