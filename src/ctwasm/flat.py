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
``static_action`` is the leakage action, reused every execution, of an op
whose observation never depends on operand values, or None for an op
whose action the interpreter builds per step; the function
``static_action`` says which ops those are.
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
# each class's tag, field names but bodies, and numerics table (None if it
# has none); the end of a construct appends its bodies' offsets
_LAYOUTS = {cls: (TAGS[cls], tuple(n for n in ast.INSTR_FIELDS[cls]
                                   if n not in ("body", "then", "else_")),
                  _NUMERICS.get(cls))
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
    if cls is ast.Binop and ins.op in ast.UNSAFE_BINOPS:
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


class StackTypes:
    """A read-only sequence: the operand-stack types before each op, as a
    tuple with None in a slot dead code leaves unconstrained.  It keeps the
    validator's top cell ``(type or None, producer, cell below)`` per op."""

    def __init__(self, tops: list) -> None:
        self.tops = tops

    def __len__(self) -> int:
        return len(self.tops)

    def __getitem__(self, pc: int) -> tuple:
        types = []
        cell = self.tops[pc]
        while cell is not None:
            types.append(cell[0])
            cell = cell[2]
        return tuple(reversed(types))


@dataclass
class FlatFunc:
    index: int
    type: ast.FuncType
    local_types: tuple[ast.ValType, ...]  # params followed by declared locals
    code: list[tuple]
    origins: list[ast.Instr]
    # left by the validator on every function that checks (None when
    # flattened unchecked), both linear in the body: the operand-stack
    # types before each op and the def-use record
    stack_types: StackTypes | None = None
    def_use: DefUse | None = None
    # the interpreter's compiled code, shared by every FlatFunc with equal
    # code and looked up on first execution
    compiled: object = field(default=None, repr=False, compare=False)


def instr_pcs(code: list[tuple]) -> list[int]:
    """Offsets of the ops that stand for instructions of the body.

    Every op but an ``else`` or ``end`` marker does, so the k-th offset is
    that of the k-th instruction in pre-order (``ast.iter_instrs``)."""
    return [pc for pc, op in enumerate(code)
            if op[0] != T_ELSE and op[0] != T_END]


def flatten_func(index: int, f: ast.Func) -> FlatFunc:
    code: list[tuple] = []
    origins: list[ast.Instr] = []
    opened: list[list[int]] = []  # [pc, else pc or -1] of each open construct
    for depth, item in ast.unfold(f.body):
        if depth > ast.MAX_NESTING:
            raise ast.NestingTooDeep(ast.TOO_DEEP)
        pc = len(code)
        if item is ast.ELSE:
            opened[-1][1] = pc
            op, ins = (T_ELSE, _ELSE, -1), origins[opened[-1][0]]
        elif item is ast.END:
            at, else_pc = opened.pop()
            head, ins = code[at], origins[at]
            if head[0] == T_BLOCK:
                code[at] = (*head, pc)
            elif head[0] == T_IF:
                code[at] = (*head, else_pc, pc)
                if else_pc >= 0:
                    code[else_pc] = (T_ELSE, _ELSE, pc)
            op = (T_END, _END)
        else:
            ins = item
            tag, names, fns = _LAYOUTS[type(ins)]
            fields = [getattr(ins, n) for n in names]
            if fns is not None:
                fields.append(fns[tuple(
                    v.rep.value if isinstance(v, ast.ValType) else v
                    for v in fields)])
            elif tag == T_LOAD or tag == T_STORE:
                fields.append((ins.pack or ins.type.bits) // 8)
            elif tag == T_BLOCK or tag == T_LOOP or tag == T_IF:
                opened.append([pc, -1])
            op = (tag, static_action(ins), *fields)
        code.append(op)
        origins.append(ins)
    code.append((T_END, _END))
    origins.append(f.body[-1] if f.body else ast.Nop(span=f.span))
    return FlatFunc(index, f.type, f.type.params + f.locals, code, origins)
