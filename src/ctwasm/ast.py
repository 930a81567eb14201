"""Core types and the instruction grammar.

Everything here is immutable after construction and safe to share.  The
instruction set is WebAssembly MVP extended with secrecy-annotated integer
types (s32/s64), trust-annotated function types, secrecy-annotated
memories, an annotated select, and the classify/declassify coercions.
``mnemonic`` names every instruction and ``CATALOGUE`` lists each one its
mnemonic determines; the text and binary formats derive their tables
from these two.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple


class Secrecy(enum.Enum):
    PUBLIC = "public"
    SECRET = "secret"

    __hash__ = object.__hash__  # members are singletons, as ``==`` assumes

    def __repr__(self) -> str:
        return self.value


class Trust(enum.Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return self.value


class Rep(enum.Enum):
    """Machine representation of a value type."""

    I32 = "i32"
    I64 = "i64"
    F32 = "f32"
    F64 = "f64"

    __hash__ = object.__hash__

    @property
    def bits(self) -> int:
        return 64 if self in (Rep.I64, Rep.F64) else 32

    @property
    def is_int(self) -> bool:
        return self in (Rep.I32, Rep.I64)

    def __repr__(self) -> str:
        return self.value


class ValType:
    """A value type: a representation and, for an integer, a secrecy.

    There are six, ``I32`` to ``S64`` below, and ``ValType(rep, sec)``
    returns one of them, so value types are equal only when identical and
    ``==`` and ``hash`` are those of ``object``.  ``name``, ``bits`` and
    ``is_int`` are stored; copies and pickles give back the same instance.
    """

    __slots__ = ("rep", "sec", "name", "bits", "is_int")
    __match_args__ = ("rep", "sec")

    def __new__(cls, rep: Rep, sec: Secrecy) -> ValType:
        t = _VALTYPES.get((rep, sec))
        if t is None:
            if isinstance(rep, Rep) and sec is Secrecy.SECRET:
                raise ValueError(f"float type {rep.value} cannot be secret")
            raise TypeError(f"no value type {rep!r} {sec!r}")
        return t

    def __setattr__(self, name, value):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ValType, (self.rep, self.sec)

    def __repr__(self) -> str:
        return self.name


_VALTYPES: dict[tuple[Rep, Secrecy], ValType] = {}


def _intern(rep: Rep, sec: Secrecy, name: str) -> ValType:
    t = object.__new__(ValType)
    for slot, value in zip(ValType.__slots__,
                           (rep, sec, name, rep.bits, rep.is_int)):
        object.__setattr__(t, slot, value)
    _VALTYPES[rep, sec] = t
    return t


I32 = _intern(Rep.I32, Secrecy.PUBLIC, "i32")
I64 = _intern(Rep.I64, Secrecy.PUBLIC, "i64")
F32 = _intern(Rep.F32, Secrecy.PUBLIC, "f32")
F64 = _intern(Rep.F64, Secrecy.PUBLIC, "f64")
S32 = _intern(Rep.I32, Secrecy.SECRET, "s32")
S64 = _intern(Rep.I64, Secrecy.SECRET, "s64")

VALTYPES_BY_NAME = {t.name: t for t in (I32, I64, F32, F64, S32, S64)}


def sec_of(t: ValType) -> Secrecy:
    """Secrecy of a value type; floats are always public."""
    return t.sec


def trust_geq(tr: Trust, tr2: Trust) -> bool:
    """True iff code of trust `tr` may call a function of trust `tr2`.

    Trusted code may call anything; untrusted code may only call
    untrusted code.
    """
    return tr is tr2 or (tr is Trust.TRUSTED and tr2 is Trust.UNTRUSTED)


def classify_result(t: ValType) -> ValType:
    """Type produced by classifying a public integer: same width, secret."""
    if not t.is_int or t.sec is not Secrecy.PUBLIC:
        raise ValueError(f"classify requires a public integer type, got {t.name}")
    return ValType(t.rep, Secrecy.SECRET)


def declassify_result(t: ValType) -> ValType:
    """Type produced by declassifying a secret integer: same width, public."""
    if not t.is_int or t.sec is not Secrecy.SECRET:
        raise ValueError(f"declassify requires a secret integer type, got {t.name}")
    return ValType(t.rep, Secrecy.PUBLIC)


@dataclass(frozen=True)
class FuncType:
    trust: Trust
    params: tuple[ValType, ...]
    results: tuple[ValType, ...]

    def __post_init__(self) -> None:
        if len(self.results) > 1:
            raise ValueError("at most one result (MVP arity)")

    def __repr__(self) -> str:
        p = " ".join(t.name for t in self.params)
        r = " ".join(t.name for t in self.results)
        return f"({self.trust.value}: [{p}] -> [{r}])"


# Operator name sets.  Integer div/rem are representable for all integer
# types; the validator rejects them on secret operands.
INT_UNOPS = ("clz", "ctz", "popcnt")
FLOAT_UNOPS = ("neg", "abs", "ceil", "floor", "trunc", "nearest", "sqrt")
INT_BINOPS = (
    "add", "sub", "mul", "div_s", "div_u", "rem_s", "rem_u",
    "and", "or", "xor", "shl", "shr_s", "shr_u", "rotl", "rotr",
)
FLOAT_BINOPS = ("add", "sub", "mul", "div", "min", "max", "copysign")
TESTOPS = ("eqz",)
INT_RELOPS = ("eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u", "ge_s", "ge_u")
FLOAT_RELOPS = ("eq", "ne", "lt", "gt", "le", "ge")

# Binops whose hardware timing depends on operand values.
UNSAFE_BINOPS = frozenset(("div_s", "div_u", "rem_s", "rem_u"))

# The deepest that blocks, loops and ifs may nest in a function body, as
# the Wasm spec lets an implementation bound it.  The flattener, printer
# and encoder read ``unfold`` and do not recurse; the parser, decoder and
# ``rebuild`` recurse two to four Python frames per level, so at this
# depth each stays well under Python's default recursion limit of 1,000
# frames.
MAX_NESTING = 200
TOO_DEEP = f"blocks nested deeper than {MAX_NESTING}"


class NestingTooDeep(ValueError):
    """A body nests blocks deeper than MAX_NESTING."""


class SourceSpan(NamedTuple):
    """Characters [start, end) of the source; line and col of start, from 1."""
    start: int
    end: int
    line: int
    col: int


@dataclass(frozen=True)
class Instr:
    span: SourceSpan | None = field(
        default=None, compare=False, repr=False, kw_only=True
    )


@dataclass(frozen=True)
class Unreachable(Instr):
    pass


@dataclass(frozen=True)
class Nop(Instr):
    pass


@dataclass(frozen=True)
class Drop(Instr):
    pass


@dataclass(frozen=True)
class Select(Instr):
    sec: Secrecy = Secrecy.PUBLIC


@dataclass(frozen=True)
class Block(Instr):
    result: ValType | None
    body: tuple[Instr, ...]


@dataclass(frozen=True)
class Loop(Instr):
    result: ValType | None
    body: tuple[Instr, ...]


@dataclass(frozen=True)
class If(Instr):
    result: ValType | None
    then: tuple[Instr, ...]
    else_: tuple[Instr, ...]


@dataclass(frozen=True)
class Br(Instr):
    label: int


@dataclass(frozen=True)
class BrIf(Instr):
    label: int


@dataclass(frozen=True)
class BrTable(Instr):
    labels: tuple[int, ...]
    default: int


@dataclass(frozen=True)
class Return(Instr):
    pass


@dataclass(frozen=True)
class Call(Instr):
    func: int


@dataclass(frozen=True)
class CallIndirect(Instr):
    type: FuncType  # carries the required trust annotation


@dataclass(frozen=True)
class GetLocal(Instr):
    local: int


@dataclass(frozen=True)
class SetLocal(Instr):
    local: int


@dataclass(frozen=True)
class TeeLocal(Instr):
    local: int


@dataclass(frozen=True)
class GetGlobal(Instr):
    glob: int


@dataclass(frozen=True)
class SetGlobal(Instr):
    glob: int


@dataclass(frozen=True)
class Load(Instr):
    type: ValType
    pack: int | None  # packed width in bits (8/16/32), None = full width
    signed: bool | None  # sign extension for packed loads
    align: int  # log2 alignment
    offset: int

    def __post_init__(self) -> None:
        if self.pack is not None:
            if not self.type.is_int:
                raise ValueError("packed load on float type")
            if self.pack >= self.type.bits:
                raise ValueError("packed width must narrow the type")
            if self.signed is None:
                raise ValueError("packed load requires signedness")
        elif self.signed is not None:
            raise ValueError("full-width load has no signedness")


@dataclass(frozen=True)
class Store(Instr):
    type: ValType
    pack: int | None
    align: int
    offset: int

    def __post_init__(self) -> None:
        if self.pack is not None:
            if not self.type.is_int:
                raise ValueError("packed store on float type")
            if self.pack >= self.type.bits:
                raise ValueError("packed width must narrow the type")


@dataclass(frozen=True)
class MemorySize(Instr):
    pass


@dataclass(frozen=True)
class MemoryGrow(Instr):
    pass


@dataclass(frozen=True)
class Const(Instr):
    type: ValType
    bits: int  # raw payload: unsigned integer / IEEE-754 bit pattern

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.type.bits):
            raise ValueError("const payload out of range for type width")


@dataclass(frozen=True)
class Unop(Instr):
    type: ValType
    op: str

    def __post_init__(self) -> None:
        ops = INT_UNOPS if self.type.is_int else FLOAT_UNOPS
        if self.op not in ops:
            raise ValueError(f"no unop {self.op} on {self.type.name}")


@dataclass(frozen=True)
class Binop(Instr):
    type: ValType
    op: str

    def __post_init__(self) -> None:
        ops = INT_BINOPS if self.type.is_int else FLOAT_BINOPS
        if self.op not in ops:
            raise ValueError(f"no binop {self.op} on {self.type.name}")


@dataclass(frozen=True)
class Testop(Instr):
    type: ValType
    op: str = "eqz"

    def __post_init__(self) -> None:
        if not self.type.is_int or self.op not in TESTOPS:
            raise ValueError(f"no testop {self.op} on {self.type.name}")


@dataclass(frozen=True)
class Relop(Instr):
    type: ValType
    op: str

    def __post_init__(self) -> None:
        ops = INT_RELOPS if self.type.is_int else FLOAT_RELOPS
        if self.op not in ops:
            raise ValueError(f"no relop {self.op} on {self.type.name}")


@dataclass(frozen=True)
class Convert(Instr):
    """Numeric conversion t2 -> t1 (wrap/extend/trunc/convert/demote/promote)."""

    to: ValType
    frm: ValType
    sign: str | None  # "s" / "u" where the operation is signed

    def __post_init__(self) -> None:
        if self.to == self.frm:
            raise ValueError("convert requires distinct types")
        no_sign = (
            self.to.is_int and self.frm.is_int and self.to.bits < self.frm.bits
        ) or (not self.to.is_int and not self.frm.is_int)
        if no_sign != (self.sign is None):
            raise ValueError("signedness annotation mismatch for convert")


@dataclass(frozen=True)
class Reinterpret(Instr):
    to: ValType
    frm: ValType

    def __post_init__(self) -> None:
        if self.to.bits != self.frm.bits or self.to.is_int == self.frm.is_int:
            raise ValueError("reinterpret requires int<->float of equal width")


@dataclass(frozen=True)
class Classify(Instr):
    to: ValType
    frm: ValType

    def __post_init__(self) -> None:
        if self.to != classify_result(self.frm):
            raise ValueError("classify requires public -> secret of equal width")


@dataclass(frozen=True)
class Declassify(Instr):
    to: ValType
    frm: ValType

    def __post_init__(self) -> None:
        if self.to != declassify_result(self.frm):
            raise ValueError("declassify requires secret -> public of equal width")


def public_type(t: ValType) -> ValType:
    """The same representation with secrecy erased."""
    return ValType(t.rep, Secrecy.PUBLIC) if t.sec is Secrecy.SECRET else t


def at_secrecy(t: ValType, sec: Secrecy) -> ValType:
    """The same representation at secrecy ``sec``; a float stays public."""
    return ValType(t.rep, sec) if t.is_int and t.sec is not sec else t


def retype_instr(ins: Instr, sec: Secrecy) -> Instr:
    """``ins`` with every integer type it names at secrecy ``sec``.

    A ``call_indirect`` type also becomes untrusted.  classify/declassify
    (which have no public counterpart: they disappear under erasure) and
    instructions that name no value type come back as they are, and so
    does any instruction that would not change.  A block, loop or if
    keeps its body; ``rebuild`` rebuilds nested bodies.
    """
    cls = type(ins)
    fields = _VALTYPE_FIELDS.get(cls)
    if fields:
        changes = {f: ValType(t.rep, sec) for f in fields
                   if (t := getattr(ins, f)) is not None and t.sec is not sec
                   and t.is_int}
    elif cls is Select:
        changes = {"sec": sec} if ins.sec is not sec else None
    elif cls is CallIndirect:
        ft = ins.type
        new = FuncType(Trust.UNTRUSTED,
                       tuple(at_secrecy(t, sec) for t in ft.params),
                       tuple(at_secrecy(t, sec) for t in ft.results))
        changes = {"type": new} if new != ft else None
    else:
        return ins
    return fresh(ins, ins.span, **changes) if changes else ins


def publicize_instr(ins: Instr) -> Instr:
    """Erase the secrecy annotations of one instruction."""
    return retype_instr(ins, Secrecy.PUBLIC)


# One entry per production of the instruction grammar; the coverage test
# audits this against a checked-in list.
INSTRUCTION_VARIANTS: tuple[type, ...] = (
    Unreachable, Nop, Drop, Select,
    Block, Loop, If, Br, BrIf, BrTable, Return, Call, CallIndirect,
    GetLocal, SetLocal, TeeLocal, GetGlobal, SetGlobal,
    Load, Store, MemorySize, MemoryGrow,
    Const, Unop, Binop, Testop, Relop,
    Convert, Reinterpret, Classify, Declassify,
)


# The value-type fields ``retype_instr`` moves, by instruction class.
_VALTYPE_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls)
               if f.type.startswith("ValType"))
    for cls in INSTRUCTION_VARIANTS if cls not in (Classify, Declassify)}


# Instructions named by their class alone.
FIXED_MNEMONICS: dict[type, str] = {
    Unreachable: "unreachable", Nop: "nop", Drop: "drop", Block: "block",
    Loop: "loop", If: "if", Br: "br", BrIf: "br_if", BrTable: "br_table",
    Return: "return", Call: "call", CallIndirect: "call_indirect",
    GetLocal: "local.get", SetLocal: "local.set", TeeLocal: "local.tee",
    GetGlobal: "global.get", SetGlobal: "global.set",
    MemorySize: "memory.size", MemoryGrow: "memory.grow",
}
FIXED_CLASSES: dict[str, type] = {n: c for c, n in FIXED_MNEMONICS.items()}


def _convert_verb(to: ValType, frm: ValType) -> str:
    if to.is_int:
        if not frm.is_int:
            return "trunc"
        return "wrap" if to.bits < frm.bits else "extend"
    if frm.is_int:
        return "convert"
    return "demote" if to.bits < frm.bits else "promote"


def mnemonic(ins: Instr) -> str:
    """Canonical text mnemonic of any instruction, without its immediates."""
    name = FIXED_MNEMONICS.get(type(ins))
    if name is not None:
        return name
    match ins:
        case Unop(type=t, op=op) | Binop(type=t, op=op) | Relop(type=t, op=op) \
                | Testop(type=t, op=op):
            return f"{t.name}.{op}"
        case Const(type=t):
            return f"{t.name}.const"
        case Select(sec=sec):
            return "select secret" if sec is Secrecy.SECRET else "select"
        case Load(type=t, pack=None):
            return f"{t.name}.load"
        case Load(type=t, pack=p, signed=s):
            return f"{t.name}.load{p}_{'s' if s else 'u'}"
        case Store(type=t, pack=p):
            return f"{t.name}.store{p or ''}"
        case Convert(to=to, frm=frm, sign=sign):
            suffix = f"_{sign}" if sign else ""
            return f"{to.name}.{_convert_verb(to, frm)}_{frm.name}{suffix}"
        case Reinterpret(to=to, frm=frm):
            return f"{to.name}.reinterpret_{frm.name}"
        case Classify(to=to, frm=frm):
            return f"{to.name}.classify/{frm.name}"
        case Declassify(to=to, frm=frm):
            return f"{to.name}.declassify/{frm.name}"
    raise TypeError(f"unknown instruction {ins!r}")


def _if_valid(cls: type, *args) -> tuple[Instr, ...]:
    try:
        return (cls(*args),)
    except ValueError:
        return ()


def _prototypes():
    yield from (Unreachable(), Nop(), Drop(), Return(), MemorySize(),
                MemoryGrow(), Select(), Select(Secrecy.SECRET))
    types = tuple(VALTYPES_BY_NAME.values())
    for t in types:
        int_t = t.is_int
        yield from (Unop(t, op) for op in (INT_UNOPS if int_t else FLOAT_UNOPS))
        yield from (Binop(t, op) for op in (INT_BINOPS if int_t else FLOAT_BINOPS))
        yield from (Testop(t, op) for op in (TESTOPS if int_t else ()))
        yield from (Relop(t, op) for op in (INT_RELOPS if int_t else FLOAT_RELOPS))
    for t, pack in itertools.product(types, (None, 8, 16, 32)):
        align = ((pack or t.bits) // 8).bit_length() - 1  # natural
        for signed in (None, True, False):
            yield from _if_valid(Load, t, pack, signed, align, 0)
        yield from _if_valid(Store, t, pack, align, 0)
    for to, frm in itertools.product(types, types):
        # a reinterpret with a secret side is expressible; the checker rejects it
        for cls in (Reinterpret, Classify, Declassify):
            yield from _if_valid(cls, to, frm)
        if to.sec is frm.sec:  # secret conversions stay secret
            for sign in (None, "s", "u"):
                yield from _if_valid(Convert, to, frm, sign)


# Every instruction its mnemonic determines, keyed by that mnemonic: public
# and secret operators, both selects, the coercions, conversions and
# reinterprets, and loads and stores (natural alignment and offset 0, which
# the memory argument may override).  The parser, printer, encoder and
# decoder derive their tables from this one; the opcode numbers live in
# ``binary.OPCODES``.
CATALOGUE: dict[str, Instr] = {mnemonic(p): p for p in _prototypes()}


# Each instruction class's field names but ``span``, in declaration order.
INSTR_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls) if f.name != "span")
    for cls in INSTRUCTION_VARIANTS}


def fresh(proto: Instr, span: SourceSpan | None = None, **fields) -> Instr:
    """A new instruction equal to ``proto`` but for ``fields``, at ``span``.

    A body never holds a catalogue prototype itself, only a copy, so each
    occurrence of an instruction is an object of its own.  The fields are
    not checked again: callers change only what keeps them valid.  Each
    field is set once, in the order ``__init__`` sets it, and never
    through ``__dict__``, so the copy keeps the compact layout of a
    constructed instruction."""
    clone = object.__new__(type(proto))
    set_field = object.__setattr__
    set_field(clone, "span", span)
    for name in INSTR_FIELDS[type(proto)]:
        set_field(clone, name,
                  fields[name] if name in fields else getattr(proto, name))
    return clone


# The markers ``unfold`` yields between instructions, each named by its
# text mnemonic.
ELSE = "else"
END = "end"


def unfold(body: tuple[Instr, ...]):
    """The one walk of a body in binary-format order, as (depth, item).

    The items are each instruction, ``ELSE`` before a non-empty else arm
    and ``END`` after the last instruction of each block, loop and if; the
    body's own closing ``end`` is not yielded.  An instruction's depth is
    that of the body it stands in, the function's being 0, and a marker's
    is that of the body it closes, so every body, even an empty one, yields
    an item at its depth.  The walk keeps its own stack of open bodies, so
    it does not recurse and takes input nested to any depth."""
    stack = [iter(body)]
    while stack:
        depth = len(stack) - 1
        for item in stack[-1]:
            yield depth, item
            match item:
                case Block(body=b) | Loop(body=b):
                    stack.append(itertools.chain(b, (END,)))
                    break
                case If(then=t, else_=e):
                    stack.append(itertools.chain(t, (ELSE,), e, (END,)) if e
                                 else itertools.chain(t, (END,)))
                    break
        else:
            stack.pop()


def iter_instrs(body: tuple[Instr, ...]):
    """Every instruction of a body, nested ones included, in pre-order:
    ``unfold`` without its markers."""
    return (ins for _, ins in unfold(body) if ins is not ELSE and ins is not END)


def rebuild(body: tuple[Instr, ...], fn) -> tuple[Instr, ...]:
    """A new body in which ``fn(ins)`` replaces each instruction.

    ``fn`` returns a sequence of instructions and is called in pre-order,
    as ``iter_instrs`` yields them.  For a block, loop or if, the first
    instruction it returns stands for the construct and receives the
    construct's rebuilt bodies.
    """
    out: list[Instr] = []
    for ins in body:
        new = fn(ins)
        match ins:
            case Block(body=b) | Loop(body=b):
                head = new[0]
                new = (type(head)(head.result, rebuild(b, fn), span=head.span),
                       *new[1:])
            case If(then=t, else_=e):
                head = new[0]
                new = (If(head.result, rebuild(t, fn), rebuild(e, fn),
                          span=head.span), *new[1:])
        out.extend(new)
    return tuple(out)


@dataclass(frozen=True)
class Func:
    type: FuncType
    locals: tuple[ValType, ...]
    body: tuple[Instr, ...]
    imported: tuple[str, str] | None = None
    exports: tuple[str, ...] = ()
    name: str | None = field(default=None, compare=False)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class GlobalVar:
    type: ValType
    mutable: bool
    init: tuple[Instr, ...] | None = None
    imported: tuple[str, str] | None = None
    exports: tuple[str, ...] = ()
    name: str | None = field(default=None, compare=False)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ElemSeg:
    offset: tuple[Instr, ...]
    funcs: tuple[int, ...]


@dataclass(frozen=True)
class Table:
    min: int
    max: int | None = None
    elems: tuple[ElemSeg, ...] = ()
    imported: tuple[str, str] | None = None
    exports: tuple[str, ...] = ()


@dataclass(frozen=True)
class DataSeg:
    offset: tuple[Instr, ...]
    data: bytes


@dataclass(frozen=True)
class Memory:
    min: int
    max: int | None = None
    sec: Secrecy = Secrecy.PUBLIC
    imported: tuple[str, str] | None = None
    exports: tuple[str, ...] = ()


# A module field, and the noun that names each kind of field in messages.
Field = Func | Table | Memory | GlobalVar
FIELD_NOUNS = {"func": "function", "table": "table", "memory": "memory",
               "global": "global"}


def duplicates(names) -> list[str]:
    """The names that occur more than once, sorted; in linear time."""
    return sorted(n for n, k in collections.Counter(names).items() if k > 1)


@dataclass(frozen=True)
class Module:
    """A module's functions, globals, table, memory and data segments.

    ``fields()`` is the one walk of its functions, table, memory and
    globals; the imports-first rule, ``exports()``, ``with_exports``, the
    binary encoder and instantiation all read it, and the binary decoder
    reads the fields back in its order."""

    funcs: tuple[Func, ...] = ()
    globals: tuple[GlobalVar, ...] = ()
    table: Table | None = None
    memory: Memory | None = None
    data: tuple[DataSeg, ...] = ()

    def __post_init__(self) -> None:
        defined = set()
        for kind, _, x in self.fields():
            if x.imported is None:
                defined.add(kind)
            elif kind in defined:
                raise ValueError(
                    f"imported {FIELD_NOUNS[kind]}s must precede defined ones")

    def fields(self) -> tuple[tuple[str, int, Field], ...]:
        """Every function, table, memory and global as (kind, index,
        field), kind one of 'func', 'table', 'memory' and 'global', in the
        binary format's order: functions, then the table, the memory and
        globals.  Computed once per module."""
        return self._fields

    @functools.cached_property
    def _fields(self) -> tuple[tuple[str, int, Field], ...]:
        fields = [*(("func", i, f) for i, f in enumerate(self.funcs)),
                  ("table", 0, self.table), ("memory", 0, self.memory),
                  *(("global", i, g) for i, g in enumerate(self.globals))]
        return tuple(f for f in fields if f[2] is not None)

    def exports(self) -> tuple[tuple[str, str, int], ...]:
        """Every export as (name, kind, index), in the order of
        ``fields()``, each field's names in their own order.  Computed once
        per module."""
        return self._exports

    @functools.cached_property
    def _exports(self) -> tuple[tuple[str, str, int], ...]:
        return tuple((name, kind, i) for kind, i, x in self.fields()
                     for name in x.exports)

    def with_exports(self, exports) -> Module:
        """This module with each field's ``exports`` set to the names that
        the (name, kind, index) triples ``exports`` give it, in order.

        Raises ``IndexError(at)`` when triple ``at`` names a field the
        module lacks."""
        sizes = collections.Counter(kind for kind, _, _ in self.fields())
        names: dict[tuple[str, int], list[str]] = {}
        for at, (name, kind, i) in enumerate(exports):
            if not 0 <= i < sizes[kind]:
                raise IndexError(at)
            names.setdefault((kind, i), []).append(name)

        def attach(x, kind: str, i: int = 0):
            new = tuple(names.get((kind, i), ()))
            return x if x is None or x.exports == new else \
                dataclasses.replace(x, exports=new)
        return dataclasses.replace(
            self,
            funcs=tuple(attach(f, "func", i) for i, f in enumerate(self.funcs)),
            globals=tuple(attach(g, "global", i)
                          for i, g in enumerate(self.globals)),
            table=attach(self.table, "table"),
            memory=attach(self.memory, "memory"))

    def exported(self, name: str) -> tuple[str, int] | None:
        """The (kind, index) of the first export named ``name``, or None."""
        return next(((kind, i) for n, kind, i in self.exports() if n == name),
                    None)
