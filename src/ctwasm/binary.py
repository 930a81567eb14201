"""Binary encoder and decoder.

Modules with no security annotations encode byte-identically to standard
MVP bytecode.  Annotated constructs use reserved encodings:

- value types: s32 = 0x6F, s64 = 0x6E (standard codes otherwise)
- function types: 0x60 untrusted, 0x5F trusted
- memory limits: flag bit 0x04 marks a secret memory
- secret instructions: prefix byte 0xFE followed by the public
  counterpart's opcode, so every secret operation is exactly two opcode
  bytes and every public one stays a single byte
- 0xFE 0xC0 / 0xFE 0xC1: classify to s32 / s64
- 0xFE 0xC2 / 0xFE 0xC3: declassify to i32 / i64
- 0xFE 0x1B: select secret
- call_indirect: the MVP reserved byte after the type index carries the
  trust annotation (0x00 untrusted, matching MVP bytes; 0x01 trusted)

This table is normative for the toolchain; nothing here is inherited
from any engine's internal numbering.

Both directions walk a module's functions, table, memory and globals by
one rule, in the order of ``Module.fields()``: an import carries the same
type as one entry of the section that ``_DEFINED_SECTIONS`` names for its
kind.  The encoder writes that type with ``_externtype`` and the decoder
reads it with one ``field`` reader.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import ast
from .ast import (
    F32, F64, I32, I64, S32, S64, VALTYPES_BY_NAME, FuncType, Instr, Module,
    Secrecy, Trust, ValType,
)

MAGIC = b"\0asm"
VERSION = b"\x01\x00\x00\x00"

VALTYPE_CODES = {I32: 0x7F, I64: 0x7E, F32: 0x7D, F64: 0x7C,
                 S32: 0x6F, S64: 0x6E}
CODE_VALTYPES = {v: k for k, v in VALTYPE_CODES.items()}

FUNCTYPE_UNTRUSTED = 0x60
FUNCTYPE_TRUSTED = 0x5F
ELEMTYPE_FUNCREF = 0x70
BLOCKTYPE_EMPTY = 0x40
SECRET_PREFIX = 0xFE
OP_CLASSIFY_S32 = 0xC0
OP_CLASSIFY_S64 = 0xC1
OP_DECLASSIFY_I32 = 0xC2
OP_DECLASSIFY_I64 = 0xC3
MEMORY_SECRET_FLAG = 0x04
EXPORT_KINDS = ("func", "table", "memory", "global")  # by export kind byte
# The section that defines each kind of field.  An import of that kind
# carries the same type as one entry of the section.
_DEFINED_SECTIONS = ((3, "func"), (4, "table"), (5, "memory"), (6, "global"))

# Public single-byte opcodes (standard MVP assignments).
OPCODES: dict[str, int] = {
    "unreachable": 0x00, "nop": 0x01, "block": 0x02, "loop": 0x03,
    "if": 0x04, "else": 0x05, "end": 0x0B, "br": 0x0C, "br_if": 0x0D,
    "br_table": 0x0E, "return": 0x0F, "call": 0x10, "call_indirect": 0x11,
    "drop": 0x1A, "select": 0x1B,
    "local.get": 0x20, "local.set": 0x21, "local.tee": 0x22,
    "global.get": 0x23, "global.set": 0x24,
    "i32.load": 0x28, "i64.load": 0x29, "f32.load": 0x2A, "f64.load": 0x2B,
    "i32.load8_s": 0x2C, "i32.load8_u": 0x2D, "i32.load16_s": 0x2E,
    "i32.load16_u": 0x2F, "i64.load8_s": 0x30, "i64.load8_u": 0x31,
    "i64.load16_s": 0x32, "i64.load16_u": 0x33, "i64.load32_s": 0x34,
    "i64.load32_u": 0x35, "i32.store": 0x36, "i64.store": 0x37,
    "f32.store": 0x38, "f64.store": 0x39, "i32.store8": 0x3A,
    "i32.store16": 0x3B, "i64.store8": 0x3C, "i64.store16": 0x3D,
    "i64.store32": 0x3E, "memory.size": 0x3F, "memory.grow": 0x40,
    "i32.const": 0x41, "i64.const": 0x42, "f32.const": 0x43, "f64.const": 0x44,
    "i32.eqz": 0x45, "i32.eq": 0x46, "i32.ne": 0x47, "i32.lt_s": 0x48,
    "i32.lt_u": 0x49, "i32.gt_s": 0x4A, "i32.gt_u": 0x4B, "i32.le_s": 0x4C,
    "i32.le_u": 0x4D, "i32.ge_s": 0x4E, "i32.ge_u": 0x4F,
    "i64.eqz": 0x50, "i64.eq": 0x51, "i64.ne": 0x52, "i64.lt_s": 0x53,
    "i64.lt_u": 0x54, "i64.gt_s": 0x55, "i64.gt_u": 0x56, "i64.le_s": 0x57,
    "i64.le_u": 0x58, "i64.ge_s": 0x59, "i64.ge_u": 0x5A,
    "f32.eq": 0x5B, "f32.ne": 0x5C, "f32.lt": 0x5D, "f32.gt": 0x5E,
    "f32.le": 0x5F, "f32.ge": 0x60,
    "f64.eq": 0x61, "f64.ne": 0x62, "f64.lt": 0x63, "f64.gt": 0x64,
    "f64.le": 0x65, "f64.ge": 0x66,
    "i32.clz": 0x67, "i32.ctz": 0x68, "i32.popcnt": 0x69, "i32.add": 0x6A,
    "i32.sub": 0x6B, "i32.mul": 0x6C, "i32.div_s": 0x6D, "i32.div_u": 0x6E,
    "i32.rem_s": 0x6F, "i32.rem_u": 0x70, "i32.and": 0x71, "i32.or": 0x72,
    "i32.xor": 0x73, "i32.shl": 0x74, "i32.shr_s": 0x75, "i32.shr_u": 0x76,
    "i32.rotl": 0x77, "i32.rotr": 0x78,
    "i64.clz": 0x79, "i64.ctz": 0x7A, "i64.popcnt": 0x7B, "i64.add": 0x7C,
    "i64.sub": 0x7D, "i64.mul": 0x7E, "i64.div_s": 0x7F, "i64.div_u": 0x80,
    "i64.rem_s": 0x81, "i64.rem_u": 0x82, "i64.and": 0x83, "i64.or": 0x84,
    "i64.xor": 0x85, "i64.shl": 0x86, "i64.shr_s": 0x87, "i64.shr_u": 0x88,
    "i64.rotl": 0x89, "i64.rotr": 0x8A,
    "f32.abs": 0x8B, "f32.neg": 0x8C, "f32.ceil": 0x8D, "f32.floor": 0x8E,
    "f32.trunc": 0x8F, "f32.nearest": 0x90, "f32.sqrt": 0x91, "f32.add": 0x92,
    "f32.sub": 0x93, "f32.mul": 0x94, "f32.div": 0x95, "f32.min": 0x96,
    "f32.max": 0x97, "f32.copysign": 0x98,
    "f64.abs": 0x99, "f64.neg": 0x9A, "f64.ceil": 0x9B, "f64.floor": 0x9C,
    "f64.trunc": 0x9D, "f64.nearest": 0x9E, "f64.sqrt": 0x9F, "f64.add": 0xA0,
    "f64.sub": 0xA1, "f64.mul": 0xA2, "f64.div": 0xA3, "f64.min": 0xA4,
    "f64.max": 0xA5, "f64.copysign": 0xA6,
    "i32.wrap_i64": 0xA7, "i32.trunc_f32_s": 0xA8, "i32.trunc_f32_u": 0xA9,
    "i32.trunc_f64_s": 0xAA, "i32.trunc_f64_u": 0xAB,
    "i64.extend_i32_s": 0xAC, "i64.extend_i32_u": 0xAD,
    "i64.trunc_f32_s": 0xAE, "i64.trunc_f32_u": 0xAF,
    "i64.trunc_f64_s": 0xB0, "i64.trunc_f64_u": 0xB1,
    "f32.convert_i32_s": 0xB2, "f32.convert_i32_u": 0xB3,
    "f32.convert_i64_s": 0xB4, "f32.convert_i64_u": 0xB5,
    "f32.demote_f64": 0xB6,
    "f64.convert_i32_s": 0xB7, "f64.convert_i32_u": 0xB8,
    "f64.convert_i64_s": 0xB9, "f64.convert_i64_u": 0xBA,
    "f64.promote_f32": 0xBB,
    "i32.reinterpret_f32": 0xBC, "i64.reinterpret_f64": 0xBD,
    "f32.reinterpret_i32": 0xBE, "f64.reinterpret_i64": 0xBF,
}
_COERCIONS = {
    "s32.classify/i32": OP_CLASSIFY_S32, "s64.classify/i64": OP_CLASSIFY_S64,
    "i32.declassify/s32": OP_DECLASSIFY_I32,
    "i64.declassify/s64": OP_DECLASSIFY_I64,
}


def _opcode_bytes(proto: Instr) -> bytes:
    name = ast.mnemonic(proto)
    if name in _COERCIONS:
        return bytes([SECRET_PREFIX, _COERCIONS[name]])
    public = ast.mnemonic(ast.publicize_instr(proto))
    prefix = [] if public == name else [SECRET_PREFIX]
    return bytes(prefix + [OPCODES[public]])


# Opcode bytes of every mnemonic: the public opcode, after SECRET_PREFIX for
# a secret form, or one of the coercion bytes.  The decoder inverts it.
_ENCODING: dict[str, bytes] = {name: bytes([op]) for name, op in OPCODES.items()}
_ENCODING.update(
    (ast.mnemonic(p), _opcode_bytes(p))
    for p in (*ast.CATALOGUE.values(), ast.Const(S32, 0), ast.Const(S64, 0)))
_DECODING: dict[bytes, str] = {code: name for name, code in _ENCODING.items()}

# Aggregate view for the injectivity audit.
ENCODING_TABLE = {
    "valtypes": VALTYPE_CODES,
    "opcodes": OPCODES,
    "secret_prefix": SECRET_PREFIX,
    "secret_specials": {**_COERCIONS, "select secret": OPCODES["select"]},
    "functype": {Trust.UNTRUSTED: FUNCTYPE_UNTRUSTED,
                 Trust.TRUSTED: FUNCTYPE_TRUSTED},
    "memory_secret_flag": MEMORY_SECRET_FLAG,
}


class EncodeError(Exception):
    pass


@dataclass
class DecodeError(Exception):
    code: str
    offset: int
    message: str

    def __str__(self) -> str:
        return f"{self.code} at byte {self.offset}: {self.message}"


# --------------------------------------------------------------------------
# LEB128

def uleb(n: int) -> bytes:
    if n < 0:
        raise EncodeError("negative value in unsigned field")
    if n >= 1 << 32:
        raise EncodeError(f"index {n} exceeds the u32 range")
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def sleb(n: int, bits: int) -> bytes:
    lo, hi = -(1 << (bits - 1)), (1 << bits) - 1
    if not lo <= n <= hi:
        raise EncodeError(f"constant {n} exceeds the s{bits} range")
    if n >= 1 << (bits - 1):
        n -= 1 << bits  # canonical signed interpretation of the payload
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if (n == 0 and not b & 0x40) or (n == -1 and b & 0x40):
            out.append(b)
            return bytes(out)
        out.append(b | 0x80)


# --------------------------------------------------------------------------
# Encoder

class _TypeTable:
    def __init__(self) -> None:
        self.types: list[FuncType] = []
        self.index: dict[FuncType, int] = {}

    def add(self, ft: FuncType) -> int:
        if ft not in self.index:
            self.index[ft] = len(self.types)
            self.types.append(ft)
        return self.index[ft]


def _collect_types(m: Module) -> _TypeTable:
    # first-appearance order, interleaving each signature with the type
    # uses in its body (matching reference assemblers byte-for-byte)
    table = _TypeTable()
    for f in m.funcs:
        if f.imported is not None:
            table.add(f.type)
    for f in m.funcs:
        if f.imported is None:
            table.add(f.type)
            for ins in ast.iter_instrs(f.body):
                if isinstance(ins, ast.CallIndirect):
                    ft = ins.type
                    table.add(FuncType(Trust.UNTRUSTED, ft.params, ft.results))
    return table


def _limits(mn: int, mx: int | None, secret: bool = False) -> bytes:
    flags = (1 if mx is not None else 0) | (MEMORY_SECRET_FLAG if secret else 0)
    out = bytes([flags]) + uleb(mn)
    if mx is not None:
        out += uleb(mx)
    return out


def _externtype(types: _TypeTable, kind: str, x: ast.Field) -> bytes:
    """The type of field ``x`` of ``kind``, as its import and its section
    in ``_DEFINED_SECTIONS`` both write it: a type index, a table type, a
    memory type or a global type."""
    match kind:
        case "func":
            return uleb(types.index[x.type])
        case "table":
            return bytes([ELEMTYPE_FUNCREF]) + _limits(x.min, x.max)
        case "memory":
            return _limits(x.min, x.max, x.sec is Secrecy.SECRET)
    return bytes([VALTYPE_CODES[x.type], 1 if x.mutable else 0])


def _name(s: str) -> bytes:
    raw = s.encode("utf-8")
    return uleb(len(raw)) + raw


def _blocktype(r: ValType | None) -> bytes:
    return bytes([BLOCKTYPE_EMPTY if r is None else VALTYPE_CODES[r]])


def _expr(types: _TypeTable, body: tuple[Instr, ...]) -> bytes:
    out = bytearray()
    for depth, ins in ast.unfold(body):
        if depth > ast.MAX_NESTING:  # only a hand-built AST gets here
            raise ast.NestingTooDeep(ast.TOO_DEEP)
        if ins is ast.ELSE or ins is ast.END:
            out.append(OPCODES[ins])
            continue
        code = _ENCODING.get(ast.mnemonic(ins))
        if code is None:
            raise EncodeError(f"{ast.mnemonic(ins)} has no encoding")
        out += code
        match ins:
            case ast.Block(result=r) | ast.Loop(result=r) | ast.If(result=r):
                out += _blocktype(r)
            case (ast.Br(label=k) | ast.BrIf(label=k) | ast.Call(func=k)
                  | ast.GetLocal(local=k) | ast.SetLocal(local=k)
                  | ast.TeeLocal(local=k) | ast.GetGlobal(glob=k)
                  | ast.SetGlobal(glob=k)):
                out += uleb(k)
            case ast.BrTable(labels=ls, default=d):
                out += uleb(len(ls))
                for k in ls:
                    out += uleb(k)
                out += uleb(d)
            case ast.CallIndirect(type=ft):
                key = FuncType(Trust.UNTRUSTED, ft.params, ft.results)
                out += uleb(types.index[key])
                out.append(0x01 if ft.trust is Trust.TRUSTED else 0x00)
            case ast.Load(align=a, offset=o) | ast.Store(align=a, offset=o):
                out += uleb(a) + uleb(o)
            case ast.MemorySize() | ast.MemoryGrow():
                out.append(0x00)  # MVP reserved memory index
            case ast.Const(type=t, bits=bits):
                if t.is_int:
                    out += sleb(bits, t.bits)
                else:
                    out += bits.to_bytes(t.bits // 8, "little")
    out.append(OPCODES["end"])
    return bytes(out)


def _section(sid: int, payload: bytes) -> bytes:
    return bytes([sid]) + uleb(len(payload)) + payload


def _vec(items: list[bytes]) -> bytes:
    return uleb(len(items)) + b"".join(items)


def encode_module(m: Module) -> bytes:
    """Encode to bytes; inverse of decode_module."""
    types = _collect_types(m)
    out = bytearray(MAGIC + VERSION)

    entries = []
    for ft in types.types:
        code = FUNCTYPE_TRUSTED if ft.trust is Trust.TRUSTED \
            else FUNCTYPE_UNTRUSTED
        entry = bytes([code])
        entry += _vec([bytes([VALTYPE_CODES[t]]) for t in ft.params])
        entry += _vec([bytes([VALTYPE_CODES[t]]) for t in ft.results])
        entries.append(entry)
    if entries:
        out += _section(1, _vec(entries))

    fields = m.fields()
    imports = [_name(x.imported[0]) + _name(x.imported[1])
               + bytes([EXPORT_KINDS.index(kind)]) + _externtype(types, kind, x)
               for kind, _, x in fields if x.imported is not None]
    if imports:
        out += _section(2, _vec(imports))

    for sid, kind in _DEFINED_SECTIONS:
        entries = [_externtype(types, kind, x)
                   + (_expr(types, x.init) if kind == "global" else b"")
                   for k, _, x in fields if k == kind and x.imported is None]
        if entries:
            out += _section(sid, _vec(entries))

    if m.exports():
        out += _section(7, _vec([_name(name) + bytes([EXPORT_KINDS.index(kind)])
                                 + uleb(i) for name, kind, i in m.exports()]))

    if m.table is not None and m.table.elems:
        segs = [uleb(0) + _expr(types, seg.offset) +
                _vec([uleb(fi) for fi in seg.funcs])
                for seg in m.table.elems]
        out += _section(9, _vec(segs))

    defined = [f for f in m.funcs if f.imported is None]
    if defined:
        bodies = []
        for f in defined:
            runs: list[tuple[int, ValType]] = []
            for t in f.locals:
                if runs and runs[-1][1] == t:
                    runs[-1] = (runs[-1][0] + 1, t)
                else:
                    runs.append((1, t))
            body = _vec([uleb(n) + bytes([VALTYPE_CODES[t]]) for n, t in runs])
            body += _expr(types, f.body)
            bodies.append(uleb(len(body)) + body)
        out += _section(10, _vec(bodies))

    if m.data:
        segs = [uleb(0) + _expr(types, seg.offset) +
                uleb(len(seg.data)) + seg.data for seg in m.data]
        out += _section(11, _vec(segs))

    return bytes(out)


# --------------------------------------------------------------------------
# Decoder

class _Reader:
    def __init__(self, data: bytes, base: int = 0):
        self.data = data
        self.pos = 0
        self.base = base  # absolute offset of data[0] in the module

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def eof(self) -> bool:
        return self.pos >= len(self.data)

    def fail(self, code: str, message: str):
        raise DecodeError(code, self.offset, message)

    def byte(self) -> int:
        if self.pos >= len(self.data):
            self.fail("TruncatedSection", "unexpected end of input")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            self.fail("TruncatedSection", f"need {n} bytes")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        result = shift = 0
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                break
            if shift >= 35:
                self.fail("IndexOverflow", "u32 LEB128 too long")
        if result >= 1 << 32:
            self.fail("IndexOverflow", "u32 out of range")
        return result

    def s_n(self, bits: int) -> int:
        result = shift = 0
        while True:
            b = self.byte()
            result |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                break
            if shift >= bits + 7:
                self.fail("IndexOverflow", f"s{bits} LEB128 too long")
        if b & 0x40 and shift < bits:
            result |= -1 << shift
        return result & ((1 << bits) - 1)

    def name(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            self.fail("MalformedSection", "export/import name is not UTF-8")

    def valtype(self) -> ValType:
        b = self.byte()
        if b not in CODE_VALTYPES:
            self.fail("UnknownType", f"value type code 0x{b:02x}")
        return CODE_VALTYPES[b]

    def globaltype(self) -> tuple[ValType, bool]:
        t, mut = self.valtype(), self.byte()
        if mut > 1:
            self.fail("MalformedSection", f"global mutability 0x{mut:02x}")
        return t, mut == 1

    def limits(self, allow_secret: bool = False):
        flags = self.byte()
        known = 0x01 | (MEMORY_SECRET_FLAG if allow_secret else 0)
        if flags & ~known:
            self.fail("MalformedSection", f"limits flags 0x{flags:02x}")
        mn = self.u32()
        mx = self.u32() if flags & 1 else None
        return mn, mx, bool(flags & MEMORY_SECRET_FLAG)


class _BodyDecoder:
    def __init__(self, r: _Reader, types: list[FuncType]):
        self.r = r
        self.types = types
        self.depth = -1  # of the body being decoded; the function's is 0

    def instr(self, name: str) -> Instr:
        r = self.r
        proto = ast.CATALOGUE.get(name)
        match proto:
            case ast.Load() | ast.Store():
                align = r.u32()
                if align >= 32:  # align=2^32 and beyond has no text form
                    r.fail("MalformedSection", f"alignment exponent {align}")
                return replace(proto, align=align, offset=r.u32())
            case ast.MemorySize() | ast.MemoryGrow():
                if r.byte() != 0:
                    r.fail("MalformedSection", "nonzero reserved memory index")
                return ast.fresh(proto)
            case ast.Instr():
                return ast.fresh(proto)
        if name in ("block", "loop"):
            result = self._blocktype()
            body = self.block(("end",))[0]
            cls = ast.Block if name == "block" else ast.Loop
            return cls(result, body)
        if name == "if":
            result = self._blocktype()
            then, stop = self.block(("end", "else"))
            els: tuple[Instr, ...] = ()
            if stop == "else":
                els = self.block(("end",))[0]
            return ast.If(result, then, els)
        if name == "br_table":
            labels = tuple(r.u32() for _ in range(r.u32()))
            return ast.BrTable(labels, r.u32())
        if name == "call_indirect":
            ti = r.u32()
            if ti >= len(self.types):
                r.fail("IndexOverflow", f"type index {ti}")
            flag = r.byte()
            if flag not in (0, 1):
                r.fail("MalformedSection",
                       f"call_indirect trust flag 0x{flag:02x}")
            ft = self.types[ti]
            trust = Trust.TRUSTED if flag else Trust.UNTRUSTED
            return ast.CallIndirect(FuncType(trust, ft.params, ft.results))
        if name in ast.FIXED_CLASSES:  # the rest take one index
            return ast.FIXED_CLASSES[name](r.u32())
        if name.endswith(".const"):
            t = VALTYPES_BY_NAME[name[:-6]]
            if t.is_int:
                return ast.Const(t, r.s_n(t.bits))
            return ast.Const(t, int.from_bytes(r.take(t.bits // 8), "little"))
        r.fail("UnknownOpcode", f"{name} out of place")

    def _blocktype(self) -> ValType | None:
        b = self.r.byte()
        if b == BLOCKTYPE_EMPTY:
            return None
        if b not in CODE_VALTYPES:
            self.r.fail("UnknownType", f"block type 0x{b:02x}")
        return CODE_VALTYPES[b]

    def block(self, stops: tuple[str, ...]):
        r = self.r
        self.depth += 1
        if self.depth > ast.MAX_NESTING:
            r.fail("NestingTooDeep", ast.TOO_DEEP)
        out: list[Instr] = []
        while True:
            opcode = r.byte()
            if opcode == OPCODES["end"] and "end" in stops:
                self.depth -= 1
                return tuple(out), "end"
            if opcode == OPCODES["else"] and "else" in stops:
                self.depth -= 1
                return tuple(out), "else"
            if opcode == SECRET_PREFIX:
                payload = r.byte()
                name = _DECODING.get(bytes([opcode, payload]))
                if name is None:
                    r.fail("UnknownSecretOpcode", f"payload 0x{payload:02x}")
            else:
                name = _DECODING.get(bytes([opcode]))
                if name is None:
                    r.fail("UnknownOpcode", f"opcode 0x{opcode:02x}")
            out.append(self.instr(name))


def decode_module(data: bytes) -> Module:
    """Decode bytes to an AST module; rejects malformed input with a
    coded DecodeError carrying the byte offset."""
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise DecodeError("BadMagic", 0, "missing \\0asm magic")
    if r.take(4) != VERSION:
        raise DecodeError("BadVersion", 4, "unsupported version")

    sections: dict[int, _Reader] = {}
    last_id = 0
    while not r.eof():
        sid = r.byte()
        size = r.u32()
        payload = r.take(size)
        if sid == 0:
            continue  # custom sections are skipped
        if sid > 11:
            raise DecodeError("UnknownSection", r.offset, f"id {sid}")
        if sid <= last_id:
            raise DecodeError("SectionOrderViolation", r.offset,
                              f"section {sid} after {last_id}")
        last_id = sid
        sections[sid] = _Reader(payload, r.offset - size)

    types: list[FuncType] = []
    if 1 in sections:
        s = sections[1]
        for _ in range(s.u32()):
            code = s.byte()
            if code not in (FUNCTYPE_UNTRUSTED, FUNCTYPE_TRUSTED):
                s.fail("UnknownType", f"functype code 0x{code:02x}")
            trust = Trust.TRUSTED if code == FUNCTYPE_TRUSTED else Trust.UNTRUSTED
            params = tuple(s.valtype() for _ in range(s.u32()))
            results = tuple(s.valtype() for _ in range(s.u32()))
            if len(results) > 1:
                s.fail("MalformedSection", "multiple results")
            types.append(FuncType(trust, params, results))

    def typeref(s: _Reader) -> FuncType:
        ti = s.u32()
        if ti >= len(types):
            s.fail("IndexOverflow", f"type index {ti}")
        return types[ti]

    def const_expr(s: _Reader) -> tuple[Instr, ...]:
        dec = _BodyDecoder(s, types)
        body, _ = dec.block(("end",))
        return body

    fields: dict[str, list] = {kind: [] for kind in EXPORT_KINDS}

    def field(s: _Reader, kind: str, imported: tuple[str, str] | None = None):
        """Read the type of one field of ``kind``, and the initializer of
        a defined global, into ``fields``."""
        if fields[kind] and kind in ("table", "memory"):
            s.fail("MalformedSection", f"second {kind}")
        match kind:
            case "func":
                x = ast.Func(typeref(s), (), (), imported)
            case "table":
                if s.byte() != ELEMTYPE_FUNCREF:
                    s.fail("UnknownType", "table element type")
                mn, mx, _ = s.limits()
                x = ast.Table(mn, mx, imported=imported)
            case "memory":
                mn, mx, secret = s.limits(allow_secret=True)
                x = ast.Memory(mn, mx, Secrecy.SECRET if secret
                               else Secrecy.PUBLIC, imported)
            case _:
                t, mut = s.globaltype()
                x = ast.GlobalVar(t, mut, None if imported else const_expr(s),
                                  imported)
        fields[kind].append(x)

    if 2 in sections:
        s = sections[2]
        for _ in range(s.u32()):
            imported = s.name(), s.name()
            kind = s.byte()
            if kind > 3:
                s.fail("MalformedSection", f"import kind {kind}")
            field(s, EXPORT_KINDS[kind], imported)
    for sid, kind in _DEFINED_SECTIONS:
        if sid in sections:
            s = sections[sid]
            for _ in range(s.u32()):
                field(s, kind)
    table, memory = (next(iter(fields[k]), None) for k in ("table", "memory"))

    exports: list[tuple[str, str, int]] = []
    if 7 in sections:
        s = sections[7]
        for _ in range(s.u32()):
            name = s.name()
            kind = s.byte()
            idx = s.u32()
            if kind > 3:
                s.fail("MalformedSection", f"export kind {kind}")
            exports.append((name, EXPORT_KINDS[kind], idx))

    elems: list[ast.ElemSeg] = []
    if 9 in sections:
        s = sections[9]
        for _ in range(s.u32()):
            if s.u32() != 0:
                s.fail("MalformedSection", "table index must be 0")
            offset = const_expr(s)
            refs = tuple(s.u32() for _ in range(s.u32()))
            elems.append(ast.ElemSeg(offset, refs))
    if elems:
        if table is None:
            raise DecodeError("MalformedSection", sections[9].base,
                              "elem without table")
        table = replace(table, elems=tuple(elems))

    bodies: list[tuple[tuple[ValType, ...], tuple[Instr, ...]]] = []
    if 10 in sections:
        s = sections[10]
        for _ in range(s.u32()):
            size = s.u32()
            sub = _Reader(s.take(size), s.offset - size)
            locals_: list[ValType] = []
            for _ in range(sub.u32()):
                n = sub.u32()
                t = sub.valtype()
                if len(locals_) + n > 100_000:
                    sub.fail("MalformedSection", "too many locals")
                locals_.extend([t] * n)
            dec = _BodyDecoder(sub, types)
            body, _ = dec.block(("end",))
            if not sub.eof():
                sub.fail("MalformedSection", "trailing bytes after body end")
            bodies.append((tuple(locals_), body))
    funcs = fields["func"]
    first = sum(f.imported is not None for f in funcs)
    if len(bodies) != len(funcs) - first:
        at = sections.get(10) or sections[3]  # the function section if no code
        raise DecodeError("MalformedSection", at.base,
                          "function and code section lengths disagree")
    funcs[first:] = [ast.Func(f.type, locals_, body)
                     for f, (locals_, body) in zip(funcs[first:], bodies)]

    data: list[ast.DataSeg] = []
    if 11 in sections:
        s = sections[11]
        for _ in range(s.u32()):
            if s.u32() != 0:
                s.fail("MalformedSection", "memory index must be 0")
            offset = const_expr(s)
            data.append(ast.DataSeg(offset, bytes(s.take(s.u32()))))

    m = Module(tuple(funcs), tuple(fields["global"]), table, memory,
               tuple(data))
    try:
        return m.with_exports(exports)
    except IndexError as e:
        _, kind, idx = exports[e.args[0]]
        raise DecodeError("IndexOverflow", sections[7].base,
                          f"export {kind} {idx}") from None
