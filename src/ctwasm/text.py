"""Text format parser and printer.

The surface syntax is the familiar s-expression module format plus:
``s32``/``s64`` value types, secret instruction spellings (``s32.add``,
``s64.load`` ...), ``select secret``, ``s32.classify/i32`` and
``i32.declassify/s32`` coercions, an optional ``trusted`` keyword on
functions and on ``call_indirect``, and ``(memory n secret)``.  Every
plain MVP module is accepted unchanged.  Both folded and unfolded
instruction forms are accepted; the printer emits canonical unfolded text.
Legacy mnemonics (``get_local``, ``current_memory``, slash-style
conversions) are accepted as aliases.  ``(import "m" "n" (func ...))``
and its kin are sugar for the inline form ``(func (import "m" "n") ...)``.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, replace
from typing import NamedTuple

from .ast import (
    CATALOGUE, ELSE, END, FIXED_CLASSES, MAX_NESTING, TOO_DEEP,
    VALTYPES_BY_NAME, Block, Br, BrIf, BrTable, Call, CallIndirect, Classify,
    Const, Convert, DataSeg, Declassify, ElemSeg, Func, FuncType, GetGlobal,
    GetLocal, GlobalVar, If, Instr, Load, Loop, Memory, Module, NestingTooDeep,
    Reinterpret, Secrecy, SetGlobal, SetLocal, SourceSpan, Store, Table,
    TeeLocal, Trust, ValType, duplicates, fresh, mnemonic, unfold,
)
from .numerics import f32_from_bits, f64_from_bits


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan | None = None,
                 expected: frozenset[str] | None = None, filename: str = "<input>"):
        self.message = message
        self.span = span
        self.expected = expected or frozenset()
        self.filename = filename
        super().__init__(str(self))

    def __str__(self) -> str:
        loc = f"{self.filename}:{self.span.line}:{self.span.col}" if self.span else self.filename
        msg = f"{loc}: {self.message}"
        if self.expected:
            msg += f" (expected one of: {', '.join(sorted(self.expected))})"
        return msg


# ---------------------------------------------------------------------------
# Reader: characters to s-expressions in one pass

# Whitespace and ;; comments, then at most one token.  A match without a
# token is the end of input or a character that starts no token.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|;;[^\n]*)*
    (?: (?P<comment>\(;)
      | (?P<open>\()
      | (?P<close>\))
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<atom>[^\s()";]+) )?
    """,
    re.VERBOSE,
)
_NESTED_COMMENT_RE = re.compile(r"\(;|;\)")
# A folded if opens two lists per level of nesting, and (module (func ...))
# and the innermost instructions take a few more.
_MAX_LISTS = 2 * MAX_NESTING + 8


class Token(NamedTuple):
    kind: str  # "atom" | "string"
    text: str
    span: SourceSpan


class SExpr(NamedTuple):
    items: list  # of SExpr | Token
    span: SourceSpan


def _read(src: str, filename: str) -> list:
    """The top-level SExprs and Tokens of src.

    A character no token starts with, anywhere, is reported before an
    unbalanced ')', which is reported before an unclosed '('.
    """
    top: list = []
    items = top
    stack: list[tuple] = []  # (enclosing items, start, line, col) per open '('
    unbalanced = None
    pos, last, line, line_start = 0, 0, 1, 0
    while True:
        m = _TOKEN_RE.match(src, pos)
        kind = m.lastgroup
        start = m.start(kind) if kind else m.end()
        nl = src.count("\n", last, start)
        if nl:
            line += nl
            line_start = src.rfind("\n", last, start) + 1
        last, pos, col = start, m.end(), start - line_start + 1
        if kind == "open":
            if len(stack) == _MAX_LISTS:
                raise ParseError(f"lists nested deeper than {_MAX_LISTS}",
                                 SourceSpan(start, pos, line, col), filename=filename)
            stack.append((items, start, line, col))
            items = []
        elif kind == "close":
            if stack:
                parent, s0, l0, c0 = stack.pop()
                parent.append(SExpr(items, SourceSpan(s0, pos, l0, c0)))
                items = parent
            elif unbalanced is None:
                unbalanced = ParseError("unbalanced ')'", SourceSpan(
                    start, pos, line, col), filename=filename)
        elif kind == "comment":  # (; ... ;) comments nest
            depth = 1
            while depth:
                c = _NESTED_COMMENT_RE.search(src, pos)
                if c is None:
                    raise ParseError("unterminated block comment", SourceSpan(
                        start, len(src), line, col), filename=filename)
                depth += 1 if c.group() == "(;" else -1
                pos = c.end()
        elif kind:
            items.append(Token(kind, src[start:pos], SourceSpan(start, pos, line, col)))
        elif pos < len(src):
            raise ParseError(f"unexpected character {src[pos]!r}", SourceSpan(
                pos, pos + 1, line, col), filename=filename)
        else:
            break
    if unbalanced:
        raise unbalanced
    if stack:
        _, start, line, col = stack[-1]
        raise ParseError("unclosed '('", SourceSpan(start, start + 1, line, col),
                         filename=filename)
    return top


# ---------------------------------------------------------------------------
# Literals

def _unescape_string(tok: Token, filename: str) -> bytes:
    s = tok.text[1:-1]
    out = bytearray()
    i = 0
    while i < len(s):
        c = s[i]
        if c != "\\":
            out.extend(c.encode("utf-8"))
            i += 1
            continue
        e = s[i + 1]
        i += 2
        if e == "n":
            out.append(0x0A)
        elif e == "t":
            out.append(0x09)
        elif e == "r":
            out.append(0x0D)
        elif e in ('"', "'", "\\"):
            out.append(ord(e))
        elif e == "u":
            m = re.match(r"\{([0-9a-fA-F]+)\}", s[i:])
            cp = int(m.group(1), 16) if m else -1
            if not (0 <= cp < 0xD800 or 0xE000 <= cp <= 0x10FFFF):
                raise ParseError("bad \\u escape", tok.span, filename=filename)
            out.extend(chr(cp).encode("utf-8"))
            i += m.end()
        elif re.fullmatch(r"[0-9a-fA-F]{2}", s[i - 1:i + 1]):
            out.append(int(s[i - 1:i + 1], 16))
            i += 1
        else:
            raise ParseError(f"bad string escape \\{e}", tok.span, filename=filename)
    return bytes(out)


# The numbers of the Wasm text format: digits with at most one "_" between
# two of them; integers with an optional sign and "0x"; and floats, decimal
# or hex, each with an optional fraction and exponent, or inf and nan.
_NUM = r"[0-9](?:_?[0-9])*"
_HEXNUM = r"[0-9a-fA-F](?:_?[0-9a-fA-F])*"
_INT_RE = re.compile(rf"[+-]?(?:0x{_HEXNUM}|{_NUM})")
_FLOAT_RE = re.compile(
    rf"[+-]?(?:{_NUM}(?:\.(?:{_NUM})?)?(?:[eE][+-]?{_NUM})?"
    rf"|0x{_HEXNUM}(?:\.(?:{_HEXNUM})?)?(?:[pP][+-]?{_NUM})?"
    rf"|inf|nan(?::0x(?P<payload>{_HEXNUM}))?)")


def _parse_int(text: str) -> int | None:
    """The value of an integer literal, or None if text is not one or has
    more decimal digits than Python converts (4,300)."""
    if not _INT_RE.fullmatch(text):
        return None
    t = text.replace("_", "")
    try:
        return int(t, 16 if "x" in t else 10)
    except ValueError:
        return None


def const_bits(t: ValType, literal: str) -> int:
    """The bits of ``literal`` as a constant of type ``t``, by the grammar
    of ``t.const``.  Raises ValueError naming what is wrong with it."""
    if t.is_int:
        v = _parse_int(literal)
        if v is None:
            raise ValueError(f"bad integer literal {literal}")
        if not -(1 << (t.bits - 1)) <= v < 1 << t.bits:
            raise ValueError(f"literal out of range for {t.name}")
        return v & ((1 << t.bits) - 1)
    m = _FLOAT_RE.fullmatch(literal)
    if m is None:
        raise ValueError(f"bad float literal {literal}")
    neg = literal.startswith("-")
    if m["payload"] is not None:
        payload = int(m["payload"].replace("_", ""), 16)
        if not 0 < payload < 1 << (23 if t.bits == 32 else 52):
            raise ValueError("NaN payload out of range")
        exp = 0x7F800000 if t.bits == 32 else 0x7FF0000000000000
        return (1 << (t.bits - 1) if neg else 0) | exp | payload
    mag = literal.lstrip("+-").replace("_", "")
    try:
        v = float.fromhex(mag) if mag.startswith("0x") else float(mag)
        if math.isinf(v) and mag != "inf":  # a decimal past the largest f64
            raise OverflowError
        return _float_bits(-v if neg else v, t.bits)
    except OverflowError:  # past the largest f64, or finite but past f32's
        raise ValueError(f"literal out of range for {t.name}") from None


def _float_bits(value: float, width: int) -> int:
    if width == 32:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    return struct.unpack("<Q", struct.pack("<d", value))[0]


# ---------------------------------------------------------------------------
# Mnemonic tables: views of ast.CATALOGUE

_LEGACY_ALIASES = {
    "get_local": "local.get",
    "set_local": "local.set",
    "tee_local": "local.tee",
    "get_global": "global.get",
    "set_global": "global.set",
    "current_memory": "memory.size",
    "grow_memory": "memory.grow",
}
for _name, _proto in CATALOGUE.items():
    match _proto:
        case Convert() | Reinterpret():
            # slash style: i64.extend_i32_s was i64.extend_s/i32
            _t, _verb, _frm, *_sign = re.split(r"[._]", _name)
            _LEGACY_ALIASES["_".join([f"{_t}.{_verb}", *_sign]) + "/" + _frm] = _name
        case Classify() | Declassify():
            # s32.classify/i32 may drop its operand type or use an underscore
            _LEGACY_ALIASES[_name.split("/")[0]] = _name
            _LEGACY_ALIASES[_name.replace("/", "_")] = _name

# Instructions whose one immediate is an index, and its index space.
_INDEX_SPACE = {
    "br": "label", "br_if": "label", "call": "func", "local.get": "local",
    "local.set": "local", "local.tee": "local", "global.get": "global",
    "global.set": "global",
}


# ---------------------------------------------------------------------------
# Parser

@dataclass
class _FuncDecl:
    name: str | None
    type: FuncType
    param_names: list[str | None]
    local_names: list[str | None]
    locals: list[ValType]
    body_items: list  # raw sexpr items, resolved in a second pass
    imported: tuple[str, str] | None
    span: SourceSpan


class _Names:
    """One name->index map per index space, rejecting duplicates."""

    def __init__(self, filename: str):
        self.filename = filename
        self.spaces: dict[str, dict[str, int]] = {}

    def bind(self, space: str, name: str | None, index: int, span: SourceSpan) -> None:
        if name is None:
            return
        m = self.spaces.setdefault(space, {})
        if name in m:
            raise ParseError(f"duplicate {space} name {name}", span,
                             filename=self.filename)
        m[name] = index

    def resolve(self, space: str, tok) -> int:
        atom = isinstance(tok, Token) and tok.kind == "atom"
        if atom and tok.text.startswith("$"):
            m = self.spaces.get(space, {})
            if tok.text not in m:
                raise ParseError(f"unknown {space} {tok.text}", tok.span,
                                 filename=self.filename)
            return m[tok.text]
        value = _parse_int(tok.text) if atom else None
        if value is None or value < 0:
            raise ParseError(f"expected {space} index", tok.span,
                             filename=self.filename,
                             expected=frozenset(("integer", "$name")))
        return value


class _Parser:
    def __init__(self, filename: str):
        self.filename = filename
        self.names = _Names(filename)
        self.types: list[FuncType] = []
        self.funcs: list[_FuncDecl] = []
        self.globals: list[GlobalVar] = []  # without their initializers
        self.global_inits: list[list | None] = []  # raw items; None if imported
        self.table: Table | None = None
        self.table_elems: list[tuple] = []  # (offset items, func refs)
        self.memory: Memory | None = None
        self.data: list[tuple] = []  # (offset items, bytes)
        self.segment_indices: list[tuple] = []  # (space, token): must be 0
        self.exports: list[tuple] = []  # inline (name, kind, index)
        self.late_exports: list[tuple] = []  # (name, kind, ref token, span)

    def err(self, message: str, span: SourceSpan | None = None,
            expected: frozenset[str] | None = None) -> ParseError:
        return ParseError(message, span, expected, self.filename)

    # -- helpers over sexpr items

    def _is_kw(self, item, *words: str) -> bool:
        return isinstance(item, Token) and item.kind == "atom" and item.text in words

    def _head(self, item) -> str | None:
        if isinstance(item, SExpr) and item.items and \
                isinstance(item.items[0], Token) and item.items[0].kind == "atom":
            return item.items[0].text
        return None

    def _name(self, items: list) -> tuple[str | None, list]:
        """Strip an optional leading $name."""
        if items and isinstance(items[0], Token) and items[0].text.startswith("$"):
            return items[0].text, items[1:]
        return None, items

    def _keyword(self, items: list, kind):
        """Strip an optional leading keyword naming a member of the enum
        ``kind`` (trusted/untrusted, secret/public); None if there is none."""
        if items and self._is_kw(items[0], *(k.value for k in kind)):
            return kind(items[0].text), items[1:]
        return None, items

    def _valtype(self, item) -> ValType:
        if isinstance(item, Token) and item.kind == "atom" and \
                item.text in VALTYPES_BY_NAME:
            return VALTYPES_BY_NAME[item.text]
        raise self.err(f"unknown type keyword {item.text!r}"
                       if isinstance(item, Token) else "expected a value type",
                       item.span, expected=frozenset(VALTYPES_BY_NAME))

    def _nth(self, s: SExpr, n: int, what: str):
        """Item n of a form, or a ParseError saying what is missing."""
        if n >= len(s.items):
            raise self.err(f"({self._head(s)} ...) needs {what}", s.span)
        return s.items[n]

    def _at_most(self, s: SExpr, n: int) -> None:
        if len(s.items) > n:
            raise self.err(f"trailing tokens in ({self._head(s)} ...)",
                           s.items[n].span)

    def _bytes(self, item) -> bytes:
        if not (isinstance(item, Token) and item.kind == "string"):
            span = item.span if isinstance(item, (Token, SExpr)) else None
            raise self.err("expected string", span, expected=frozenset(('"..."',)))
        return _unescape_string(item, self.filename)

    def _string(self, item) -> str:
        try:
            return self._bytes(item).decode("utf-8")
        except UnicodeDecodeError:
            raise self.err("name is not valid UTF-8", item.span) from None

    def _typed_names(self, s: SExpr, names: list, types: list,
                     allow_names: bool = True) -> None:
        """(param $p t) | (param t*), and the same for (local ...)."""
        name, rest = self._name(s.items[1:])
        if name is None:
            types += map(self._valtype, rest)
            names += [None] * len(rest)
            return
        if not allow_names:
            raise self.err(f"named {self._head(s)} not allowed here", s.span)
        if len(rest) != 1:
            raise self.err(f"named {self._head(s)} takes one type", s.span)
        names.append(name)
        types.append(self._valtype(rest[0]))

    # -- module

    def parse_module(self, sexprs: list) -> Module:
        if len(sexprs) == 1 and self._head(sexprs[0]) == "module":
            _, fields = self._name(sexprs[0].items[1:])  # module name, ignored
        else:
            fields = sexprs  # bare field list
        for item in fields:
            head = self._head(item)
            if head is None:
                span = item.span if isinstance(item, (Token, SExpr)) else None
                raise self.err("expected module field", span)
            if head == "start":
                raise self.err("start sections are not supported", item.span)
            handler = getattr(self, f"_field_{head}", None)
            if handler is None:
                raise self.err(f"unknown module field ({head} ...)", item.span)
            handler(item)
        return self._build()

    def _field_type(self, s: SExpr) -> None:
        name, items = self._name(s.items[1:])
        if len(items) != 1 or self._head(items[0]) != "func":
            raise self.err("expected (type $name? (func ...))", s.span)
        trust, rest = self._keyword(items[0].items[1:], Trust)
        ft, _, rest = self._functype(rest, False, s.span,
                                     trust or Trust.UNTRUSTED)
        if rest:
            raise self.err("trailing tokens in (func ...)", rest[0].span)
        self.names.bind("type", name, len(self.types), s.span)
        self.types.append(ft)

    def _functype(self, items: list, allow_names: bool, span: SourceSpan,
                  trust: Trust) -> tuple[FuncType, list[str | None], list]:
        params: list[ValType] = []
        param_names: list[str | None] = []
        results: list[ValType] = []
        i = 0
        while i < len(items) and self._head(items[i]) == "param":
            self._typed_names(items[i], param_names, params, allow_names)
            i += 1
        while i < len(items) and self._head(items[i]) == "result":
            results += map(self._valtype, items[i].items[1:])
            i += 1
        if len(results) > 1:
            raise self.err("at most one result supported", span)
        return FuncType(trust, tuple(params), tuple(results)), param_names, items[i:]

    def _inline_clauses(self, items: list, kind: str, index: int):
        """Strip leading (export "n")* and optional (import "m" "n"); the
        exports are recorded for field `index` of `kind`."""
        imported = None
        i = 0
        while i < len(items):
            head = self._head(items[i])
            if head == "export":
                name = self._string(self._nth(items[i], 1, "a name"))
                self.exports.append((name, kind, index))
            elif head == "import":
                if imported is not None:
                    raise self.err("duplicate import clause", items[i].span)
                imported = (self._string(self._nth(items[i], 1, "a module name")),
                            self._string(self._nth(items[i], 2, "a field name")))
            else:
                break
            i += 1
        return imported, items[i:]

    def _typeuse(self, items: list, allow_names: bool, span: SourceSpan,
                 trust: Trust | None = None):
        """(type $t)? trusted? (param..)* (result..)? -> (FuncType, names, rest);
        ``trust``, a keyword read before, must agree with the type's trust."""
        declared: FuncType | None = None
        if items and self._head(items[0]) == "type":
            idx = self.names.resolve("type", self._nth(items[0], 1, "an index"))
            if idx >= len(self.types):
                raise self.err("type index out of range", items[0].span)
            declared = self.types[idx]
            items = items[1:]
        after, items = self._keyword(items, Trust)
        claims = {trust, after, declared.trust if declared else None} - {None}
        if len(claims) > 1:
            raise self.err("trust keyword disagrees with type use", span)
        trust = claims.pop() if claims else Trust.UNTRUSTED
        ft, pnames, rest = self._functype(items, allow_names, span, trust)
        if declared is not None:
            if ft.params or ft.results:
                if (ft.params, ft.results) != (declared.params, declared.results):
                    raise self.err("inline signature disagrees with type use", span)
            ft = FuncType(trust, declared.params, declared.results)
            if not pnames:
                pnames = [None] * len(declared.params)
        return ft, pnames, rest

    def _field_func(self, s: SExpr) -> None:
        name, items = self._name(s.items[1:])
        trust, items = self._keyword(items, Trust)
        imported, items = self._inline_clauses(items, "func", len(self.funcs))
        later, items = self._keyword(items, Trust)
        ft, pnames, items = self._typeuse(items, True, s.span, later or trust)
        local_types: list[ValType] = []
        local_names: list[str | None] = []
        k = 0  # walked by index: slicing per field is quadratic
        while k < len(items) and self._head(items[k]) == "local":
            self._typed_names(items[k], local_names, local_types)
            k += 1
        items = items[k:]
        if imported is not None and (local_types or items):
            raise self.err("imported function cannot have a body", s.span)
        self.names.bind("func", name, len(self.funcs), s.span)
        self.funcs.append(_FuncDecl(name, ft, pnames, local_names, local_types,
                                    items, imported, s.span))

    def _limits(self, items: list, span: SourceSpan) -> tuple[int, int | None, list]:
        if not items:
            raise self.err("expected limits", span, expected=frozenset(("integer",)))
        mn = _parse_int(items[0].text) if isinstance(items[0], Token) else None
        if mn is None:
            raise self.err("expected limits", items[0].span,
                           expected=frozenset(("integer",)))
        items = items[1:]
        mx = None
        if items and isinstance(items[0], Token):
            v = _parse_int(items[0].text)
            if v is not None:
                mx = v
                items = items[1:]
        if not all(0 <= v < 1 << 32 for v in (mn, mx) if v is not None):
            raise self.err("limits must be integers in [0, 2^32)", span)
        return mn, mx, items

    def _one_of(self, s: SExpr, kind: str) -> tuple:
        """$name? clauses limits, the start of (memory ...) and (table ...)."""
        if getattr(self, kind) is not None:
            raise self.err(f"at most one {kind}", s.span)
        name, items = self._name(s.items[1:])
        self.names.bind(kind, name, 0, s.span)
        imported, items = self._inline_clauses(items, kind, 0)
        return (imported, *self._limits(items, s.span))

    def _field_memory(self, s: SExpr) -> None:
        imported, mn, mx, items = self._one_of(s, "memory")
        sec, items = self._keyword(items, Secrecy)
        if items:
            raise self.err("trailing tokens in memory", s.span)
        self.memory = Memory(mn, mx, sec or Secrecy.PUBLIC, imported)

    def _field_table(self, s: SExpr) -> None:
        imported, mn, mx, items = self._one_of(s, "table")
        if not (len(items) == 1 and self._is_kw(items[0], "funcref", "anyfunc")):
            raise self.err("expected funcref element type", s.span)
        self.table = Table(mn, mx, imported=imported)

    def _offset_expr(self, item) -> list:
        if self._head(item) == "offset":
            return item.items[1:]
        return [item]

    def _field_elem(self, s: SExpr) -> None:
        items = s.items[1:]
        if items and isinstance(items[0], Token):  # optional table index
            self.segment_indices.append(("table", items[0]))
            items = items[1:]
        if not items:
            raise self.err("elem needs an offset", s.span)
        self.table_elems.append((self._offset_expr(items[0]), items[1:], s.span))

    def _field_data(self, s: SExpr) -> None:
        items = s.items[1:]
        if items and isinstance(items[0], Token) and items[0].kind == "atom":
            self.segment_indices.append(("memory", items[0]))
            items = items[1:]  # optional memory index
        if not items:
            raise self.err("data needs an offset", s.span)
        offset = self._offset_expr(items[0])
        chunks = b"".join(self._bytes(it) for it in items[1:])
        self.data.append((offset, chunks, s.span))

    def _field_global(self, s: SExpr) -> None:
        name, items = self._name(s.items[1:])
        imported, items = self._inline_clauses(items, "global", len(self.globals))
        if not items:
            raise self.err("global needs a type", s.span)
        mutable = self._head(items[0]) == "mut"
        if mutable:  # (mut t)
            self._at_most(items[0], 2)
            gt = self._valtype(self._nth(items[0], 1, "a type"))
        else:
            gt = self._valtype(items[0])
        if imported is not None and items[1:]:
            raise self.err("imported global cannot have an initializer", s.span)
        self.names.bind("global", name, len(self.globals), s.span)
        self.globals.append(GlobalVar(gt, mutable, imported=imported, name=name,
                                      span=s.span))
        self.global_inits.append(None if imported else items[1:])

    def _field_import(self, s: SExpr) -> None:
        """(import "m" "n" (K $x? rest...)) is read as the inline form
        (K $x? (import "m" "n") rest...)."""
        desc = self._nth(s, 3, "a description")
        self._at_most(s, 4)
        kind = self._head(desc)
        if kind not in ("func", "global", "memory", "table"):
            raise self.err("unknown import description", desc.span)
        _, rest = self._name(desc.items[1:])
        if rest and self._head(rest[0]) == "export":
            raise self.err("an import description cannot export", rest[0].span)
        head = desc.items[:len(desc.items) - len(rest)]  # K $x?
        inline = SExpr([*head, SExpr(s.items[:3], s.span), *rest], s.span)
        getattr(self, f"_field_{kind}")(inline)

    def _field_export(self, s: SExpr) -> None:
        name = self._string(self._nth(s, 1, "a name"))
        desc = self._nth(s, 2, "a description")
        head = self._head(desc)
        if head not in ("func", "global", "memory", "table"):
            raise self.err("unknown export description", desc.span)
        self._at_most(s, 3)
        self._at_most(desc, 2)
        self.late_exports.append((name, head, self._nth(desc, 1, "an index"),
                                  s.span))

    # -- instruction parsing (second pass, names all bound)

    def _instrs(self, items: list, labels: list[str | None],
                fd: _FuncDecl) -> tuple[Instr, ...]:
        out: list[Instr] = []
        i = 0
        while i < len(items):
            i = self._instr(items, i, out, labels, fd)
        return tuple(out)

    def _index(self, space: str, tok, labels: list[str | None],
               fd: _FuncDecl) -> int:
        """Resolve an index operand; labels and locals have per-function names."""
        if space in ("label", "local") and isinstance(tok, Token) and \
                tok.text.startswith("$"):
            names = list(reversed(labels)) if space == "label" \
                else fd.param_names + fd.local_names
            if tok.text not in names:
                raise self.err(f"unknown {space} {tok.text}", tok.span)
            return names.index(tok.text)
        return self.names.resolve(space, tok)

    def _block_intro(self, items: list, i: int, labels: list[str | None]):
        """label? (result t)? -> (label name, result, next index)."""
        if len(labels) == MAX_NESTING:
            raise self.err(TOO_DEEP, items[i - 1].span)
        name = None
        if i < len(items) and isinstance(items[i], Token) and \
                items[i].text.startswith("$"):
            name = items[i].text
            i += 1
        result = None
        if i < len(items) and self._head(items[i]) == "result":
            inner = items[i].items[1:]
            if len(inner) > 1:
                raise self.err("at most one block result", items[i].span)
            if inner:
                result = self._valtype(inner[0])
            i += 1
        return name, result, i

    def _memarg(self, items: list, i: int, natural_align: int):
        offset, align = 0, natural_align
        while i < len(items) and isinstance(items[i], Token) and \
                items[i].kind == "atom":
            t = items[i].text
            if t.startswith("offset="):
                offset = _parse_int(t[7:])
                if offset is None or not 0 <= offset < 1 << 32:
                    raise self.err("offset must be an integer in [0, 2^32)",
                                   items[i].span)
                i += 1
            elif t.startswith("align="):
                a = _parse_int(t[6:])
                if a is None or a <= 0 or a & (a - 1) or a >> 32:
                    raise self.err("alignment must be a power of 2 below 2^32",
                                   items[i].span)
                align = a.bit_length() - 1
                i += 1
            else:
                break
        return offset, align, i

    def _const_payload(self, t: ValType, tok, span: SourceSpan) -> int:
        if not isinstance(tok, Token) or tok.kind != "atom":
            raise self.err("expected literal", span)
        try:
            return const_bits(t, tok.text)
        except ValueError as e:
            raise self.err(str(e), tok.span) from None

    def _instr(self, items: list, i: int, out: list[Instr],
               labels: list[str | None], fd: _FuncDecl) -> int:
        item = items[i]
        if isinstance(item, SExpr):
            return self._folded(item, out, labels, fd, i)
        if item.kind != "atom":
            raise self.err("expected instruction", item.span)
        name = _LEGACY_ALIASES.get(item.text, item.text)
        span = item.span
        i += 1

        if name == "select" and i < len(items) and \
                self._is_kw(items[i], "secret", "public"):
            name = "select secret" if items[i].text == "secret" else name
            i += 1
        proto = CATALOGUE.get(name)
        if isinstance(proto, (Load, Store)):
            offset, align, i = self._memarg(items, i, proto.align)
            out.append(fresh(proto, span, align=align, offset=offset))
            return i
        if proto is not None:
            out.append(fresh(proto, span))
            return i
        if name in _INDEX_SPACE:
            if i >= len(items):
                raise self.err(f"{name} needs an index", span)
            k = self._index(_INDEX_SPACE[name], items[i], labels, fd)
            out.append(FIXED_CLASSES[name](k, span=span))
            return i + 1
        if name in ("block", "loop", "if"):
            lbl, result, i = self._block_intro(items, i, labels)
            labels.append(lbl)
            arms: list[list[Instr]] = [[]]
            while True:
                if i >= len(items):
                    stops = ("end", "else") if name == "if" else ("end",)
                    raise self.err(f"unterminated {name}", span,
                                   expected=frozenset(stops))
                if name == "if" and self._is_kw(items[i], "else"):
                    if len(arms) == 2:
                        raise self.err("duplicate else", items[i].span)
                    arms.append([])
                    i += 1
                elif self._is_kw(items[i], "end"):
                    i += 1
                    if i < len(items) and isinstance(items[i], Token) and \
                            items[i].text.startswith("$"):
                        i += 1  # trailing label name on end
                    break
                else:
                    i = self._instr(items, i, arms[-1], labels, fd)
            labels.pop()
            if name == "if":
                then, els = (arms + [[]])[:2]
                out.append(If(result, tuple(then), tuple(els), span=span))
            else:
                cls = Block if name == "block" else Loop
                out.append(cls(result, tuple(arms[0]), span=span))
            return i
        if name == "br_table":
            targets: list[int] = []
            while i < len(items) and isinstance(items[i], Token) and \
                    items[i].kind == "atom" and \
                    (items[i].text.startswith("$") or _INT_RE.fullmatch(items[i].text)):
                targets.append(self._index("label", items[i], labels, fd))
                i += 1
            if not targets:
                raise self.err("br_table needs at least one label", span)
            out.append(BrTable(tuple(targets[:-1]), targets[-1], span=span))
            return i
        if name == "call_indirect":
            trust = None
            if i < len(items) and self._is_kw(items[i], "trusted", "untrusted"):
                trust = Trust(items[i].text)
                i += 1
            sig_items = []
            while i < len(items) and self._head(items[i]) in ("type", "param", "result"):
                sig_items.append(items[i])
                i += 1
            ft, _, rest = self._typeuse(sig_items, False, span, trust)
            if rest:
                raise self.err("bad call_indirect signature", span)
            out.append(CallIndirect(ft, span=span))
            return i
        if name.endswith(".const"):
            tn = name[:-6]
            if tn not in VALTYPES_BY_NAME:
                raise self.err(f"unknown type keyword {tn!r}", span,
                               expected=frozenset(VALTYPES_BY_NAME))
            t = VALTYPES_BY_NAME[tn]
            if i >= len(items):
                raise self.err("const needs a literal", span)
            bits = self._const_payload(t, items[i], span)
            out.append(Const(t, bits, span=span))
            return i + 1
        raise self.err(f"unknown instruction {item.text!r}", span)

    def _folded(self, s: SExpr, out: list[Instr], labels: list[str | None],
                fd: _FuncDecl, outer_i: int) -> int:
        head = s.items[0] if s.items else None
        if not (isinstance(head, Token) and head.kind == "atom"):
            raise self.err("expected instruction", s.span)
        name = _LEGACY_ALIASES.get(head.text, head.text)
        items = s.items
        if name in ("block", "loop"):
            lbl, result, j = self._block_intro(items, 1, labels)
            labels.append(lbl)
            body = self._instrs(items[j:], labels, fd)
            labels.pop()
            cls = Block if name == "block" else Loop
            out.append(cls(result, body, span=s.span))
            return outer_i + 1
        if name == "if":
            lbl, result, j = self._block_intro(items, 1, labels)
            # condition = folded instrs before (then ...)
            k = j
            while k < len(items) and self._head(items[k]) not in ("then", "else"):
                k = self._instr(items, k, out, labels, fd)
            labels.append(lbl)
            then: tuple[Instr, ...] = ()
            els: tuple[Instr, ...] = ()
            if k < len(items) and self._head(items[k]) == "then":
                then = self._instrs(items[k].items[1:], labels, fd)
                k += 1
            else:
                raise self.err("folded if needs (then ...)", s.span,
                               expected=frozenset(("then",)))
            if k < len(items) and self._head(items[k]) == "else":
                els = self._instrs(items[k].items[1:], labels, fd)
                k += 1
            if k != len(items):
                raise self.err("trailing tokens in folded if", s.span)
            labels.pop()
            out.append(If(result, then, els, span=s.span))
            return outer_i + 1
        # general folded op: trailing sexprs are operands, emitted first
        j = 1
        plain: list = [head]
        while j < len(items) and not isinstance(items[j], SExpr):
            plain.append(items[j])
            j += 1
        # call_indirect signature clauses stay attached to the op
        while name == "call_indirect" and j < len(items) and \
                self._head(items[j]) in ("type", "param", "result"):
            plain.append(items[j])
            j += 1
        for k in range(j, len(items)):
            if not isinstance(items[k], SExpr):
                raise self.err("operand atoms must precede folded operands",
                               items[k].span)
            self._folded(items[k], out, labels, fd, 0)
        consumed = self._instr(plain, 0, out, labels, fd)
        if consumed != len(plain):
            raise self.err("trailing tokens in folded instruction", s.span)
        return outer_i + 1

    # -- assembly

    def _const_expr(self, items: list, what: str, span: SourceSpan) -> tuple[Instr, ...]:
        dummy = _FuncDecl(None, FuncType(Trust.UNTRUSTED, (), ()), [], [], [],
                          [], None, span)
        instrs = self._instrs(items, [], dummy)
        if not instrs:
            raise self.err(f"{what} needs a constant expression", span)
        return instrs

    def _build(self) -> Module:
        bodies = [() if fd.imported else self._instrs(fd.body_items, [], fd)
                  for fd in self.funcs]
        inits = [None if items is None else self._const_expr(items, "global", g.span)
                 for g, items in zip(self.globals, self.global_inits)]
        for space, tok in self.segment_indices:
            if self.names.resolve(space, tok) != 0:
                raise self.err(f"{space} index out of range", tok.span)
        if self.table_elems and self.table is None:
            raise self.err("elem segment without a table", self.table_elems[0][2])
        elems = []
        for offset_items, ref_items, span in self.table_elems:
            offset = self._const_expr(offset_items, "elem", span)
            refs = tuple(self.names.resolve("func", t) for t in ref_items)
            if any(r >= len(self.funcs) for r in refs):
                raise self.err("elem function index out of range", span)
            elems.append(ElemSeg(offset, refs))
        data = []
        for offset_items, chunk, span in self.data:
            if self.memory is None:
                raise self.err("data segment without a memory", span)
            data.append(DataSeg(self._const_expr(offset_items, "data", span), chunk))
        exports = self.exports + [(name, kind, self.names.resolve(kind, ref))
                                  for name, kind, ref, _ in self.late_exports]
        funcs = tuple(Func(fd.type, tuple(fd.locals), body, fd.imported,
                           name=fd.name, span=fd.span)
                      for fd, body in zip(self.funcs, bodies))
        globals_ = tuple(replace(g, init=init)
                         for g, init in zip(self.globals, inits))
        table = self.table and replace(self.table, elems=tuple(elems))
        try:
            m = Module(funcs, globals_, table, self.memory,
                       tuple(data)).with_exports(exports)
        except ValueError as e:  # imports after definitions
            raise self.err(str(e)) from None
        except IndexError as e:  # only an (export ...) field names another
            _, kind, _, span = self.late_exports[e.args[0] - len(self.exports)]
            raise self.err(f"export {kind} index out of range", span) from None
        dup = duplicates(name for name, _, _ in exports)
        if dup:
            raise self.err(f"duplicate export name {dup[0]!r}")
        return m


def parse_module(text: str, filename: str = "<input>") -> Module:
    """Parse module text into an AST; raises ParseError with location."""
    sexprs = _read(text, filename)
    if not sexprs:
        raise ParseError("empty input", None, filename=filename)
    return _Parser(filename).parse_module(sexprs)


# ---------------------------------------------------------------------------
# Printer

def _const_literal(t: ValType, bits: int) -> str:
    if t.is_int:
        hi = 1 << t.bits
        return str(bits - hi if bits >= hi >> 1 else bits)
    v = (f32_from_bits if t.bits == 32 else f64_from_bits)(bits)
    if v != v:  # NaN: preserve payload
        exp = 0x7F800000 if t.bits == 32 else 0x7FF0000000000000
        sign = "-" if bits >> (t.bits - 1) else ""
        payload = bits & ~(exp | (1 << (t.bits - 1))) & ((1 << t.bits) - 1)
        return f"{sign}nan:0x{payload:x}"
    if v in (float("inf"), float("-inf")):
        return "inf" if v > 0 else "-inf"
    return repr(v)


def _memarg_text(ins: Load | Store) -> str:
    natural = (ins.pack or ins.type.bits) // 8
    parts = []
    if ins.offset:
        parts.append(f"offset={ins.offset}")
    if ins.align != natural.bit_length() - 1:
        parts.append(f"align={1 << ins.align}")
    return (" " + " ".join(parts)) if parts else ""


def _instr_text(ins: Instr) -> str:
    """One instruction's line; a block, loop or if's is its head."""
    match ins:
        case Block(result=r) | Loop(result=r) | If(result=r):
            return f"{mnemonic(ins)} (result {r.name})" if r else mnemonic(ins)
        case (Br(label=k) | BrIf(label=k) | Call(func=k)
              | GetLocal(local=k) | SetLocal(local=k) | TeeLocal(local=k)
              | GetGlobal(glob=k) | SetGlobal(glob=k)):
            return f"{mnemonic(ins)} {k}"
        case BrTable(labels=ls, default=d):
            return "br_table " + " ".join(str(k) for k in (*ls, d))
        case CallIndirect(type=ft):
            sig = "".join(f" (param {t.name})" for t in ft.params)
            sig += "".join(f" (result {t.name})" for t in ft.results)
            trust = " trusted" if ft.trust is Trust.TRUSTED else ""
            return f"call_indirect{trust}{sig}"
        case Load() | Store():
            return mnemonic(ins) + _memarg_text(ins)
        case Const(type=t, bits=bits):
            return f"{t.name}.const {_const_literal(t, bits)}"
    return mnemonic(ins)


class _Printer:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("  " * depth + text)

    def instrs(self, body: tuple[Instr, ...], indent: int) -> None:
        for depth, item in unfold(body):
            if depth > MAX_NESTING:
                raise NestingTooDeep(TOO_DEEP)
            if item is ELSE or item is END:  # at its construct's indent
                self.emit(indent + depth - 1, item)
            else:
                self.emit(indent + depth, _instr_text(item))

    def _inline(self, exports: tuple[str, ...],
                imported: tuple[str, str] | None) -> str:
        def quoted(name: str) -> str:
            return '"' + _escape_bytes(name.encode("utf-8")) + '"'

        out = "".join(f" (export {quoted(e)})" for e in exports)
        if imported:
            out += f" (import {quoted(imported[0])} {quoted(imported[1])})"
        return out

    def module(self, m: Module) -> str:
        self.emit(0, "(module")
        for f in m.funcs:
            head = "(func" + self._inline(f.exports, f.imported)
            if f.type.trust is Trust.TRUSTED:
                head += " trusted"
            head += "".join(f" (param {t.name})" for t in f.type.params)
            head += "".join(f" (result {t.name})" for t in f.type.results)
            if f.imported is not None:
                self.emit(1, head + ")")
                continue
            self.emit(1, head)
            if f.locals:
                self.emit(2, "(local " + " ".join(t.name for t in f.locals) + ")")
            self.instrs(f.body, 2)
            self.emit(1, ")")
        if m.table is not None:
            t = m.table
            lim = f"{t.min}" + (f" {t.max}" if t.max is not None else "")
            self.emit(1, f"(table{self._inline(t.exports, t.imported)} {lim} funcref)")
            for seg in t.elems:
                off = self._expr_inline(seg.offset)
                refs = " ".join(str(k) for k in seg.funcs)
                self.emit(1, f"(elem {off} {refs})".rstrip() + "")
        if m.memory is not None:
            mem = m.memory
            lim = f"{mem.min}" + (f" {mem.max}" if mem.max is not None else "")
            sec = " secret" if mem.sec is Secrecy.SECRET else ""
            self.emit(1, f"(memory{self._inline(mem.exports, mem.imported)} {lim}{sec})")
        for seg in m.data:
            off = self._expr_inline(seg.offset)
            self.emit(1, f'(data {off} "{_escape_bytes(seg.data)}")')
        for g in m.globals:
            gt = f"(mut {g.type.name})" if g.mutable else g.type.name
            head = f"(global{self._inline(g.exports, g.imported)} {gt}"
            if g.init is not None:
                head += f" {self._expr_inline(g.init)}"
            self.emit(1, head + ")")
        self.emit(0, ")")
        return "\n".join(self.lines) + "\n"

    def _expr_inline(self, instrs: tuple[Instr, ...]) -> str:
        parts = []
        for ins in instrs:
            sub = _Printer()
            sub.instrs((ins,), 0)
            parts.append("(" + " ".join(line.strip() for line in sub.lines) + ")")
        return " ".join(parts)


def _escape_bytes(data: bytes) -> str:
    out = []
    for b in data:
        if b in (0x22, 0x5C):
            out.append("\\" + chr(b))
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\{b:02x}")
    return "".join(out)


def print_module(m: Module) -> str:
    """Canonical text for a module; parse_module(print_module(m)) == m."""
    return _Printer().module(m)
