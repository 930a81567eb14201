"""Bit-exact numeric semantics for every operator.

All values are raw bit patterns (unsigned Python ints of the type's
width); each function maps operand bits to result bits.  Integer
arithmetic wraps two's-complement; div/rem trap on zero and on the
INT_MIN/-1 overflow.  Float arithmetic follows IEEE-754 with results
canonicalized to a single quiet NaN so execution stays deterministic
(f32 is computed in double precision and rounded on repack, which can
double-round in rare cases; floats are always public so this has no
security relevance).
"""

from __future__ import annotations

import ast as pyast
import functools
import math
import operator
import struct
from typing import NamedTuple


class Trap(Exception):
    """Raised mid-instruction; the interpreter turns it into a trap state."""

    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(kind)


M32 = 0xFFFFFFFF
CANON_NAN32 = 0x7FC00000
CANON_NAN64 = 0x7FF8000000000000


def signed(v: int, bits: int) -> int:
    return v - (1 << bits) if v >= (1 << (bits - 1)) else v


def unsigned(v: int, bits: int) -> int:
    return v & ((1 << bits) - 1)


def f32_from_bits(b: int) -> float:
    return struct.unpack("<f", struct.pack("<I", b))[0]


def f32_to_bits(v: float) -> int:
    try:
        b = struct.unpack("<I", struct.pack("<f", v))[0]
    except OverflowError:
        b = 0x7F800000 if v > 0 else 0xFF800000
    if (b & 0x7F800000) == 0x7F800000 and (b & 0x007FFFFF):
        return CANON_NAN32
    return b


def f64_from_bits(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


def f64_to_bits(v: float) -> int:
    b = struct.unpack("<Q", struct.pack("<d", v))[0]
    if (b & 0x7FF0000000000000) == 0x7FF0000000000000 and (b & 0xFFFFFFFFFFFFF):
        return CANON_NAN64
    return b


# The integer ops cheap enough to inline, each stated once by three
# facts.  The first is its expression over its operands {a} and {b}, its
# width {bits} and its sign bit {top}, without a final mask; a signed
# operand is read as ({a} ^ {top}) - {top}, which orders and shifts as
# signed(a, bits) does.  The second is whether it wraps: whether, on
# operands in their width, its value may leave the result's, which a final
# & cuts it back to.  The third names the operands of which it reads only
# the low {bits} bits, so that an operand congruent mod 2 ** bits gives a
# result congruent to the right one: every operand of add, sub, mul, shl,
# and, or and xor (in two's complement, on negative ints too), and a
# shift's or rotate's count, which is read mod {bits}, a divisor of
# 2 ** bits.  A bare expression neither wraps nor reads only low bits.
# The function a table hands out is built from the facts at import, and
# EXPRS maps it back to them as an Inline, which compiled blocks inline
# in place of the call.
_INT_BINOP_EXPRS = {
    "add": ("{a} + {b}", True, "ab"),
    "sub": ("{a} - {b}", True, "ab"),
    "mul": ("{a} * {b}", True, "ab"),
    "and": ("{a} & {b}", False, "ab"),
    "or": ("{a} | {b}", False, "ab"),
    "xor": ("{a} ^ {b}", False, "ab"),
    "shl": ("{a} << ({b} % {bits})", True, "ab"),
    "shr_u": ("{a} >> ({b} % {bits})", False, "b"),
    "shr_s": ("(({a} ^ {top}) - {top}) >> ({b} % {bits})", True, "b"),
    "rotl": ("({a} << ({b} % {bits})) | ({a} >> ({bits} - {b} % {bits}))",
             True, "b"),
    "rotr": ("({a} >> ({b} % {bits})) | ({a} << ({bits} - {b} % {bits}))",
             True, "b"),
}

_INT_RELOP_EXPRS = {
    "eq": "1 if {a} == {b} else 0",
    "ne": "1 if {a} != {b} else 0",
    "lt_s": "1 if ({a} ^ {top}) < ({b} ^ {top}) else 0",
    "lt_u": "1 if {a} < {b} else 0",
    "gt_s": "1 if ({a} ^ {top}) > ({b} ^ {top}) else 0",
    "gt_u": "1 if {a} > {b} else 0",
    "le_s": "1 if ({a} ^ {top}) <= ({b} ^ {top}) else 0",
    "le_u": "1 if {a} <= {b} else 0",
    "ge_s": "1 if ({a} ^ {top}) >= ({b} ^ {top}) else 0",
    "ge_u": "1 if {a} >= {b} else 0",
}

_INT_UNOP_EXPRS = {
    "clz": "{bits} - ({a}).bit_length()",
    "ctz": "({a} & -{a}).bit_length() - 1 if {a} else {bits}",
    "popcnt": "({a}).bit_count()",
}


class Inline(NamedTuple):
    """An inlined op's facts, its widths filled in: ``text``, over {a}
    and {b}; ``bits``, the operands' width; ``mask``, the result's, which
    cuts ``text`` when it ``wraps``; and ``low``, the operands ("a", "b")
    of which it reads only the low ``bits`` bits."""

    text: str
    bits: int
    mask: int
    wraps: bool
    low: str


EXPRS: dict = {}  # function -> its Inline
TRAPPING: set = set()  # the functions that may raise Trap: div, rem, trunc


def _from_exprs(exprs: dict, bits: int, result: int | None = None) -> dict:
    """The function of each op in ``exprs``, on ``bits``-wide operands
    with a ``result``-wide result (by default ``bits``), recorded in
    EXPRS."""
    mask = (1 << (result or bits)) - 1
    fns = {}
    for key, facts in exprs.items():
        text, wraps, low = (facts, False, "") if isinstance(facts, str) \
            else facts
        text = text.format(a="{a}", b="{b}", bits=bits, top=1 << (bits - 1))
        params = "a, b" if "{b}" in text else "a"
        body = text.format(a="a", b="b")
        fn = fns[key] = eval(f"lambda {params}: "
                             + (f"({body}) & {mask}" if wraps else body))
        EXPRS[fn] = Inline(text, bits, mask, wraps, low)
    return fns


def span(inline: Inline, spans: dict) -> tuple[int, int]:
    """The least and greatest value of ``inline``'s text, unmasked, when
    each operand lies in its (least, greatest) pair of ``spans``."""
    return _span(_tree(inline.text), spans)


@functools.lru_cache(maxsize=None)  # one per inlined op's text
def _tree(text: str):
    return pyast.parse(text.format(a="a", b="b"), mode="eval").body


# the operators monotonic in each operand, so extreme at two ends
_ENDS = {pyast.Mult: operator.mul, pyast.LShift: operator.lshift,
         pyast.RShift: operator.rshift}


def _span(node, spans: dict) -> tuple[int, int]:
    if isinstance(node, pyast.Constant):
        return node.value, node.value
    if isinstance(node, pyast.Name):
        return spans[node.id]
    (lo1, hi1), (lo2, hi2) = _span(node.left, spans), _span(node.right, spans)
    op = type(node.op)
    if op is pyast.Add:
        return lo1 + lo2, hi1 + hi2
    if op is pyast.Sub:
        return lo1 - hi2, hi1 - lo2
    if op is pyast.Mod:  # by a width, a constant
        if lo1 == hi1:
            return lo1 % lo2, lo1 % lo2
        return 0, lo2 - 1
    if op in _ENDS:  # a shift count is never negative
        ends = [_ENDS[op](x, y) for x in (lo1, hi1) for y in (lo2, hi2)]
        return min(ends), max(ends)
    if op is pyast.BitAnd and (lo1 >= 0 or lo2 >= 0):
        return 0, min(hi for lo, hi in ((lo1, hi1), (lo2, hi2)) if lo >= 0)
    # &, | or ^ in two's complement: no longer than the longer operand
    n = max(v.bit_length() for v in (lo1, hi1, lo2, hi2))
    return (0 if lo1 >= 0 and lo2 >= 0 else -1 << n), (1 << n) - 1


def _int_binops(bits: int):
    top = 1 << (bits - 1)

    def div_s(a, b):
        sa, sb = signed(a, bits), signed(b, bits)
        if sb == 0:
            raise Trap("integer divide by zero")
        if sa == -top and sb == -1:
            raise Trap("integer overflow")
        q = abs(sa) // abs(sb)
        return unsigned(q if (sa < 0) == (sb < 0) else -q, bits)

    def div_u(a, b):
        if b == 0:
            raise Trap("integer divide by zero")
        return a // b

    def rem_s(a, b):
        sa, sb = signed(a, bits), signed(b, bits)
        if sb == 0:
            raise Trap("integer divide by zero")
        r = abs(sa) % abs(sb)
        return unsigned(-r if sa < 0 else r, bits)

    def rem_u(a, b):
        if b == 0:
            raise Trap("integer divide by zero")
        return a % b

    TRAPPING.update((div_s, div_u, rem_s, rem_u))
    return _from_exprs(_INT_BINOP_EXPRS, bits) | {
        "div_s": div_s, "div_u": div_u, "rem_s": rem_s, "rem_u": rem_u}


def _float_binops(width: int):
    unpack = f32_from_bits if width == 32 else f64_from_bits
    pack = f32_to_bits if width == 32 else f64_to_bits
    canon = CANON_NAN32 if width == 32 else CANON_NAN64
    sign_bit = 1 << (width - 1)
    exp_mask = 0x7F800000 if width == 32 else 0x7FF0000000000000
    frac_mask = (sign_bit - 1) ^ exp_mask

    def is_nan(b):
        return (b & exp_mask) == exp_mask and (b & frac_mask)

    def arith(f):
        def run(a, b):
            if is_nan(a) or is_nan(b):
                return canon
            x, y = unpack(a), unpack(b)
            try:
                return pack(f(x, y))
            except ZeroDivisionError:
                if x == 0:
                    return canon
                return (sign_bit & (a ^ b)) | exp_mask  # signed infinity
            except OverflowError:
                return (sign_bit & (a ^ b)) | exp_mask
        return run

    def fmin(a, b):
        if is_nan(a) or is_nan(b):
            return canon
        x, y = unpack(a), unpack(b)
        if x == y == 0:
            return a | b  # -0 wins
        return a if x < y else b

    def fmax(a, b):
        if is_nan(a) or is_nan(b):
            return canon
        x, y = unpack(a), unpack(b)
        if x == y == 0:
            return a & b  # +0 wins
        return a if x > y else b

    return {
        "add": arith(lambda x, y: x + y),
        "sub": arith(lambda x, y: x - y),
        "mul": arith(lambda x, y: x * y),
        "div": arith(lambda x, y: x / y),
        "min": fmin,
        "max": fmax,
        "copysign": lambda a, b: (a & ~sign_bit & ((1 << width) - 1)) | (b & sign_bit),
    }


def _float_unops(width: int):
    unpack = f32_from_bits if width == 32 else f64_from_bits
    pack = f32_to_bits if width == 32 else f64_to_bits
    canon = CANON_NAN32 if width == 32 else CANON_NAN64
    sign_bit = 1 << (width - 1)
    mask = (1 << width) - 1

    def lift(f):
        """A rounding op: infinities are their own result, and a zero
        result keeps the operand's sign (ceil(-0.5) is -0)."""
        def run(a):
            x = unpack(a)
            if x != x:
                return canon
            return a if math.isinf(x) else pack(math.copysign(f(x), x))
        return run

    def sqrt(a):
        x = unpack(a)
        if x != x or x < 0:
            return canon if x != 0 else a  # sqrt(-0) = -0
        return pack(math.sqrt(x))

    return {
        "neg": lambda a: a ^ sign_bit,
        "abs": lambda a: a & ~sign_bit & mask,
        "ceil": lift(math.ceil),
        "floor": lift(math.floor),
        "trunc": lift(math.trunc),
        "nearest": lift(round),  # ties to even
        "sqrt": sqrt,
    }


def _float_relops(width: int):
    unpack = f32_from_bits if width == 32 else f64_from_bits

    def cmp(f):
        return lambda a, b: 1 if f(unpack(a), unpack(b)) else 0

    return {
        "eq": cmp(operator.eq), "ne": cmp(operator.ne),
        "lt": cmp(operator.lt), "gt": cmp(operator.gt),
        "le": cmp(operator.le), "ge": cmp(operator.ge),
    }


BINOP_FNS = {
    ("i32", op): fn for op, fn in _int_binops(32).items()
} | {
    ("i64", op): fn for op, fn in _int_binops(64).items()
} | {
    ("f32", op): fn for op, fn in _float_binops(32).items()
} | {
    ("f64", op): fn for op, fn in _float_binops(64).items()
}

UNOP_FNS = {
    ("i32", op): fn for op, fn in _from_exprs(_INT_UNOP_EXPRS, 32).items()
} | {
    ("i64", op): fn for op, fn in _from_exprs(_INT_UNOP_EXPRS, 64).items()
} | {
    ("f32", op): fn for op, fn in _float_unops(32).items()
} | {
    ("f64", op): fn for op, fn in _float_unops(64).items()
}

RELOP_FNS = {
    ("i32", op): fn for op, fn in _from_exprs(_INT_RELOP_EXPRS, 32, 32).items()
} | {
    ("i64", op): fn for op, fn in _from_exprs(_INT_RELOP_EXPRS, 64, 32).items()
} | {
    ("f32", op): fn for op, fn in _float_relops(32).items()
} | {
    ("f64", op): fn for op, fn in _float_relops(64).items()
}

TESTOP_FNS = {
    (f"i{bits}", "eqz"):
    _from_exprs({"eqz": "1 if {a} == 0 else 0"}, bits, 32)["eqz"]
    for bits in (32, 64)
}


def _trunc_to_int(v: float, lo: int, hi: int) -> int:
    if v != v:
        raise Trap("invalid conversion to integer")
    if math.isinf(v):
        raise Trap("integer overflow")
    t = math.trunc(v)
    if not lo <= t <= hi:
        raise Trap("integer overflow")
    return t


def _convert_table() -> dict:
    fns: dict[tuple, object] = _from_exprs({
        ("i32", "i64", None): ("{a}", True, "a"),  # wrap
    }, 64, 32) | _from_exprs({
        ("i64", "i32", "s"): ("({a} ^ {top}) - {top}", True, ""),
        ("i64", "i32", "u"): "{a}",
    }, 32, 64)
    for iw, lo, hi in ((32, -(1 << 31), (1 << 31) - 1), (64, -(1 << 63), (1 << 63) - 1)):
        ulo, uhi = 0, (1 << iw) - 1
        for fw in (32, 64):
            unpack = f32_from_bits if fw == 32 else f64_from_bits
            trunc_s = fns[(f"i{iw}", f"f{fw}", "s")] = (
                lambda a, u=unpack, l=lo, h=hi, w=iw:
                unsigned(_trunc_to_int(u(a), l, h), w))
            trunc_u = fns[(f"i{iw}", f"f{fw}", "u")] = (
                lambda a, u=unpack, l=ulo, h=uhi: _trunc_to_int(u(a), l, h))
            TRAPPING.update((trunc_s, trunc_u))
    for fw in (32, 64):
        pack = f32_to_bits if fw == 32 else f64_to_bits
        for iw in (32, 64):
            fns[(f"f{fw}", f"i{iw}", "s")] = (
                lambda a, p=pack, w=iw: p(float(signed(a, w))))
            fns[(f"f{fw}", f"i{iw}", "u")] = lambda a, p=pack: p(float(a))
    fns[("f32", "f64", None)] = lambda a: f32_to_bits(f64_from_bits(a))
    fns[("f64", "f32", None)] = lambda a: f64_to_bits(f32_from_bits(a))
    return fns


CONVERT_FNS = _convert_table()
