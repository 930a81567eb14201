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

import math
import struct


class Trap(Exception):
    """Raised mid-instruction; the interpreter turns it into a trap state."""

    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(kind)


M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
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


def _int_binops(bits: int):
    mask = (1 << bits) - 1
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

    return {
        "add": lambda a, b: (a + b) & mask,
        "sub": lambda a, b: (a - b) & mask,
        "mul": lambda a, b: (a * b) & mask,
        "div_s": div_s,
        "div_u": div_u,
        "rem_s": rem_s,
        "rem_u": rem_u,
        "and": lambda a, b: a & b,
        "or": lambda a, b: a | b,
        "xor": lambda a, b: a ^ b,
        "shl": lambda a, b: (a << (b % bits)) & mask,
        "shr_u": lambda a, b: a >> (b % bits),
        "shr_s": lambda a, b: (signed(a, bits) >> (b % bits)) & mask,
        "rotl": lambda a, b: ((a << (b % bits)) | (a >> (bits - b % bits))) & mask
        if b % bits else a,
        "rotr": lambda a, b: ((a >> (b % bits)) | (a << (bits - b % bits))) & mask
        if b % bits else a,
    }


def _int_unops(bits: int):
    def clz(a):
        return bits - a.bit_length()

    def ctz(a):
        return (a & -a).bit_length() - 1 if a else bits

    return {
        "clz": clz,
        "ctz": ctz,
        "popcnt": lambda a: bin(a).count("1"),
    }


def _int_relops(bits: int):
    def s(f):
        return lambda a, b: 1 if f(signed(a, bits), signed(b, bits)) else 0

    def u(f):
        return lambda a, b: 1 if f(a, b) else 0

    import operator as op
    return {
        "eq": u(op.eq), "ne": u(op.ne),
        "lt_s": s(op.lt), "lt_u": u(op.lt),
        "gt_s": s(op.gt), "gt_u": u(op.gt),
        "le_s": s(op.le), "le_u": u(op.le),
        "ge_s": s(op.ge), "ge_u": u(op.ge),
    }


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

    import operator as op
    return {
        "eq": cmp(op.eq), "ne": cmp(op.ne),
        "lt": cmp(op.lt), "gt": cmp(op.gt),
        "le": cmp(op.le), "ge": cmp(op.ge),
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
    ("i32", op): fn for op, fn in _int_unops(32).items()
} | {
    ("i64", op): fn for op, fn in _int_unops(64).items()
} | {
    ("f32", op): fn for op, fn in _float_unops(32).items()
} | {
    ("f64", op): fn for op, fn in _float_unops(64).items()
}

RELOP_FNS = {
    ("i32", op): fn for op, fn in _int_relops(32).items()
} | {
    ("i64", op): fn for op, fn in _int_relops(64).items()
} | {
    ("f32", op): fn for op, fn in _float_relops(32).items()
} | {
    ("f64", op): fn for op, fn in _float_relops(64).items()
}

TESTOP_FNS = {
    ("i32", "eqz"): lambda a: 1 if a == 0 else 0,
    ("i64", "eqz"): lambda a: 1 if a == 0 else 0,
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
    fns: dict[tuple, object] = {}
    fns[("i32", "i64", None)] = lambda a: a & M32  # wrap
    fns[("i64", "i32", "s")] = lambda a: unsigned(signed(a, 32), 64)
    fns[("i64", "i32", "u")] = lambda a: a
    for iw, lo, hi in ((32, -(1 << 31), (1 << 31) - 1), (64, -(1 << 63), (1 << 63) - 1)):
        ulo, uhi = 0, (1 << iw) - 1
        for fw in (32, 64):
            unpack = f32_from_bits if fw == 32 else f64_from_bits
            fns[(f"i{iw}", f"f{fw}", "s")] = (
                lambda a, u=unpack, l=lo, h=hi, w=iw:
                unsigned(_trunc_to_int(u(a), l, h), w))
            fns[(f"i{iw}", f"f{fw}", "u")] = (
                lambda a, u=unpack, l=ulo, h=uhi: _trunc_to_int(u(a), l, h))
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
