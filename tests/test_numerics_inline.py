"""Integer ops that compiled blocks inline from ``numerics``' expressions.

Each templated op runs as a one-op exported function on edge operands,
given as parameters and as literals, and must give the result of an
independent reading of Wasm's integer semantics (bit strings and signed
values), the result of the ``numerics`` function built from the same
expression, and the trace and step count of its flat code.  The hot ops
of SHA-256 must be inlined, not called.

Compiled blocks leave a wrapped value unmasked until something reads its
high bits.  Chains of a low-bit op and each such reader, in one block,
must give the independent reading's results and the outcomes of the
stepping oracle (``stepping.invoke``), and a long chain must still be masked once per bound.
"""

import re
import struct

import pytest

import compiled_sources
import stepping
from ctwasm import flat, interp, numerics, text, validate
from ctwasm.interp import Store, Value
from ctwasm.ast import VALTYPES_BY_NAME

CONVERTS = {("i32", "i64", None): "i32.wrap_i64",
            ("i64", "i32", "u"): "i64.extend_i32_u",
            ("i64", "i32", "s"): "i64.extend_i32_s"}


def _templated():
    """(mnemonic, name, operand type, result type, arity, function) of
    every op with an expression."""
    out = []
    for table, relation in ((numerics.BINOP_FNS, "bin"),
                            (numerics.RELOP_FNS, "rel"),
                            (numerics.UNOP_FNS, "un"),
                            (numerics.TESTOP_FNS, "test")):
        for (t, name), fn in table.items():
            if fn in numerics.EXPRS:
                result = "i32" if relation in ("rel", "test") else t
                arity = 2 if relation in ("bin", "rel") else 1
                out.append((f"{t}.{name}", name, t, result, arity, fn))
    for key, fn in numerics.CONVERT_FNS.items():
        if fn in numerics.EXPRS:
            mnemonic = CONVERTS[key]
            out.append((mnemonic, mnemonic.split(".")[1], key[1], key[0], 1, fn))
    return out


TEMPLATED = _templated()


def test_every_cheap_integer_op_has_an_expression():
    names = {m for m, *_ in TEMPLATED}
    for t in ("i32", "i64"):
        for op in ("add sub mul and or xor shl shr_u shr_s rotl rotr "
                   "eq ne lt_s lt_u gt_s gt_u le_s le_u ge_s ge_u "
                   "eqz clz ctz popcnt").split():
            assert f"{t}.{op}" in names
        for op in ("div_s", "div_u", "rem_s", "rem_u"):
            assert numerics.BINOP_FNS[t, op] not in numerics.EXPRS
    assert set(CONVERTS.values()) <= names
    assert not any(m.startswith("f") for m in names)


def _edges(bits):
    top, mask = 1 << (bits - 1), (1 << bits) - 1
    return sorted({0, 1, 2, 3, bits - 1, bits, bits + 1, 2 * bits - 1,
                   top - 1, top, top + 1, mask - 1, mask,
                   mask // 3, mask // 3 * 2})  # 0x55.. and 0xAA..


def _spec(name, bits, a, b=0):
    """Wasm's result for integer op ``name`` on ``bits``-wide operands,
    before it is cut to the result's width."""
    k = b % bits
    d = format(a, f"0{bits}b")

    def s(v):
        return v - (1 << bits) if v >> (bits - 1) else v

    value = {
        "add": lambda: a + b, "sub": lambda: a - b, "mul": lambda: a * b,
        "and": lambda: a & b, "or": lambda: a | b, "xor": lambda: a ^ b,
        "shl": lambda: int(d[k:] + "0" * k, 2),
        "shr_u": lambda: int("0" * k + d[:bits - k], 2),
        "shr_s": lambda: int(d[0] * k + d[:bits - k], 2),
        "rotl": lambda: int(d[k:] + d[:k], 2),
        "rotr": lambda: int(d[bits - k:] + d[:bits - k], 2),
        "eq": lambda: a == b, "ne": lambda: a != b,
        "lt_u": lambda: a < b, "gt_u": lambda: a > b,
        "le_u": lambda: a <= b, "ge_u": lambda: a >= b,
        "lt_s": lambda: s(a) < s(b), "gt_s": lambda: s(a) > s(b),
        "le_s": lambda: s(a) <= s(b), "ge_s": lambda: s(a) >= s(b),
        "eqz": lambda: a == 0,
        "clz": lambda: len(d) - len(d.lstrip("0")),
        "ctz": lambda: len(d) - len(d.rstrip("0")),
        "popcnt": lambda: d.count("1"),
        "wrap_i64": lambda: int(d[32:], 2),
        "extend_i32_u": lambda: a,
        "extend_i32_s": lambda: int(d[0] * 32 + d, 2),
    }[name]()
    return int(value)


def _func(i, mnemonic, t, result, srcs):
    """An export ``f{i}`` applying the op to ``srcs``, each ("param",
    bits), passed at the call, or ("const", bits), a literal."""
    args, n = [], 0
    for kind, v in srcs:
        if kind == "param":
            args.append(f"(local.get {n})")
            n += 1
        else:
            args.append(f"({t}.const {v})")
    return (f'(func (export "f{i}") (param{f" {t}" * n}) '
            f'(result {result}) ({mnemonic} {" ".join(args)}))')


@pytest.mark.parametrize("mnemonic,name,t,result,arity,fn", TEMPLATED,
                         ids=[c[0] for c in TEMPLATED])
def test_inlined_op_on_edge_operands(mnemonic, name, t, result, arity, fn):
    """Each form's result is the spec's and the numerics function's, and
    its trace and steps are those of its flat code."""
    ty, mask = VALTYPES_BY_NAME[t], (1 << VALTYPES_BY_NAME[result].bits) - 1
    edges = _edges(ty.bits)
    if arity == 1:
        forms = [[(kind, a)] for a in edges for kind in ("param", "const")]
    else:
        forms = [[("param", a), ("param", b)] for a in edges for b in edges]
        few = edges[::3] + [edges[-1]]
        forms += [[(ka, a), (kb, b)] for a in few for b in few
                  for ka, kb in (("const", "const"), ("const", "param"),
                                 ("param", "const"))]
    tm = validate.validate_module(text.parse_module("(module " + "\n".join(
        _func(i, mnemonic, t, result, srcs) for i, srcs in enumerate(forms))
        + ")"))
    store, idx = interp.instantiate(Store(), tm)
    for i, srcs in enumerate(forms):
        operands = [v for _, v in srcs]
        want = _spec(name, ty.bits, *operands) & mask
        assert fn(*operands) == want, (mnemonic, operands)
        out = interp.invoke(store, idx, f"f{i}", [
            Value(ty, v) for kind, v in srcs if kind == "param"])
        assert (out.status, [r.bits for r in out.results]) == ("done", [want]), \
            (mnemonic, srcs)
        code = tm.funcs[i].code
        assert out.trace == [op[1] for op in code]
        assert out.steps == len(code)


def test_sha256_blocks_inline_their_integer_ops(typed_corpus):
    entry, tm = typed_corpus["sha256"]
    for vec in entry.vectors:
        store, idx = interp.instantiate(Store(), tm)
        interp.write_image(store, idx, vec.memory_in)
        assert interp.invoke(store, idx, vec.invoke, vec.args).status == "done"
    templated = {id(fn) for fn in numerics.EXPRS}
    hot = [op for ff in tm.funcs for op in ff.code if id(op[-1]) in templated]
    assert len(hot) > 100
    blocks = [fn for ff in tm.funcs if ff.compiled is not None
              for fn in ff.compiled.blocks if fn is not None]
    assert blocks
    for fn in blocks:
        for cell in fn.__closure__ or ():
            assert id(cell.cell_contents) not in templated


# -- chains: a low-bit op, then a reader of its high bits, in one block

LOW_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl")


def _s(v, bits):
    return v - (1 << bits) if v >> (bits - 1) else v


def _f64(v):
    return struct.unpack("<Q", struct.pack("<d", float(v)))[0]


def _rem_s(v, d, bits):
    r = abs(_s(v, bits)) % d
    return (-r if _s(v, bits) < 0 else r) & ((1 << bits) - 1)


def _observers(t, bits):
    """(name, body, result type, expected) of each reader of the chain's
    value X: the expected outcome of x, X's exact value, and the
    function's arguments a and b, as ("done", result) or ("trap", kind).
    C is X as an i32, wrapped from an i64."""
    m, top = (1 << bits) - 1, 1 << (bits - 1)
    f = "f32" if bits == 32 else "f64"
    C = "X" if bits == 32 else "(i32.wrap_i64 X)"

    def c(x):
        return x & 0xFFFFFFFF

    def done(fn):
        return lambda x, a, b: ("done", fn(x, a, b))

    def trap_unless(ok, fn, kind):
        return lambda x, a, b: ("done", fn(x)) if ok(c(x)) else ("trap", kind)

    oob = "out of bounds memory access"
    obs = [
        ("local.set", "(local.set 2 X) (local.get 2)", t,
         done(lambda x, a, b: x)),
        ("local.tee", "(local.tee 2 X)", t, done(lambda x, a, b: x)),
        ("global.set", "(global.set 0 X) (global.get 0)", t,
         done(lambda x, a, b: x)),
        ("if", f"(if (result i32) {C} (then (i32.const 1)) "
         "(else (i32.const 0)))", "i32", done(lambda x, a, b: int(c(x) != 0))),
        ("br_if", f"(block (result i32) (drop (br_if 0 (i32.const 1) {C})) "
         "(i32.const 0))", "i32", done(lambda x, a, b: int(c(x) != 0))),
        ("br_table", f"(block (block (block (br_table 0 1 2 {C})) "
         "(return (i32.const 10))) (return (i32.const 11))) (i32.const 12)",
         "i32", done(lambda x, a, b: {0: 10, 1: 11}.get(c(x), 12))),
        ("select", f"(select (i32.const 7) (i32.const 9) {C})", "i32",
         done(lambda x, a, b: 7 if c(x) else 9)),
        ("select-value", "(select X (local.get 1) (i32.const 1))", t,
         done(lambda x, a, b: x)),
        ("call_indirect", f"(call_indirect (result i32) {C})", "i32",
         trap_unless(lambda i: i < 2, lambda x: 100 + c(x),
                     "undefined element")),
        ("load", f"(i32.load8_u {C})", "i32",
         trap_unless(lambda i: i < 65536, lambda x: 0, oob)),
        ("store-address", f"(i32.store8 {C} (i32.const 5)) (i32.const 1)",
         "i32", trap_unless(lambda i: i < 65536, lambda x: 1, oob)),
        ("memory.grow", f"(memory.grow {C})", "i32",
         done(lambda x, a, b: 1 if c(x) <= 3 else 0xFFFFFFFF)),
        ("eq", f"({t}.eq X (local.get 0))", "i32",
         done(lambda x, a, b: int(x == a))),
        ("lt_s", f"({t}.lt_s X (local.get 1))", "i32",
         done(lambda x, a, b: int(_s(x, bits) < _s(b, bits)))),
        ("gt_u", f"({t}.gt_u X (local.get 1))", "i32",
         done(lambda x, a, b: int(x > b))),
        ("eqz", f"({t}.eqz X)", "i32", done(lambda x, a, b: int(x == 0))),
        ("div_u", f"({t}.div_u X ({t}.const 3))", t,
         done(lambda x, a, b: x // 3)),
        ("rem_s", f"({t}.rem_s X ({t}.const 7))", t,
         done(lambda x, a, b: _rem_s(x, 7, bits))),
        ("convert_u", f"(i64.reinterpret_f64 (f64.convert_{t}_u X))", "i64",
         done(lambda x, a, b: _f64(x))),
        ("convert_s", f"(i64.reinterpret_f64 (f64.convert_{t}_s X))", "i64",
         done(lambda x, a, b: _f64(_s(x, bits)))),
        ("reinterpret", f"({f}.neg ({f}.reinterpret_{t} X))", f,
         done(lambda x, a, b: x ^ top)),
        ("call", "(call 2 X)", t, done(lambda x, a, b: x)),
        ("return", "(return X)", t, done(lambda x, a, b: x)),
        ("br", f"(block (result {t}) (br 0 X))", t, done(lambda x, a, b: x)),
        ("br_if-spill", f"(block (result {t}) (br_if 0 X (i32.const 1)))", t,
         done(lambda x, a, b: x)),
        ("block-end", "X (if (i32.const 0) (then))", t,
         done(lambda x, a, b: x)),
        ("call-spill", "X (call 3)", t, done(lambda x, a, b: x)),
    ]
    for name in ("clz", "ctz", "popcnt"):
        obs.append((name, f"({t}.{name} X)", t,
                    done(lambda x, a, b, name=name: _spec(name, bits, x))))
    for name in ("shr_u", "shr_s", "rotl", "rotr"):
        obs.append((name, f"({t}.{name} X (local.get 1))", t,
                    done(lambda x, a, b, name=name:
                         _spec(name, bits, x, b) & m)))
    for name in ("shl", "rotr"):  # X as the count
        obs.append((f"{name}-count", f"({t}.{name} (local.get 0) X)", t,
                    done(lambda x, a, b, name=name:
                         _spec(name, bits, a, x) & m)))
    for width in (8, 16, 32)[:2 if bits == 32 else 3]:
        obs.append((f"store{width}", f"({t}.store{width} (i32.const 8) X) "
                    f"({t}.load{width}_u (i32.const 8))", t,
                    done(lambda x, a, b, w=width: x & ((1 << w) - 1))))
    obs.append(("store", f"({t}.store (i32.const 8) X) "
                f"({t}.load (i32.const 8))", t, done(lambda x, a, b: x)))
    if bits == 32:
        obs += [("extend_u", "(i64.extend_i32_u X)", "i64",
                 done(lambda x, a, b: x)),
                ("extend_s", "(i64.extend_i32_s X)", "i64",
                 done(lambda x, a, b: _s(x, 32) & (1 << 64) - 1))]
    else:
        obs.append(("wrap", "(i32.wrap_i64 X)", "i32",
                    done(lambda x, a, b: x & 0xFFFFFFFF)))
    return obs


def _chain_module(t, op, observers):
    x = f"({t}.{op} (local.get 0) (local.get 1))"
    funcs = "\n".join(
        f'  (func (export "{name}") (param {t} {t}) (result {result}) '
        f'(local {t}) {body.replace("X", x)})'
        for name, body, result, _ in observers)
    return validate.validate_module(text.parse_module(f"""(module
  (memory 1 4)
  (global (mut {t}) ({t}.const 0))
  (table 2 funcref)
  (elem (i32.const 0) 0 1)
  (func (result i32) (i32.const 100))
  (func (result i32) (i32.const 101))
  (func (param {t}) (result {t}) (local.get 0))
  (func)
{funcs})"""))


def _outcome(tm, export, args, debug):
    store, idx = interp.instantiate(Store(), tm)
    out = (stepping.invoke if debug else interp.invoke)(store, idx, export,
                                                        args)
    return (out.status, [r.bits for r in out.results], out.trap_kind,
            out.trace, out.steps, [bytes(m.data) for m in store.mems],
            [g.bits for g in store.globals])


@pytest.mark.parametrize("t", ("i32", "i64"))
@pytest.mark.parametrize("op", LOW_OPS)
def test_every_reader_of_high_bits_sees_the_exact_value(t, op):
    """In one block a low-bit op's value reaches each reader of its high
    bits (an action or record, an address, a condition or index, a relop,
    a shifted operand, a div or rem, a conversion, a local, a global, a
    store, ``memory.grow`` or a spill), which must see it as if it were
    exact, on the edge operands: the result is the independent reading's
    and every outcome the stepping oracle's, which spills each op's
    value."""
    ty = VALTYPES_BY_NAME[t]
    bits, mask = ty.bits, (1 << ty.bits) - 1
    observers = _observers(t, bits)
    tm = _chain_module(t, op, observers)
    edges = _edges(bits)
    few = edges[::3] + [edges[-1]]
    pairs = [(a, b) for a in edges for b in few]
    if op == "sub":
        assert any(a < b for a, b in pairs)  # a negative difference
    for a, b in pairs:
        x = _spec(op, bits, a, b) & mask
        args = [Value(ty, a), Value(ty, b)]
        for name, _, _, expected in observers:
            got = _outcome(tm, name, args, False)
            status, value = expected(x, a, b)
            want = (status, [value] if status == "done" else [],
                    value if status == "trap" else None)
            assert got[:3] == want, (name, a, b)
            assert got == _outcome(tm, name, args, True), (name, a, b)


@pytest.mark.parametrize("t,op", (("i64", "mul"), ("i32", "shl")))
def test_a_long_chain_is_masked_at_least_once_per_bound(t, op):
    """A counted loop whose turn chains 60 ``op``s compiles to one
    function.  A value is left unmasked only while its bound is at most
    twice its width: a mul by a 64-bit value adds 64 bits to it, and a
    shl by up to 31 adds 31 bits to a 32-bit one, so the source masks at
    least every second op.  The results are exact."""
    ty = VALTYPES_BY_NAME[t]
    bits, mask = ty.bits, (1 << ty.bits) - 1
    chain = "(local.get 0)"
    for _ in range(60):
        chain = f"({t}.{op} {chain} (local.get 1))"
    tm = validate.validate_module(text.parse_module(f"""(module
  (func (export "f") (param {t} {t}) (result {t}) (local i32)
    (local.set 2 (i32.const 2))
    (block (loop
      (br_if 1 (i32.eqz (local.get 2)))
      (local.set 0 {chain})
      (local.set 2 (i32.sub (local.get 2) (i32.const 1)))
      (br 0)))
    (local.get 0)))"""))
    ff = tm.funcs[0]
    pc = next(pc for pc, o in enumerate(ff.code) if o[0] == flat.T_LOOP)
    assert interp._Code(tuple(ff.code)).iters[pc] > 120
    src = compiled_sources.source(ff, pc)
    assert src.count(f"& {mask}") >= 30, src
    edges = _edges(bits)
    for a in edges:
        for b in edges[::3] + [edges[-1]]:
            x = a
            for _ in range(120):
                x = _spec(op, bits, x, b) & mask
            args = [Value(ty, a), Value(ty, b)]
            got = _outcome(tm, "f", args, False)
            assert got[:3] == ("done", [x], None), (a, b)
            assert got == _outcome(tm, "f", args, True), (a, b)


def test_a_value_read_by_many_exact_readers_is_masked_once():
    """A sum read loosely first, so that its line cannot mask it, and then
    by two ``local.set``s and a store is masked in one temp, which the
    first ``local.set`` takes over and the others reuse."""
    add = "(i32.add (local.get 0) (local.get 1))"
    tm = validate.validate_module(text.parse_module(f"""(module (memory 1)
  (func (export "f") (param i32 i32) (result i32) (local i32 i32)
    (local.set 2 (i32.xor {add} (i32.const 5)))
    (local.set 3 {add})
    (i32.store (i32.const 0) {add})
    (i32.add (local.get 2) (local.get 3))))"""))
    src = compiled_sources.source(tm.funcs[0], 0)
    masked = re.findall(r"\b(\w+) & 4294967295", src)
    assert len(masked) == len(set(masked)) == 1, src
    for a, b in ((0xFFFFFFFF, 1), (7, 9), (0x80000000, 0x80000000)):
        args = [Value(VALTYPES_BY_NAME["i32"], v) for v in (a, b)]
        got = _outcome(tm, "f", args, False)
        x = (a + b) & 0xFFFFFFFF
        assert got[:3] == ("done", [((x ^ 5) + x) & 0xFFFFFFFF], None)
        assert got == _outcome(tm, "f", args, True)
