"""Integer ops that compiled blocks inline from ``numerics``' expressions.

Each templated op runs as a one-op exported function on edge operands,
given as parameters and as literals, and must give the result of an
independent reading of Wasm's integer semantics (bit strings and signed
values), the result of the ``numerics`` function built from the same
expression, and the trace and step count of its flat code.  The hot ops
of SHA-256 must be inlined, not called.
"""

import pytest

from ctwasm import interp, numerics, text, validate
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
