import itertools
import tracemalloc

import pytest

from ctwasm import ast
from ctwasm.ast import (
    F32, F64, I32, I64, S32, S64, Secrecy, Trust, ValType,
    classify_result, declassify_result, sec_of, trust_geq,
)


def test_sec_of_examples():
    assert sec_of(S32) is Secrecy.SECRET
    assert sec_of(F64) is Secrecy.PUBLIC
    assert sec_of(I64) is Secrecy.PUBLIC


def test_trust_geq_examples():
    assert trust_geq(Trust.TRUSTED, Trust.UNTRUSTED)
    assert not trust_geq(Trust.UNTRUSTED, Trust.TRUSTED)
    assert trust_geq(Trust.UNTRUSTED, Trust.UNTRUSTED)


def test_trust_is_a_partial_order_with_trusted_on_top():
    elems = (Trust.TRUSTED, Trust.UNTRUSTED)
    for a in elems:
        assert trust_geq(a, a)
    for a, b in itertools.product(elems, repeat=2):
        if trust_geq(a, b) and trust_geq(b, a):
            assert a is b
    for a, b, c in itertools.product(elems, repeat=3):
        if trust_geq(a, b) and trust_geq(b, c):
            assert trust_geq(a, c)
    assert all(trust_geq(Trust.TRUSTED, x) for x in elems)


def test_classify_result_examples():
    assert classify_result(I32) == S32
    assert classify_result(I64) == S64
    with pytest.raises(ValueError):
        classify_result(F32)
    with pytest.raises(ValueError):
        classify_result(S32)


def test_classify_always_yields_secret():
    for t in (I32, I64):
        assert sec_of(classify_result(t)) is Secrecy.SECRET
        assert declassify_result(classify_result(t)) == t


def test_floats_cannot_be_secret():
    with pytest.raises(ValueError):
        ValType(ast.Rep.F32, Secrecy.SECRET)
    with pytest.raises(ValueError):
        ValType(ast.Rep.F64, Secrecy.SECRET)


def test_valtype_equality_is_structural():
    assert ValType(ast.Rep.I32, Secrecy.SECRET) == S32
    assert S32 != I32
    assert I32 != I64


# Checked-in list: one variant per production of the instruction grammar.
EXPECTED_VARIANTS = [
    "Unreachable", "Nop", "Drop", "Select",
    "Block", "Loop", "If", "Br", "BrIf", "BrTable", "Return", "Call",
    "CallIndirect",
    "GetLocal", "SetLocal", "TeeLocal", "GetGlobal", "SetGlobal",
    "Load", "Store", "MemorySize", "MemoryGrow",
    "Const", "Unop", "Binop", "Testop", "Relop",
    "Convert", "Reinterpret", "Classify", "Declassify",
]


def test_instruction_grammar_coverage():
    names = [cls.__name__ for cls in ast.INSTRUCTION_VARIANTS]
    assert names == EXPECTED_VARIANTS
    assert len(set(names)) == len(names)


def test_operator_sets_respected():
    with pytest.raises(ValueError):
        ast.Testop(F32)  # testop only on integer types
    with pytest.raises(ValueError):
        ast.Binop(I32, "min")  # float-only binop
    with pytest.raises(ValueError):
        ast.Unop(F64, "clz")
    with pytest.raises(ValueError):
        ast.Classify(S32, I64)  # width mismatch
    with pytest.raises(ValueError):
        ast.Declassify(I32, I32)
    with pytest.raises(ValueError):
        ast.Const(I32, 1 << 32)
    # unsafe binops stay representable on secret types
    ast.Binop(S32, "div_u")
    ast.Binop(S64, "rem_s")


def test_result_arity_capped_at_one():
    with pytest.raises(ValueError):
        ast.FuncType(Trust.UNTRUSTED, (), (I32, I32))


def test_module_import_ordering_enforced():
    imported = ast.Func(ast.FuncType(Trust.UNTRUSTED, (), ()), (), (),
                        imported=("m", "f"))
    defined = ast.Func(ast.FuncType(Trust.UNTRUSTED, (), ()), (),
                       (ast.Nop(),))
    ast.Module(funcs=(imported, defined))
    with pytest.raises(ValueError):
        ast.Module(funcs=(defined, imported))


def test_publicize_instr():
    assert ast.publicize_instr(ast.Binop(S32, "add")) == ast.Binop(I32, "add")
    assert ast.publicize_instr(ast.Select(Secrecy.SECRET)) == ast.Select()
    assert ast.publicize_instr(ast.Const(S64, 5)) == ast.Const(I64, 5)
    ci = ast.CallIndirect(ast.FuncType(Trust.TRUSTED, (S32,), (S32,)))
    out = ast.publicize_instr(ci)
    assert out.type == ast.FuncType(Trust.UNTRUSTED, (I32,), (I32,))


def _bytes_each(make, n: int = 2000) -> float:
    """The memory that each of ``n`` results of ``make()`` holds."""
    tracemalloc.start()
    try:
        kept = [make() for _ in range(n)]
        return tracemalloc.get_traced_memory()[0] / len(kept)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mnemonic, changes, built", [
    ("i32.add", {}, lambda: ast.Binop(ast.I32, "add")),
    ("i64.load", {"offset": 8},
     lambda: ast.Load(ast.I64, None, None, 3, 8)),
], ids=["i32.add", "i64.load-offset"])
def test_a_fresh_instruction_is_as_compact_as_a_constructed_one(
        mnemonic, changes, built):
    """A copy that materialized an instance dict took about 64 bytes
    more than a constructed instruction (168 against 105 for i32.add)."""
    proto = ast.CATALOGUE[mnemonic]
    assert ast.fresh(proto, None, **changes) == built()
    fresh = _bytes_each(lambda: ast.fresh(proto, None, **changes))
    assert fresh <= _bytes_each(built) + 8, fresh
