import copy
import dataclasses
import itertools
import pickle
import tracemalloc

import pytest

from ctwasm import ast, binary, flat, infer, strip, text, validate
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


SIX = (I32, I64, F32, F64, S32, S64)


@pytest.mark.parametrize("t", SIX, ids=repr)
def test_a_value_type_is_its_interned_constant(t):
    assert ValType(t.rep, t.sec) is t
    assert ValType(rep=t.rep, sec=t.sec) is t
    assert hash(ValType(t.rep, t.sec)) == hash(t)
    assert t.bits == (64 if t.rep in (ast.Rep.I64, ast.Rep.F64) else 32)
    assert t.is_int == (t.rep in (ast.Rep.I32, ast.Rep.I64))
    assert ast.VALTYPES_BY_NAME[t.name] is t and repr(t) == t.name


@pytest.mark.parametrize("t", SIX, ids=repr)
def test_copies_and_pickles_of_a_value_type_are_itself(t):
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert copy.deepcopy(ast.FuncType(Trust.UNTRUSTED, (t,), ())).params[0] is t
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(t, protocol)) is t


def test_a_value_type_is_immutable():
    for name in ("rep", "sec", "name", "bits", "is_int", "other"):
        with pytest.raises(AttributeError):
            setattr(S32, name, None)
        with pytest.raises(AttributeError):
            delattr(S32, name)
    assert S32.rep is ast.Rep.I32 and S32.sec is Secrecy.SECRET
    assert not hasattr(S32, "__dict__")


def test_a_match_on_a_value_type_binds_both_fields():
    for t in SIX:
        match t:
            case ValType(rep, sec):
                assert (rep, sec) == (t.rep, t.sec)
            case _:
                pytest.fail(f"{t!r} did not match")
    match S64:
        case ValType(ast.Rep.I64, Secrecy.PUBLIC):
            pytest.fail("matched the wrong secrecy")
        case ValType(ast.Rep.I64, Secrecy.SECRET):
            pass


def _interned(t) -> bool:
    return any(t is u for u in SIX)


def test_type_functions_return_interned_types():
    for t in SIX:
        assert _interned(ast.public_type(t))
        assert all(_interned(ast.at_secrecy(t, sec)) for sec in Secrecy)
    assert classify_result(I32) is S32 and classify_result(I64) is S64
    assert declassify_result(S32) is I32 and declassify_result(S64) is I64
    for sec in Secrecy:
        for ins in (ast.Binop(S32, "add"), ast.Const(I64, 5),
                    ast.Convert(S64, S32, "u"), ast.Load(F32, None, None, 2, 0),
                    ast.CallIndirect(ast.FuncType(Trust.TRUSTED, (S32,), (I64,)))):
            types = list(_value_types(ast.retype_instr(ins, sec)))
            assert types and all(map(_interned, types)), (ins, sec)


def _value_types(obj, seen=None):
    """Every value type reachable from ``obj`` through dataclass fields,
    containers and stack types."""
    seen = set() if seen is None else seen
    if isinstance(obj, ValType):
        yield obj
        return
    if isinstance(obj, (str, bytes, bytearray, int, float, type(None))) or \
            id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _value_types(x, seen)
    elif isinstance(obj, dict):
        for x in itertools.chain(obj.keys(), obj.values()):
            yield from _value_types(x, seen)
    elif isinstance(obj, flat.StackTypes):
        for pc in range(len(obj)):
            yield from _value_types(obj[pc], seen)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _value_types(getattr(obj, f.name), seen)


def test_every_type_of_a_processed_corpus_module_is_interned(positive_entries):
    count = 0
    for e in positive_entries:
        m = text.parse_module(text.print_module(e.module), e.name)
        decoded = binary.decode_module(binary.encode_module(m))
        tm = validate.validate_module(decoded)
        report = strip.strip_module(tm)
        inferred = infer.infer_labels(report.module)
        assert inferred.ok, e.name
        for obj in (m, decoded, tm, report.module, inferred.module):
            for t in _value_types(obj):
                assert _interned(t), (e.name, t)
                count += 1
    assert count > 1000


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
