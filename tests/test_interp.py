import random
import struct

import pytest

from ctwasm import ast, interp, numerics, text, validate
from ctwasm.ast import I32, I64, S32, S64, F32, F64, FuncType, Secrecy, Trust
from ctwasm.interp import (
    HostCall, HostFunc, InstantiateError, InvokeError, Store, Value,
    instantiate, invoke, make_config, parse_value, step,
)


def build(src: str, annotate: bool = False):
    tm = validate.validate_module(text.parse_module(src), annotate=annotate)
    store, idx = instantiate(Store(), tm)
    return tm, store, idx


def run1(src, export, args, **kw):
    _, store, idx = build(src)
    return invoke(store, idx, export, args, **kw)


SELECT_SRC = """
(module (func (export "sel") (param s32 s32 s32) (result s32)
  (select secret (local.get 0) (local.get 1) (local.get 2))))
"""


def test_select_zero_condition_yields_second_operand():
    out = run1(SELECT_SRC, "sel",
               [Value(S32, 7), Value(S32, 9), Value(S32, 0)])
    assert out.results == [Value(S32, 9)]


def test_select_nonzero_condition_yields_first_operand():
    for cond in (1, 5, 0xFFFFFFFF):
        out = run1(SELECT_SRC, "sel",
                   [Value(S32, 7), Value(S32, 9), Value(S32, cond)])
        assert out.results == [Value(S32, 7)]


def test_declassify_preserves_payload():
    src = """(module (func (export "d") trusted (param s32) (result i32)
      local.get 0 i32.declassify))"""
    out = run1(src, "d", [Value(S32, 5)])
    assert out.results == [Value(I32, 5)]


def test_classify_declassify_identity_on_random_payloads():
    src = """(module (func (export "rt") trusted (param i32) (result i32)
      local.get 0 s32.classify i32.declassify))"""
    tm, store, idx = build(src)
    rng = random.Random(9)
    for _ in range(100_000):
        bits = rng.getrandbits(32)
        out = invoke(store, idx, "rt", [Value(I32, bits)])
        assert out.results[0].bits == bits


def test_select_secret_evaluates_both_operands():
    # both operand computations (global increments) must appear in the
    # trace whatever the condition chooses
    src = """
    (module
      (global $effects (mut i32) (i32.const 0))
      (func $bump (param i32) (result s32)
        (global.set $effects (i32.add (global.get $effects) (i32.const 1)))
        (s32.classify (local.get 0)))
      (func (export "go") (param s32) (result s32)
        (select secret (call $bump (i32.const 7)) (call $bump (i32.const 9))
                       (local.get 0)))
      (func (export "effects") (result i32) (global.get $effects))
    )"""
    for cond in (0, 1):
        tm, store, idx = build(src)
        out = invoke(store, idx, "go", [Value(S32, cond)])
        calls = [a for a in out.trace if a[0] == "call"]
        assert len(calls) == 2
        assert invoke(store, idx, "effects", []).results[0].bits == 2


def test_call_indirect_checks_annotation_exactly():
    src = """
    (module
      (table 2 funcref)
      (elem (i32.const 0) $priv $pub)
      (func $priv trusted (result i32) (i32.const 1))
      (func $pub (result i32) (i32.const 2))
      (func (export "go") trusted (param i32) (result i32)
        (call_indirect (result i32) (local.get 0)))
    )"""
    # slot 0 holds a trusted closure but the annotation is untrusted: trap
    out = run1(src, "go", [Value(I32, 0)])
    assert out.status == "trap" and out.trap_kind == "indirect call type mismatch"
    out = run1(src, "go", [Value(I32, 1)])
    assert out.results == [Value(I32, 2)]
    out = run1(src, "go", [Value(I32, 9)])
    assert out.trap_kind == "undefined element"


def test_traps_are_terminal_configs_not_exceptions():
    src = '(module (func (export "boom") unreachable))'
    out = run1(src, "boom", [])
    assert out.status == "trap" and out.trap_kind == "unreachable"
    assert out.results == []


def test_divide_trap_kinds():
    src = """(module
      (func (export "div") (param i32 i32) (result i32)
        (i32.div_s (local.get 0) (local.get 1)))
      (func (export "rem") (param i32 i32) (result i32)
        (i32.rem_s (local.get 0) (local.get 1))))"""
    assert run1(src, "div", [Value(I32, 1), Value(I32, 0)]).trap_kind == \
        "integer divide by zero"
    assert run1(src, "div", [Value(I32, 0x80000000), Value(I32, 0xFFFFFFFF)]
                ).trap_kind == "integer overflow"
    # INT_MIN rem -1 is 0, not a trap
    assert run1(src, "rem", [Value(I32, 0x80000000), Value(I32, 0xFFFFFFFF)]
                ).results[0].bits == 0


def test_unsafe_binop_action_payload():
    src = """(module (func (export "d") (param i32 i32) (result i32)
      (i32.div_u (local.get 0) (local.get 1))))"""
    out = run1(src, "d", [Value(I32, 7), Value(I32, 2)])
    assert ("unsafe-binop", "div_u", 7, 2) in out.trace
    assert out.results[0].bits == 3


def test_safe_op_actions_leak_only_the_operator():
    out = run1("(module (func (export \"f\") (param s32 s32) (result s32)"
               " local.get 0 local.get 1 s32.add))",
               "f", [Value(S32, 1), Value(S32, 2)])
    assert ("op", "s32.add") in out.trace


def test_memory_actions_and_secret_value_elision():
    pub = """(module (memory 1) (func (export "f") (result i32)
      (i32.store (i32.const 16) (i32.const 258))
      (i32.load (i32.const 16))))"""
    out = run1(pub, "f", [])
    assert ("mem", "store", 16, 4, 258) in out.trace
    assert ("mem", "load", 16, 4, 258) in out.trace
    sec = """(module (memory 1 secret) (func (export "f") (result s32)
      (s32.store (i32.const 16) (s32.const 258))
      (s32.load (i32.const 16))))"""
    out = run1(sec, "f", [])
    assert ("mem", "store", 16, 4, None) in out.trace
    assert ("mem", "load", 16, 4, None) in out.trace


def test_fuel_exhaustion_is_distinct_from_trap():
    src = '(module (func (export "spin") (loop (br 0))))'
    out = run1(src, "spin", [], fuel=1000)
    assert out.status == "fuel"
    assert out.trap_kind is None
    assert out.steps == 1000


def test_memory_grow_determinized():
    src = """(module (memory 1) (func (export "g") (param i32) (result i32)
      (memory.grow (local.get 0))))"""

    out = run1(src, "g", [Value(I32, 3)])
    assert out.results[0].bits == 1
    assert ("grow", 1, 3, 1) in out.trace

    out = run1(src, "g", [Value(I32, 64)])  # beyond the default 64-page cap
    assert out.results[0].signed == -1
    assert ("grow", 1, 64, 0xFFFFFFFF) in out.trace

    capped = """(module (memory 1 2) (func (export "g") (param i32) (result i32)
      (memory.grow (local.get 0))))"""
    out = run1(capped, "g", [Value(I32, 2)])
    assert out.results[0].signed == -1
    out = run1(capped, "g", [Value(I32, 1)])
    assert out.results[0].bits == 1


def test_effective_address_33_bit_overflow_traps():
    src = """(module (memory 1) (func (export "f") (result i32)
      (i32.load offset=0xffffffff (i32.const 0xffffffff))))"""
    out = run1(src, "f", [])
    assert out.trap_kind == "out of bounds memory access"


def test_packed_loads_sign_extend():
    src = """(module (memory 1)
      (func (export "s") (result i32)
        (i32.store8 (i32.const 0) (i32.const 0xff))
        (i32.load8_s (i32.const 0)))
      (func (export "u") (result i32)
        (i32.store8 (i32.const 0) (i32.const 0xff))
        (i32.load8_u (i32.const 0))))"""
    assert run1(src, "s", []).results[0].signed == -1
    assert run1(src, "u", []).results[0].bits == 0xFF


def test_invoke_requires_exact_types():
    with pytest.raises(InvokeError):
        run1(SELECT_SRC, "sel", [Value(I32, 7), Value(S32, 9), Value(S32, 0)])
    with pytest.raises(InvokeError):
        run1(SELECT_SRC, "sel", [Value(S32, 7)])
    with pytest.raises(InvokeError):
        run1(SELECT_SRC, "nope", [])


def test_import_type_mismatch_includes_trust():
    src = """(module (func (import "env" "f") (param s32) (result i32))
      (func (export "go") (param s32) (result i32)
        (call 0 (local.get 0))))"""
    tm = validate.validate_module(text.parse_module(src))
    trusted_host = HostFunc("env", "f", FuncType(Trust.TRUSTED, (S32,), (I32,)),
                            lambda call: [0])
    with pytest.raises(InstantiateError) as e:
        instantiate(Store(), tm, {("env", "f"): trusted_host})
    assert e.value.kind == "ImportTypeMismatch"


def test_untrusted_host_sees_only_public_projection():
    src = """(module (memory 1 secret)
      (func (import "env" "leak") (param s32 i32) (result i32))
      (func (export "go") (param s32) (result i32)
        (call 0 (local.get 0) (i32.const 41))))"""
    tm = validate.validate_module(text.parse_module(src))
    seen = {}

    def callback(call: HostCall):
        seen["args"] = call.args
        seen["mem_size"] = call.memory.size
        with pytest.raises(PermissionError):
            call.memory.read(0, 4)
        return [7]

    host = HostFunc("env", "leak", FuncType(Trust.UNTRUSTED, (S32, I32), (I32,)),
                    callback)
    store, idx = instantiate(Store(), tm, {("env", "leak"): host})
    out = invoke(store, idx, "go", [Value(S32, 0xDEAD)])
    assert out.results == [Value(I32, 7)]
    assert seen["args"][0] is None  # secret argument hidden
    assert seen["args"][1] == Value(I32, 41)
    assert seen["mem_size"] == 65536
    host_actions = [a for a in out.trace if a[0] == "host"]
    assert len(host_actions) == 1
    assert host_actions[0][1] == ("env", "leak")
    args_proj = host_actions[0][3]
    assert args_proj[0] == (S32, None) and args_proj[1] == (I32, 41)


def test_data_segment_bounds_checked_at_instantiation():
    src = '(module (memory 1) (data (i32.const 65534) "abcd"))'
    tm = validate.validate_module(text.parse_module(src))
    with pytest.raises(InstantiateError) as e:
        instantiate(Store(), tm)
    assert e.value.kind == "DataSegmentOutOfBounds"


def test_data_into_secret_memory_is_bit_preserving():
    src = """(module (memory 1 secret) (data (i32.const 3) "\\01\\02\\03")
      (func (export "f") (result s32) (s32.load8_u (i32.const 4))))"""
    out = run1(src, "f", [])
    assert out.results[0].bits == 2


def test_step_executes_exactly_one_instruction():
    tm, store, idx = build('(module (func (export "f") (result i32)'
                           " i32.const 1 i32.const 2 i32.add))")
    cfg = make_config(store, idx, "f", [])
    assert step(cfg) == ("op", "i32.const")
    assert step(cfg) == ("op", "i32.const")
    assert step(cfg) == ("op", "i32.add")
    assert step(cfg) == ("op", "end")
    assert cfg.status == "done"
    assert step(cfg) is None


def test_call_stack_exhaustion_traps():
    src = '(module (func (export "f") (call 0)))'
    out = run1(src, "f", [])
    assert out.trap_kind == "call stack exhausted"


def test_debug_mode_type_preservation_on_corpus(typed_corpus):
    # every push is checked against the checker's stack annotation for
    # that program point; any width or depth disagreement raises
    for name, (entry, tm) in typed_corpus.items():
        for vec in entry.vectors:
            store, idx = instantiate(Store(), tm)
            mem = store.mems[store.insts[idx].mem_addr]
            for off, chunk in vec.memory_in.items():
                mem.data[off:off + len(chunk)] = chunk
            out = invoke(store, idx, vec.invoke, vec.args, debug=True)
            assert out.status == "done", (name, out.trap_kind)


def test_float_semantics_spot_checks():
    src = """(module
      (func (export "min") (param f32 f32) (result f32)
        (f32.min (local.get 0) (local.get 1)))
      (func (export "trunc") (param f64) (result i32)
        (i32.trunc_f64_s (local.get 0)))
      (func (export "sqrt") (param f64) (result f64)
        (f64.sqrt (local.get 0))))"""
    neg0, pos0 = 0x80000000, 0
    out = run1(src, "min", [Value(F32, neg0), Value(F32, pos0)])
    assert out.results[0].bits == neg0
    nan32 = 0x7FC00000
    out = run1(src, "min", [Value(F32, nan32), Value(F32, pos0)])
    assert out.results[0].bits == nan32  # canonical quiet NaN
    out = run1(src, "trunc", [parse_value("f64:2.9")])
    assert out.results[0].bits == 2
    out = run1(src, "trunc", [parse_value("f64:-2.9")])
    assert out.results[0].signed == -2
    out = run1(src, "trunc", [Value(F64, 0x7FF8000000000000)])
    assert out.trap_kind == "invalid conversion to integer"
    out = run1(src, "trunc", [parse_value("f64:1e300")])
    assert out.trap_kind == "integer overflow"
    out = run1(src, "sqrt", [parse_value("f64:-4.0")])
    assert out.results[0].bits == 0x7FF8000000000000


def test_value_literals():
    assert parse_value("i32:7") == Value(I32, 7)
    assert parse_value("s64:-1") == Value(S64, (1 << 64) - 1)
    assert parse_value("i32:0xff") == Value(I32, 255)
    with pytest.raises(ValueError):
        parse_value("q32:1")
    with pytest.raises(ValueError):
        parse_value("i32:0x1ffffffff")


def test_cross_instance_imports():
    provider = """(module (func (export "one") (result s32) (s32.const 1))
      (global (export "g") i32 (i32.const 5))
      (memory (export "m") 1 secret))"""
    user = """(module
      (func (import "lib" "one") (result s32))
      (memory (import "lib" "m") 1 secret)
      (func (export "go") (result s32)
        (s32.add (call 0) (s32.load (i32.const 0)))))"""
    tm1 = validate.validate_module(text.parse_module(provider))
    tm2 = validate.validate_module(text.parse_module(user))
    store = Store()
    store, i1 = instantiate(store, tm1)
    store.mems[store.insts[i1].mem_addr].data[0] = 41
    imports = {("lib", "one"): store.export_of(i1, "one"),
               ("lib", "m"): store.export_of(i1, "m")}
    store, i2 = instantiate(store, tm2, imports)
    out = invoke(store, i2, "go", [])
    assert out.results == [Value(S32, 42)]


_ROUNDING_TABLE = [  # operand: ceil, floor, trunc, nearest
    (0.0, (0.0, 0.0, 0.0, 0.0)),
    (-0.0, (-0.0, -0.0, -0.0, -0.0)),
    (0.4, (1.0, 0.0, 0.0, 0.0)),
    (-0.4, (-0.0, -1.0, -0.0, -0.0)),
    (0.5, (1.0, 0.0, 0.0, 0.0)),
    (-0.5, (-0.0, -1.0, -0.0, -0.0)),
    (1.5, (2.0, 1.0, 1.0, 2.0)),
    (-1.5, (-1.0, -2.0, -1.0, -2.0)),
    (2.5, (3.0, 2.0, 2.0, 2.0)),
    (-2.5, (-2.0, -3.0, -2.0, -2.0)),
    (float("inf"), (float("inf"),) * 4),
    (float("-inf"), (float("-inf"),) * 4),
]


@pytest.mark.parametrize("width", [32, 64])
@pytest.mark.parametrize("x, expected", _ROUNDING_TABLE)
def test_float_rounding_keeps_the_sign_of_zero_and_infinities(width, x,
                                                              expected):
    fmt = "<f" if width == 32 else "<d"
    ifmt = "<I" if width == 32 else "<Q"

    def bits(v):
        return struct.unpack(ifmt, struct.pack(fmt, v))[0]

    got = [numerics.UNOP_FNS[f"f{width}", op](bits(x))
           for op in ("ceil", "floor", "trunc", "nearest")]
    assert got == [bits(v) for v in expected]
