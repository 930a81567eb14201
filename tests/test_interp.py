import random
import struct

import pytest

import stepping
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


@pytest.mark.parametrize("to_block_end", (False, True))
@pytest.mark.parametrize("fuel", (1, 2, 3, 1000))
def test_a_run_whose_budget_is_its_fuel_ends_out_of_fuel(fuel, to_block_end):
    """The budget and the fuel run out on the same step: no step can run,
    so the run is out of fuel without another call."""
    _, store, idx = build('(module (func (export "spin") (loop (br 0))))')
    cfg = make_config(store, idx, "spin", [], fuel=fuel)
    interp.run(cfg, max_steps=cfg.fuel, to_block_end=to_block_end)
    assert cfg.terminal and (cfg.status, cfg.fuel) == ("fuel", 0)


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


EXPORTER_SRC = """(module
  (func (export "f") (param i32) (result i32) (local.get 0))
  (global (export "g") i32 (i32.const 7))
  (memory (export "m") 1 2)
  (table (export "t") 2 funcref))"""


def exporter():
    """A store holding one instance of EXPORTER_SRC, and the imports that
    name its exports ``a.*``, plus a host function ``h.f``."""
    store, a = instantiate(Store(), validate.validate_module(
        text.parse_module(EXPORTER_SRC)))
    imports = {("a", n): store.export_of(a, n) for n in ("f", "g", "m", "t")}
    imports["h", "f"] = HostFunc("h", "f", FuncType(Trust.UNTRUSTED, (), ()),
                                 lambda call: [])
    return store, imports


@pytest.mark.parametrize("fields, kind, message", [
    ('(func (import "a" "x"))', "ImportMissing", "a.x (func)"),
    ('(global (import "a" "x") i32)', "ImportMissing", "a.x (global)"),
    ('(memory (import "a" "x") 1)', "ImportMissing", "a.x (memory)"),
    ('(table (import "a" "x") 1 funcref)', "ImportMissing", "a.x (table)"),
    ('(func (import "a" "g"))', "ImportTypeMismatch",
     "('a', 'g') is not a function"),
    ('(global (import "a" "f") i32)', "ImportTypeMismatch",
     "('a', 'f') is not a global"),
    ('(global (import "h" "f") i32)', "ImportTypeMismatch",
     "('h', 'f') is not a global"),
    ('(memory (import "a" "t") 1)', "ImportTypeMismatch",
     "('a', 't') is not a memory"),
    ('(table (import "a" "m") 1 funcref)', "ImportTypeMismatch",
     "('a', 'm') is not a table"),
    ('(func (import "a" "f") trusted (param i32) (result i32))',
     "ImportTypeMismatch", "function ('a', 'f'): declared "
     "(trusted: [i32] -> [i32]), got (untrusted: [i32] -> [i32])"),
    ('(global (import "a" "g") i64)', "ImportTypeMismatch",
     "global ('a', 'g'): declared i64, got i32"),
    ('(global (import "a" "g") (mut i32))', "ImportTypeMismatch",
     "global ('a', 'g'): declared mutable, got immutable"),
    ('(memory (import "a" "m") 1 secret)', "ImportTypeMismatch",
     "memory ('a', 'm'): secrecy public != secret"),
    ('(memory (import "a" "m") 2)', "ImportTypeMismatch",
     "memory ('a', 'm'): 1 pages < min 2"),
    ('(memory (import "a" "m") 1 1)', "ImportTypeMismatch",
     "memory ('a', 'm'): max exceeds bound"),
    ('(table (import "a" "t") 3 funcref)', "ImportTypeMismatch",
     "table ('a', 't') too small"),
    ('(table (import "a" "t") 1 1 funcref)', "ImportTypeMismatch",
     "table ('a', 't'): max exceeds bound"),
    ('(table (import "a" "t") 1 funcref) (func $g) (elem (i32.const 2) $g)',
     "ElemSegmentOutOfBounds", "offset 2 + 1"),
    ('(memory (import "a" "m") 1) (data (i32.const 65535) "xyz")',
     "DataSegmentOutOfBounds", "offset 65535 + 3"),
])
def test_each_linking_error_has_its_kind_and_message(fields, kind, message):
    store, imports = exporter()
    tm = validate.validate_module(text.parse_module(f"(module {fields})"))
    with pytest.raises(InstantiateError) as e:
        instantiate(store, tm, imports)
    assert (e.value.kind, str(e.value)) == (kind, f"{kind}: {message}")


def test_a_table_import_links_only_within_its_declared_max():
    store, a = instantiate(Store(), validate.validate_module(
        text.parse_module('(module (table (export "t") 2 3 funcref))')))
    imports = {("a", "t"): store.export_of(a, "t")}
    for limits, ok in (("1 3", True), ("2 4", True), ("1 2", False)):
        tm = validate.validate_module(text.parse_module(
            f'(module (table (import "a" "t") {limits} funcref))'))
        if ok:
            instantiate(store, tm, imports)
        else:
            with pytest.raises(InstantiateError, match="max exceeds bound"):
                instantiate(store, tm, imports)


def test_a_failed_link_writes_into_no_imported_table_or_memory():
    store, imports = exporter()
    before = interp.project_store(store)
    tm = validate.validate_module(text.parse_module("""(module
      (memory (import "a" "m") 1) (table (import "a" "t") 2 funcref)
      (func $g) (elem (i32.const 0) $g)
      (data (i32.const 0) "hi") (data (i32.const 65535) "xyz"))"""))
    with pytest.raises(InstantiateError, match="DataSegmentOutOfBounds"):
        instantiate(store, tm, imports)
    assert interp.project_store(store)[3:] == before[3:]  # tables, memories


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


def test_step_on_a_config_that_records_only_leaks():
    """A static action is not recorded, so ``step`` returns None for it,
    though the step ran; a data-dependent one is recorded as its record,
    here the address and bits of a load from public memory."""
    tm, store, idx = build('(module (memory 1) (func (export "f")'
                           ' (result i32) (i32.load (i32.const 4))))')
    cfg = make_config(store, idx, "f", [], fuel=10)
    cfg.leaks_only = True
    assert step(cfg) is None and cfg.fuel == 9
    assert step(cfg) == (4, 0)
    assert step(cfg) is None and cfg.status == "done"
    assert cfg.trace == [(4, 0)]


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
            out = stepping.invoke(store, idx, vec.invoke, vec.args)
            assert out.status == "done", (name, out.trap_kind)


def test_invoke_sends_its_trace_to_the_sink_it_is_given(typed_corpus):
    """None keeps no action and a given list gets every one; status,
    results and steps are those of the default, which keeps a new list."""
    entry, tm = typed_corpus["sha256"]
    vec = entry.vectors[0]

    def run(**kw):
        store, idx = instantiate(Store(), tm)
        interp.write_image(store, idx, vec.memory_in)
        return invoke(store, idx, vec.invoke, vec.args, **kw)

    default, dropped, given = run(), run(trace=None), run(trace=["kept"])
    assert default.status == "done" and default.steps > 1000
    for out in (dropped, given):
        assert (out.status, out.results, out.trap_kind, out.steps) == (
            default.status, default.results, default.trap_kind, default.steps)
    assert len(dropped.trace) == 0
    assert given.trace == ["kept", *default.trace]


_BUMPS = """(module (memory 1) (global $g (mut i32) (i32.const 0))
  (table 1 anyfunc) (elem (i32.const 0) $bump)
  (type $t (func (param i32) (result i32)))
  (func $bump (param i32) (result i32)
    (global.set $g (i32.add (global.get $g) (local.get 0)))
    (i32.store (i32.mul (local.get 0) (i32.const 4)) (global.get $g))
    (global.get $g))
  (func (export "f") (param i32) (result i32) (local i32)
    (loop
      (block
        (local.set 1 (i32.add (local.get 1)
          (call_indirect (type $t) (local.get 0) (i32.const 0)))))
      (local.set 0 (i32.sub (local.get 0) (i32.const 1)))
      (br_if 0 (local.get 0)))
    (local.get 1)))"""


def test_a_copied_config_runs_on_alone_as_its_original_does():
    """Copies taken every 7 steps keep their state while the original runs
    on; each, run to the end after the original has finished, takes its
    remaining actions and steps and ends with its results, global and
    memory.  A copy keeps no trace of its own."""
    _, store, idx = build(_BUMPS)
    cfg = make_config(store, idx, "f", [Value(I32, 20)])

    def state(c):
        return (interp.project_store(c.store), c.frame_pointers(),
                [(f.locals[:], f.stack[:]) for f in c.frames])

    copies = []
    while not cfg.terminal:
        copy = cfg.copy()
        assert len(copy.trace) == 0 and copy.trace.maxlen == 0
        copies.append((len(cfg.trace), state(cfg), copy))
        interp.run(cfg, max_steps=7)
    assert cfg.status == "done" and len(copies) > 20
    for done, at_copy, copy in copies:
        assert state(copy) == at_copy
        copy.trace = []
        interp.run(copy)
        assert copy.trace == cfg.trace[done:]
        assert (copy.status, copy.results, copy.fuel) == (
            cfg.status, cfg.results, cfg.fuel)
        assert [g.bits for g in copy.store.globals] == \
            [g.bits for g in store.globals]
        assert copy.store.mems[0].data == store.mems[0].data


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


def test_a_float_literal_past_its_width_is_out_of_range():
    for literal in ("f64:1e400", "f64:-1e400", "f32:1e39", "f32:1e400"):
        with pytest.raises(ValueError,
                           match=f"out of range for {literal[:3]}$"):
            parse_value(literal)
    assert parse_value("f32:inf") == Value(F32, 0x7F800000)
    assert parse_value("f64:-inf") == Value(F64, 0xFFF0000000000000)
    assert parse_value("f64:1e308") == Value(
        F64, struct.unpack("<Q", struct.pack("<d", 1e308))[0])


@pytest.mark.parametrize("literal", [
    "f32:0x1p-1", "f32:0x10", "f64:-0x1.8p3", "f64:nan:0x1",
    "f32:-nan:0x7fffff", "f32:nan", "i64:-0x1", "s32:1_000"])
def test_an_argument_literal_has_the_bits_of_its_const(literal):
    t, _, raw = literal.partition(":")
    m = text.parse_module(f"(module (func (result {t}) ({t}.const {raw})))")
    assert parse_value(literal).bits == m.funcs[0].body[0].bits


@pytest.mark.parametrize("literal, message", [
    ("i32:0o17", "bad integer literal 0o17"),
    ("i32:0b101", "bad integer literal 0b101"),
    ("f64:1e400", "literal out of range for f64"),
])
def test_arguments_and_consts_reject_a_literal_alike(literal, message):
    t, _, raw = literal.partition(":")
    with pytest.raises(ValueError, match=f"{message}$"):
        parse_value(literal)
    with pytest.raises(text.ParseError, match=f"{message}$"):
        text.parse_module(f"(module (func (drop ({t}.const {raw}))))")


def test_a_name_exported_twice_means_its_first_export_everywhere():
    m = ast.Module(funcs=(ast.Func(FuncType(Trust.UNTRUSTED, (), ()), (), (),
                                   exports=("x",)),),
                   memory=ast.Memory(1, exports=("x",)))
    assert m.exports() == (("x", "func", 0), ("x", "memory", 0))
    assert m.exported("x") == ("func", 0)
    store, idx = instantiate(Store(), validate.flatten_unchecked(m))
    assert store.insts[idx].exports["x"] == (
        "func", store.insts[idx].func_addrs[0])
    assert invoke(store, idx, "x", []).status == interp.DONE


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


@pytest.mark.parametrize("access", [
    lambda mem: mem.write(65530, b"\1" * 64),
    lambda mem: mem.write(70000, b"\1"),
    lambda mem: mem.read(65530, 64),
    lambda mem: mem.read(-1, 4),
], ids=["write-across-end", "write-past-end", "read-across-end",
        "read-before-start"])
def test_host_memory_access_out_of_range_traps_the_run(access):
    src = """(module (memory 1)
      (func (import "env" "poke"))
      (func (export "go") (call 0)))"""
    tm = validate.validate_module(text.parse_module(src))

    def callback(call: HostCall):
        access(call.memory)

    host = HostFunc("env", "poke", FuncType(Trust.UNTRUSTED, (), ()), callback)
    store, idx = instantiate(Store(), tm, {("env", "poke"): host})
    out = invoke(store, idx, "go", [])
    assert (out.status, out.trap_kind) == ("trap", "out of bounds memory access")
    data = store.mems[store.insts[idx].mem_addr].data
    assert data == bytes(65536)  # neither grown nor partly written


_HOST_NOTE = """(module
  (func (import "env" "note") (param s32 i32) (result i32))
  (func (export "f") (param s32) (result i32)
    (call 0 (local.get 0) (i32.const 41))))"""

# (module, its export's arguments, whether its host traps, the trace JSON
# of some steps of a run of "f", and the records a run that records only
# leaks keeps); None for the records of a host call: the action itself
_ACTION_KINDS = {
    "op-call-secret-select": ("""(module
      (func $id (param s32) (result s32) (local.get 0))
      (func (export "f") (param s32 s32 s32) (result s32)
        (select secret (call $id (local.get 0)) (local.get 1)
                (local.get 2))))""",
        [Value(S32, 5), Value(S32, 6), Value(S32, 0)], None,
        {0: {"action": "op", "op": "local.get"},
         1: {"action": "call", "func": 0},
         6: {"action": "secret-select"}}, []),
    "branch": ("""(module (func (export "f") (param i32) (result i32)
      (if (local.get 0) (then nop))
      (block (br_if 0 (local.get 0)))
      (block (block (br_table 0 1 (local.get 0))))
      (select (i32.const 1) (i32.const 2) (local.get 0))))""",
        [Value(I32, 1)], None,
        {1: {"action": "branch", "op": "if", "condition": 1},
         6: {"action": "branch", "op": "br_if", "condition": 1},
         10: {"action": "branch", "op": "br_table", "condition": 1},
         14: {"action": "branch", "op": "select", "condition": 1}},
        [1, 1, 1, 1]),
    "mem-public": ("""(module (memory 1) (func (export "f") (result i32)
      (i32.store (i32.const 16) (i32.const 258))
      (i32.load (i32.const 16))))""", [], None,
        {2: {"action": "mem", "op": "store", "addr": 16, "width": 4,
             "value": 258},
         4: {"action": "mem", "op": "load", "addr": 16, "width": 4,
             "value": 258}},
        [(16, 258), (16, 258)]),
    "mem-secret": ("""(module (memory 1 secret) (func (export "f")
      (result s32)
      (s32.store (i32.const 16) (s32.const 258))
      (s32.load (i32.const 16))))""", [], None,
        {2: {"action": "mem", "op": "store", "addr": 16, "width": 4},
         4: {"action": "mem", "op": "load", "addr": 16, "width": 4}},
        [16, 16]),
    "mem-bounds-trap": ("""(module (memory 1) (func (export "f") (result i32)
      (i32.load16_u offset=4 (i32.const 65532))))""", [], None,
        {1: {"action": "mem", "op": "load", "addr": 65536, "width": 2}},
        [65536]),
    "unsafe-binop-grow-call-indirect": ("""(module (memory 1)
      (table 1 funcref) (elem (i32.const 0) $seven)
      (func $seven (result i32) (i32.const 7))
      (func (export "f") (param i32 i32) (result i32)
        (drop (memory.grow (i32.const 1)))
        (i32.div_u (local.get 0) (local.get 1))
        (call_indirect (result i32) (i32.const 0))
        i32.add))""", [Value(I32, 7), Value(I32, 2)], None,
        {1: {"action": "grow", "old": 1, "delta": 1, "result": 1},
         5: {"action": "unsafe-binop", "op": "div_u", "lhs": 7, "rhs": 2},
         7: {"action": "call-indirect", "slot": 0}},
        [(1, 1, 1), (7, 2), 0]),
    "host": (_HOST_NOTE, [Value(S32, 9)], False,
             {3: {"action": "host", "host": "env.note"}}, None),
    "host-trap": (_HOST_NOTE, [Value(S32, 9)], True,
                  {3: {"action": "op", "op": "host-trap"}}, None),
}


@pytest.mark.parametrize("name", list(_ACTION_KINDS))
def test_the_trace_json_and_record_of_every_action_kind(name):
    src, args, traps, pinned, records = _ACTION_KINDS[name]
    tm = validate.validate_module(text.parse_module(src))

    def note(call: HostCall):
        if traps:
            raise interp.Trap("host refused")
        return [3]

    def start(leaks_only):
        imports = None if traps is None else {("env", "note"): HostFunc(
            "env", "note", FuncType(Trust.UNTRUSTED, (S32, I32), (I32,)),
            note)}
        store, idx = instantiate(Store(), tm, imports)
        cfg = make_config(store, idx, "f", args)
        cfg.leaks_only = leaks_only
        interp.run(cfg)
        return cfg.trace

    trace = start(False)
    assert {i: interp.action_to_json(i, trace[i]) for i in pinned} == {
        i: {"step": i} | body for i, body in pinned.items()}
    leaked = [a for a in trace if interp.leaks(a)]
    assert start(True) == (leaked if records is None else records)
    if traps is not None:
        assert leaked == [interp.HOST_TRAP if traps else trace[3]]
