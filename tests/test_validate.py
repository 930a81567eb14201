import fuzzgen
import pytest

from ctwasm import ast, text
from ctwasm.ast import I32, I64, S32, S64, F32, Secrecy, Trust
from ctwasm.validate import (
    TANY, TSECRET, CheckState, Ctx, ErrorCode, ValidationFailure, check_instr,
    check_module, unify, validate_module,
)


def codes(src: str) -> list[str]:
    _, errs = check_module(text.parse_module(src))
    return [e.code.value for e in errs]


# --- unify ------------------------------------------------------------------

def test_unify_examples():
    assert unify(TANY, S32) == S32
    assert unify(TSECRET, I32) is None  # mismatch
    assert unify(TSECRET, TSECRET) is TSECRET


def test_unify_lattice():
    assert unify(TANY, TANY) is TANY
    assert unify(TANY, TSECRET) is TSECRET
    assert unify(TSECRET, S64) == S64
    assert unify(S32, S32) == S32
    assert unify(S32, S64) is None
    assert unify(I32, S32) is None
    for a in (TANY, TSECRET, I32, S32):
        assert unify(a, a) in (a,)  # idempotent
    for a in (TANY, TSECRET, I32, S64):
        for b in (TANY, TSECRET, I64, S64):
            assert unify(a, b) == unify(b, a)  # commutative


# --- check_instr ------------------------------------------------------------

def plain_ctx(trust=Trust.UNTRUSTED, **kw) -> Ctx:
    base = dict(trust=trust, funcs=(), globals=(), table=None, memory=None,
                locals=(), return_types=())
    base.update(kw)
    return Ctx(**base)


def primed_state(*vals) -> CheckState:
    st = CheckState()
    st.push_ctrl((), ())
    st.vals.extend(vals)
    return st


def test_binop_rule_on_stack():
    st = primed_state(S32, S32)
    out = check_instr(plain_ctx(), st, ast.Binop(S32, "add"))
    assert out is st
    assert st.vals == [S32]


def test_secret_if_condition_rejected():
    st = primed_state(S32)
    err = check_instr(plain_ctx(), st, ast.If(None, (ast.Nop(),), ()))
    assert err.code is ErrorCode.SecretCondition


def test_untrusted_call_to_trusted_rejected():
    ctx = plain_ctx(funcs=(ast.FuncType(Trust.TRUSTED, (), ()),))
    err = check_instr(ctx, primed_state(), ast.Call(0))
    assert err.code is ErrorCode.TrustViolationCall


def test_secret_div_rejected():
    st = primed_state(S32, S32)
    err = check_instr(plain_ctx(), st, ast.Binop(S32, "div_u"))
    assert err.code is ErrorCode.UnsafeOpOnSecret


def test_secret_div_in_a_block_rejected():
    st = primed_state(S32, S32)
    block = ast.Block(None, (ast.Binop(S32, "div_u"),))
    err = check_instr(plain_ctx(), st, block)
    assert err.code is ErrorCode.UnsafeOpOnSecret


def test_block_rule_pushes_its_result():
    st = primed_state()
    out = check_instr(plain_ctx(), st, ast.Block(I32, (ast.Const(I32, 7),)))
    assert out is st
    assert st.vals == [I32]


# --- validate_module --------------------------------------------------------

def test_corpus_accepted_untrusted(positive_entries):
    for entry in positive_entries:
        tm = validate_module(entry.module)
        assert all(f.type.trust is Trust.UNTRUSTED
                   for f in entry.module.funcs), entry.name


def test_declassify_needs_trust():
    assert "DeclassifyRequiresTrusted" in codes(
        "(module (func (param s32) (result i32)"
        " local.get 0 i32.declassify))")
    assert not codes(
        "(module (func trusted (param s32) (result i32)"
        " local.get 0 i32.declassify))")


def test_secret_store_to_public_memory():
    assert "MemorySecrecyMismatch" in codes(
        "(module (memory 1) (func (param s32)"
        " (s32.store (i32.const 0) (local.get 0))))")


def test_public_load_from_secret_memory_rejected():
    assert "MemorySecrecyMismatch" in codes(
        "(module (memory 1 secret) (func (result i32)"
        " (i32.load (i32.const 0))))")


def test_memory_grow_and_size_need_public_i32():
    assert "SecretMemoryIndex" in codes(
        "(module (memory 1) (func (param s32)"
        " (drop (memory.grow (local.get 0)))))")
    assert not codes("(module (memory 1) (func (result i32) memory.size))")


def test_reinterpret_requires_public_both_sides():
    assert "FloatSecrecy" in codes(
        "(module (func (param s32) (result f32)"
        " (f32.reinterpret/s32 (local.get 0))))")
    assert not codes(
        "(module (func (param i32) (result f32)"
        " (f32.reinterpret/i32 (local.get 0))))")


def test_secret_convert_width_changes_allowed():
    assert not codes("(module (func (param s64) (result s32)"
                     " local.get 0 s32.wrap_s64))")
    assert not codes("(module (func (param s32) (result s64)"
                     " local.get 0 s64.extend_s32_u))")
    # mixing secrecies in a conversion is not
    src = "(module (func (param s64) (result i32) local.get 0 i32.wrap_i64))"
    assert "TypeMismatch" in codes(src)


def test_select_rules():
    # public select over secret values is fine (condition stays public)
    assert not codes(
        "(module (func (param s32 s32 i32) (result s32)"
        " (select (local.get 0) (local.get 1) (local.get 2))))")
    # secret select requires a secret condition and secret operands
    assert not codes(
        "(module (func (param s32 s32 s32) (result s32)"
        " (select secret (local.get 0) (local.get 1) (local.get 2))))")
    assert "TypeMismatch" in codes(
        "(module (func (param i32 i32 s32) (result i32)"
        " (select secret (local.get 0) (local.get 1) (local.get 2))))")
    assert "FloatSecrecy" in codes(
        "(module (func (param f64 f64 s32) (result f64)"
        " (select secret (local.get 0) (local.get 1) (local.get 2))))")
    # public select leaks its condition, so the condition must be public
    assert "SecretCondition" in codes(
        "(module (func (param i32 i32 s32) (result i32)"
        " (select (local.get 0) (local.get 1) (local.get 2))))")


def test_relop_testop_result_secrecy_follows_operands():
    assert not codes("(module (func (param s32) (result s32)"
                     " local.get 0 s32.eqz))")
    # s32.eqz yields a secret i32; a branch on it must be rejected
    assert "SecretCondition" in codes(
        "(module (func (param s32)"
        " (if (s32.eqz (local.get 0)) (then nop))))")


def test_all_errors_reported_not_just_first():
    errs = codes(
        "(module (func (param s32 s32)"
        "  (if (local.get 0) (then nop))"
        "  (drop (s32.div_u (local.get 0) (local.get 1)))"
        "))")
    assert "SecretCondition" in errs and "UnsafeOpOnSecret" in errs


def test_error_locations_carry_offsets():
    _, errs = check_module(text.parse_module(
        "(module (func (param s32) (if (local.get 0) (then nop))))"))
    assert errs[0].func == 0
    assert errs[0].offset is not None
    assert errs[0].span is not None
    doc = errs[0].to_json()
    assert set(doc) == {"code", "func", "offset", "message"}


def test_determinism():
    src = "(module (func (param s32) (if (local.get 0) (then nop))))"
    a = codes(src)
    b = codes(src)
    assert a == b


def test_linearity_checks_equal_instruction_count(typed_corpus):
    for name, (entry, tm) in typed_corpus.items():
        assert tm.stats["checks"] == tm.stats["instrs"], name


def test_superset_fuzz_modules_accepted():
    for seed in range(200):
        m = text.parse_module(fuzzgen.generate(seed))
        tm, errs = check_module(m)
        assert not errs, (seed, [str(e) for e in errs][:3])


def test_secrecy_conservation_rule_table():
    """Audit every secret-typed operator the checker accepts: no rule
    except declassify turns a secret input into a public output."""
    ctx = plain_ctx(trust=Trust.TRUSTED)  # so declassify itself is audited
    audited = 0
    for name, proto in ast.CATALOGUE.items():
        in_types, out_type = _instr_signature(proto)
        if not any(t.sec is Secrecy.SECRET for t in in_types):
            continue
        st = primed_state(*in_types)
        if not isinstance(check_instr(ctx, st, proto), CheckState):
            continue  # rejected rules (secret reinterpret) conserve trivially
        audited += 1
        produced = st.vals
        assert [out_type] == produced or out_type is None, name
        if isinstance(proto, ast.Declassify):
            assert out_type.sec is Secrecy.PUBLIC
        elif out_type is not None:
            assert out_type.sec is Secrecy.SECRET, name
    # 2 secret int types x (3 unops + 11 safe binops + eqz + 10 relops)
    # + 3 secret width conversions + 2 declassify forms
    assert audited == 55


def _instr_signature(ins):
    match ins:
        case ast.Unop(type=t) | ast.Binop(type=t):
            n = 2 if isinstance(ins, ast.Binop) else 1
            return (t,) * n, t
        case ast.Testop(type=t) | ast.Relop(type=t):
            n = 2 if isinstance(ins, ast.Relop) else 1
            return (t,) * n, ast.ValType(ast.Rep.I32, t.sec)
        case ast.Convert(to=to, frm=frm) | ast.Reinterpret(to=to, frm=frm):
            return (frm,), to
        case ast.Classify(to=to, frm=frm) | ast.Declassify(to=to, frm=frm):
            return (frm,), to
    return (), None


def test_syntax_index_codes():
    assert "SyntaxIndex" in codes("(module (func (drop (local.get 99))))")
    assert "SyntaxIndex" in codes("(module (func (drop (call 7))))")
    assert "SyntaxIndex" in codes("(module (func (br 9)))")
    assert "SyntaxIndex" in codes(
        "(module (func (result i32) (i32.load (i32.const 0))))")  # no memory
    # the text parser rejects dangling elem indices itself; a decoded
    # module can still carry them, so build the AST directly
    bad = ast.Module(
        table=ast.Table(1, None, (ast.ElemSeg((ast.Const(I32, 0),), (5,)),)))
    _, errs = check_module(bad)
    assert ErrorCode.SyntaxIndex in [e.code for e in errs]


def test_stack_underflow_code():
    assert "StackUnderflow" in codes("(module (func (result i32) i32.add))")


def test_validation_failure_raises_with_all_errors():
    with pytest.raises(ValidationFailure) as e:
        validate_module(text.parse_module(
            "(module (func (param s32) (if (local.get 0) (then nop))))"))
    assert e.value.errors[0].code is ErrorCode.SecretCondition


def test_init_expr_checking():
    assert not codes("(module (global s32 (s32.const 1)))")
    # public constants may flow up into a secret global slot
    assert not codes("(module (global s64 (i64.const 1)))")
    assert "TypeMismatch" in codes("(module (global i32 (i64.const 1)))")
    assert "TypeMismatch" in codes("(module (global i32 (nop)))")
    assert not codes('(module (global (import "e" "g") i32)'
                     " (global i32 (global.get 0)))")


def test_annotations_record_stack_types():
    tm = validate_module(text.parse_module(
        "(module (func (param s32 i32) (result s32)"
        " local.get 0 local.get 1 drop))"), annotate=True)
    ff = tm.flat(0)
    assert ff.stack_types[0] == ()
    assert ff.stack_types[1] == (S32,)
    assert ff.stack_types[2] == (S32, I32)



def test_memory_offset_must_fit_u32():
    """The parser and the decoder reject such offsets first; an AST built
    in code reaches the validator with them."""
    def errors(offset: int) -> list:
        body = (ast.Const(I32, 0), ast.Const(I32, 0),
                ast.Store(I32, None, 2, offset),
                ast.Const(I32, 0), ast.Load(I32, None, None, 2, offset),
                ast.Drop())
        m = ast.Module(funcs=(ast.Func(ast.FuncType(Trust.UNTRUSTED, (), ()),
                                       (), body),), memory=ast.Memory(1))
        return [(e.code, e.offset) for e in check_module(m)[1]]

    for bad in (-1, 1 << 32):
        assert errors(bad) == [(ErrorCode.SyntaxIndex, 2),
                               (ErrorCode.SyntaxIndex, 4)]
    assert errors((1 << 32) - 1) == []


# --- duplicate exports ------------------------------------------------------

def _exported_funcs(*exports):
    ft = ast.FuncType(Trust.UNTRUSTED, (), ())
    return tuple(ast.Func(ft, (), (), exports=(e,)) for e in exports)


def test_duplicate_export_names_are_reported_sorted():
    with pytest.raises(text.ParseError, match="duplicate export name 'a'"):
        text.parse_module(
            '(module (func (export "b")) (func (export "a")) (global (export'
            ' "b") i32 (i32.const 0)) (func (export "a")) (func (export "c")))')
    m = ast.Module(funcs=_exported_funcs("b", "a", "a", "c"), globals=(
        ast.GlobalVar(I32, False, (ast.Const(I32, 0),), exports=("b",)),))
    _, errors = check_module(m)
    assert [e.message for e in errors] == [
        "duplicate export name 'a'", "duplicate export name 'b'"]


def test_duplicate_export_check_is_linear():
    """4x the exports may cost at most 8x the time (a quadratic check
    costs about 16x); hand-built, so no parse is timed."""
    import gc
    import time

    def best(m):
        times = []
        for _ in range(3):
            gc.disable()
            try:
                t = time.perf_counter()
                validate_module(m)
                times.append(time.perf_counter() - t)
            finally:
                gc.enable()
        return min(times)

    small, large = (ast.Module(funcs=_exported_funcs(*map(str, range(n))))
                    for n in (4000, 16000))
    assert best(large) < 8 * best(small)


# --- the def-use record -----------------------------------------------------

# Offsets of the flat code on the right; a construct's result is produced by
# its opening op, and -1 stands for the function result.
_DEF_USE_SRC = """
(module
  (func (export "f") (param i32) (result i32) (local i32)
    block (result i32)   ;; 0
      i32.const 1        ;; 1
      br 0               ;; 2   hands 1 to the block
      br_if 0            ;; 3   dead: pops nothing, re-pushes its own value
    end                  ;; 4   hands 3 to the block
    local.tee 1          ;; 5
    drop                 ;; 6
    block (result i32)   ;; 7
      i32.const 4        ;; 8
      local.get 0        ;; 9
      br_if 0            ;; 10  keeps 8 on the stack
    end                  ;; 11
    drop                 ;; 12
    block                ;; 13
      loop               ;; 14
        local.get 0      ;; 15
        br_table 0 1     ;; 16  to the loop and the block: no values
      end                ;; 17
    end                  ;; 18
    block (result i32)   ;; 19
      block (result i32) ;; 20
        i32.const 5      ;; 21
        local.get 0      ;; 22
        br_table 0 1 0   ;; 23  each target in order, duplicates kept
      end                ;; 24
    end                  ;; 25
    drop                 ;; 26
    local.get 0          ;; 27
    if (result i32)      ;; 28
      i32.const 2        ;; 29
    else                 ;; 30
      i32.const 3        ;; 31
    end                  ;; 32
    return               ;; 33
    local.tee 1))        ;; 34  dead: a tee of no value yields none; 35 end
"""


def test_def_use_record_of_a_hand_written_function():
    ff = validate_module(text.parse_module(_DEF_USE_SRC), annotate=True).flat(0)
    du = ff.def_use
    assert len(ff.code) == 36
    assert {pc: a for pc, a in enumerate(du.args) if a} == {
        3: (None,), 5: (0,), 6: (5,), 10: (9,), 12: (7,), 16: (15,),
        23: (22,), 26: (19,), 28: (27,), 34: (None,)}
    assert {pc: f for pc, f in enumerate(du.flows) if f} == {
        2: ((0, 1),), 4: ((0, 3),), 10: ((7, 8),), 11: ((7, 8),),
        23: ((20, 21), (19, 21), (20, 21)), 25: ((19, 20),),
        30: ((28, 29),), 32: ((28, 31),), 33: ((-1, 28),)}
    assert [pc for pc, t in enumerate(du.types) if t is not None] == [
        0, 1, 3, 5, 7, 8, 9, 15, 19, 20, 21, 22, 27, 28, 29, 31]
    assert set(du.types) == {I32, None}
    assert du.targets == {3: 0, 10: 7}


def test_def_use_producers_carry_the_types_of_their_slots(corpus_entries):
    """Each op's operands, and each value handed on, have the types the
    stack held in those slots before the op."""
    modules = [e.module for e in corpus_entries if e.positive]
    modules += [text.parse_module(fuzzgen.generate(seed, ct=seed % 2 == 0))
                for seed in range(300)]
    checked = 0
    for m in modules:
        for ff in validate_module(m, annotate=True).funcs:
            if ff is None:
                continue
            du = ff.def_use
            for pc, stack in enumerate(ff.stack_types):
                real = [p for p in du.args[pc] if p is not None]
                assert len(real) <= len(stack), (ff.index, pc)
                slots = stack[len(stack) - len(real):]
                assert [du.types[p] for p in real] == list(slots), (ff.index, pc)
                for _, p in du.flows[pc]:
                    assert du.types[p] == stack[-1], (ff.index, pc)
                checked += len(real)
    assert checked > 5_000


def test_def_use_is_left_only_when_annotating_a_function_that_checks():
    m = text.parse_module(_DEF_USE_SRC)
    assert validate_module(m).flat(0).def_use is not None
    assert validate_module(m, annotate=True).flat(0).def_use is not None
    for src in ("(module (func (result i32) (i64.const 0)))",
                "(module (func i32.add drop))"):
        assert codes(src)  # rejected, and nothing escapes the recorder
        assert check_module(text.parse_module(src), annotate=True)[0] is None


# --- nesting depth ----------------------------------------------------------

def _nested_blocks(depth: int) -> ast.Module:
    body: tuple = (ast.Nop(),)
    for _ in range(depth):
        body = (ast.Block(None, body),)
    ft = ast.FuncType(Trust.UNTRUSTED, (), ())
    return ast.Module(funcs=(ast.Func(ft, (), body),))


def test_hand_built_bodies_nested_too_deep_are_rejected():
    assert check_module(_nested_blocks(ast.MAX_NESTING))[1] == []
    for depth in (ast.MAX_NESTING + 1, 10_000):
        _, errors = check_module(_nested_blocks(depth), annotate=True)
        assert [(e.code, e.func, e.message) for e in errors] == [
            (ErrorCode.NestingTooDeep, 0,
             f"blocks nested deeper than {ast.MAX_NESTING}")]
