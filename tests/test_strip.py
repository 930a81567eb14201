import random
import shutil

import pytest
import wabt_bridge
from ctwasm import ast, binary, interp, strip, text, validate
from ctwasm.ast import I32, I64, S32, S64, Secrecy
from ctwasm.interp import Store, Value
from ctwasm.strip import RefuseUnvalidated, rewrite_secret_select, strip_module

CT_KEYWORDS = ("s32", "s64", "secret", "trusted", "classify", "declassify")


def scan_no_ct_constructs(m: ast.Module) -> bool:
    printed = text.print_module(m)
    return not any(kw in printed for kw in CT_KEYWORDS)


def test_refuses_unvalidated_input():
    bad = text.parse_module(
        "(module (func (param s32) (if (local.get 0) (then nop))))")
    with pytest.raises(RefuseUnvalidated):
        strip_module(bad)
    unchecked = validate.flatten_unchecked(text.parse_module("(module)"))
    with pytest.raises(RefuseUnvalidated):
        strip_module(unchecked)


def test_a_validated_module_is_stripped_without_checking_it_again(
        monkeypatch):
    """The secret-select widths come from the record every validation
    leaves, so no validator runs a second time."""
    tm = validate.validate_module(
        text.parse_module(_select_template_module(64)))

    def no_check(*args, **kwargs):
        raise AssertionError("strip_module validated its input again")

    monkeypatch.setattr(strip, "validate_module", no_check)
    monkeypatch.setattr(validate._FuncChecker, "run", no_check)
    rep = strip_module(tm)
    assert scan_no_ct_constructs(rep.module)
    assert I64 in rep.module.funcs[0].locals


def test_simple_erasure():
    m = text.parse_module("(module (func (export \"f\") (param s32 s32)"
                          " (result s32) local.get 0 local.get 1 s32.add))")
    rep = strip_module(m)
    f = rep.module.funcs[0]
    assert f.type.params == (I32, I32)
    assert ast.Binop(I32, "add") in f.body
    assert scan_no_ct_constructs(rep.module)


def test_coercions_deleted_value_flows_through():
    m = text.parse_module(
        "(module (func (export \"f\") trusted (param i32) (result i32)"
        " local.get 0 s32.classify i32.declassify))")
    rep = strip_module(m)
    out = rep.module.funcs[0].body
    assert out == (ast.GetLocal(0),)


def _select_template_module(width: int) -> str:
    t = "s32" if width == 32 else "s64"
    return (f'(module (func (export "pick") (param {t} {t} s32) (result {t})'
            f" (select secret (local.get 0) (local.get 1) (local.get 2))))")


@pytest.mark.parametrize("width", [32, 64])
def test_secret_select_rewrite_matches_interpreter_select(width):
    # oracle: the interpreter's own select on the annotated module
    src = _select_template_module(width)
    tm_in = validate.validate_module(text.parse_module(src))
    rep = strip_module(tm_in)
    assert scan_no_ct_constructs(rep.module)
    names = [ast.mnemonic(i) for i in rep.module.funcs[0].body]
    assert "select" not in names and not any(n in ("br_if", "if", "br")
                                             for n in names)
    tm_out = validate.validate_module(rep.module)
    ts = S32 if width == 32 else S64
    tp = I32 if width == 32 else I64
    rng = random.Random(width)
    for cond in (0, 1, 2, 0xFFFFFFFF):
        for _ in range(250):
            v1 = rng.getrandbits(width)
            v2 = rng.getrandbits(width)
            s1, i1 = interp.instantiate(Store(), tm_in)
            s2, i2 = interp.instantiate(Store(), tm_out)
            a = interp.invoke(s1, i1, "pick",
                              [Value(ts, v1), Value(ts, v2), Value(S32, cond)])
            b = interp.invoke(s2, i2, "pick",
                              [Value(tp, v1), Value(tp, v2), Value(I32, cond)])
            assert a.results[0].bits == b.results[0].bits, (cond, v1, v2)


def test_rewrite_template_shape():
    seq = rewrite_secret_select(32, 5, 6)
    names = [ast.mnemonic(i) for i in seq]
    assert names[0] == "local.set" and names[1] == "local.set"
    assert "select" not in names and "if" not in names and "br_if" not in names
    seq64 = rewrite_secret_select(64, 5, 6)
    assert "i64.extend_i32_s" in [ast.mnemonic(i) for i in seq64]
    with pytest.raises(ValueError):
        rewrite_secret_select(16, 0, 1)


def test_fresh_locals_shared_across_selects():
    src = """(module (func (export "f") (param s32 s32 s32) (result s32)
      (select secret (local.get 0) (local.get 1) (local.get 2))
      (select secret (local.get 0) (local.get 1) (local.get 2))
      s32.add? ))"""
    src = src.replace("s32.add? ", "s32.xor")
    rep = strip_module(text.parse_module(src))
    f = rep.module.funcs[0]
    assert f.locals == (I32, I32)  # one cond + one 32-bit save, reused


def test_corpus_strips_clean(typed_corpus):
    for name, (entry, tm) in typed_corpus.items():
        rep = strip_module(tm)
        assert rep.warnings == [], name
        assert scan_no_ct_constructs(rep.module), name
        validate.validate_module(rep.module)
        assert rep.input_bytes >= rep.output_bytes, name
        assert 1.0 <= rep.size_ratio <= 1.5, (name, rep.size_ratio)


def test_untrusted_import_warns():
    m = text.parse_module(
        '(module (func (import "env" "f") (param s32) (result i32))'
        " (func (export \"go\") (param s32) (result i32)"
        " (call 0 (local.get 0))))")
    rep = strip_module(m)
    assert [w.code for w in rep.warnings] == ["W-IMPORT"]


def test_call_indirect_warns():
    m = text.parse_module(
        "(module (table 1 funcref) (func (export \"f\")"
        " (call_indirect (i32.const 0))))")
    rep = strip_module(m)
    assert [w.code for w in rep.warnings] == ["W-INDIRECT"]


def test_paranoid_mode_warnings():
    m = text.parse_module(
        '(module (memory (export "m") 1 secret)'
        ' (func (export "f") (param s32) (result s32)'
        " (s32.load (i32.const 0))))")
    rep = strip_module(m)
    assert rep.warnings == []  # normal mode: host is trusted
    rep = strip_module(m, paranoid=True)
    codes = sorted(w.code for w in rep.warnings)
    assert codes == ["W-EXPORT-SECRET-MEM", "W-EXPORT-SECRET-SIG"]


def test_observational_equivalence_on_corpus_sample(typed_corpus):
    from ctwasm.corpus import run_vector, strip_and_rerun
    for name, (entry, tm) in typed_corpus.items():
        runs = []
        for vec in entry.vectors:
            run_vector(tm, vec, runs=runs)
        ok, detail, _ = strip_and_rerun(entry, tm, runs)
        assert ok, (name, detail)


@pytest.mark.skipif(shutil.which("node") is None,
                    reason="node is not installed")
def test_stripped_binaries_accepted_by_independent_decoder(typed_corpus):
    """V8 decodes and compiles every stripped corpus binary."""
    replies = wabt_bridge.v8([binary.encode_module(strip_module(tm).module)
                              for _, tm in typed_corpus.values()])
    for name, reply in zip(typed_corpus, replies):
        assert reply["compiled"], (name, reply.get("error"))


def test_strip_equivalence_on_fuzz_modules():
    """Erasure never changes behavior: random annotated modules agree
    with their stripped versions on results, traps, and final memory."""
    import fuzzgen

    rng = random.Random(77)
    agreed = 0
    for seed in range(80):
        m = text.parse_module(fuzzgen.generate(seed, ct=True))
        tm = validate.validate_module(m, annotate=True)
        rep = strip_module(tm)
        assert scan_no_ct_constructs(rep.module), seed
        stripped = validate.validate_module(rep.module)
        image = {0: bytes(rng.getrandbits(8) for _ in range(64))} \
            if m.memory is not None else None
        for f in m.funcs:
            if not f.exports:
                continue
            args = [Value(t, rng.getrandbits(t.bits) if t.is_int else 0)
                    for t in f.type.params]
            pub_args = [Value(ast.public_type(v.type), v.bits) for v in args]
            s1, i1 = interp.instantiate(Store(), tm)
            s2, i2 = interp.instantiate(Store(), stripped)
            for s, i in ((s1, i1), (s2, i2)):
                if image:
                    data = s.mems[s.insts[i].mem_addr].data
                    data[0:64] = image[0]
            a = interp.invoke(s1, i1, f.exports[0], args, fuel=200_000)
            b = interp.invoke(s2, i2, f.exports[0], pub_args, fuel=200_000)
            assert (a.status, a.trap_kind) == (b.status, b.trap_kind), seed
            assert [v.bits for v in a.results] == \
                [v.bits for v in b.results], seed
            if m.memory is not None:
                ma = s1.mems[s1.insts[i1].mem_addr].data
                mb = s2.mems[s2.insts[i2].mem_addr].data
                assert bytes(ma) == bytes(mb), seed
            agreed += 1
    assert agreed > 100


def test_public_only_module_passes_through():
    src = ('(module (memory 1) (func (export "f") (param i32) (result i32)'
           " (i32.add (local.get 0) (i32.load (i32.const 0)))))")
    m = text.parse_module(src)
    rep = strip_module(m)
    assert rep.module == m
    assert rep.size_ratio == 1.0
