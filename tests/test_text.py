import re
from dataclasses import replace

import pytest

import fuzzgen
from ctwasm import ast, interp, text
from ctwasm.ast import Secrecy, Trust
from ctwasm.text import ParseError, parse_module, print_module


def test_spec_example_secret_result():
    m = parse_module("(module (func (result s32) (s32.const 1)))")
    assert m.funcs[0].type.results == (ast.S32,)
    assert m.funcs[0].type.trust is Trust.UNTRUSTED


def test_spec_example_secret_memory():
    m = parse_module("(module (memory 1 secret))")
    assert m.memory.sec is Secrecy.SECRET
    assert m.memory.min == 1


def test_spec_example_trusted_declassify():
    m = parse_module(
        "(module (func trusted (param s32) (result i32)"
        " get_local 0 i32.declassify))")
    f = m.funcs[0]
    assert f.type.trust is Trust.TRUSTED
    assert f.body == (ast.GetLocal(0), ast.Declassify(ast.I32, ast.S32))


def test_select_secret_prints_with_annotation():
    m = parse_module("(module (func (param s32 s32 s32) (result s32)"
                     " local.get 0 local.get 1 local.get 2 select secret))")
    out = print_module(m)
    assert "select secret" in out


def test_public_module_prints_no_ct_keywords():
    m = parse_module(
        '(module (memory 1) (func (export "f") (param i32) (result i32)'
        " local.get 0 i32.load))")
    out = print_module(m)
    for kw in ("s32", "s64", "secret", "trusted", "classify", "declassify"):
        assert kw not in out


@pytest.mark.parametrize("ct", [False, True])
def test_round_trip_parse_print_identity(ct):
    for seed in range(150):
        src = fuzzgen.generate(seed, ct=ct)
        m = parse_module(src)
        printed = print_module(m)
        again = parse_module(printed)
        assert again == m, f"seed {seed}"
        assert print_module(again) == printed, f"seed {seed} (idempotence)"


@pytest.mark.parametrize("name", ['f"', "back\\slash", "ctl\x01\n",
                                  "caf\u00e9 \u4e2d"])
def test_export_and_import_names_are_escaped_when_printed(name):
    m = parse_module('(module (import "m" "f" (func)) (func (export "e"))'
                     ' (memory (export "mem") 1)'
                     ' (global (export "g") i32 (i32.const 0)))')
    imported, defined = m.funcs
    m = replace(m, funcs=(replace(imported, imported=(name, name + "f")),
                          replace(defined, exports=(name,))),
                memory=replace(m.memory, exports=(name + "m",)),
                globals=(replace(m.globals[0], exports=(name + "g",)),))
    assert parse_module(print_module(m)) == m


def test_corpus_files_are_canonical_after_one_pass(corpus_entries):
    for entry in corpus_entries:
        printed = print_module(entry.module)
        again = parse_module(printed)
        assert again == entry.module, entry.name
        assert print_module(again) == printed, entry.name


def test_folded_and_unfolded_forms_agree():
    folded = parse_module(
        "(module (func (param i32 i32) (result i32)"
        " (i32.add (local.get 0) (local.get 1))))")
    unfolded = parse_module(
        "(module (func (param i32 i32) (result i32)"
        " local.get 0 local.get 1 i32.add))")
    assert folded == unfolded


def test_legacy_aliases_accepted():
    legacy = parse_module(
        "(module (memory 1) (func (param i32) (result i32)"
        " get_local 0 i32.load current_memory drop))")
    modern = parse_module(
        "(module (memory 1) (func (param i32) (result i32)"
        " local.get 0 i32.load memory.size drop))")
    assert legacy == modern
    old_cvt = parse_module("(module (func (param i64) (result i32)"
                           " local.get 0 i32.wrap/i64))")
    new_cvt = parse_module("(module (func (param i64) (result i32)"
                           " local.get 0 i32.wrap_i64))")
    assert old_cvt == new_cvt


def test_classify_shorthand():
    a = parse_module("(module (func (param i32) (result s32)"
                     " local.get 0 s32.classify))")
    b = parse_module("(module (func (param i32) (result s32)"
                     " local.get 0 s32.classify/i32))")
    assert a == b


def test_call_indirect_type_use():
    a = parse_module(
        "(module (type $sig (func (param i32) (result i32)))"
        " (table 1 funcref)"
        " (func (param i32) (result i32)"
        "  (call_indirect (type $sig) (local.get 0) (i32.const 0))))")
    b = parse_module(
        "(module (table 1 funcref)"
        " (func (param i32) (result i32)"
        "  (call_indirect (param i32) (result i32)"
        "   (local.get 0) (i32.const 0))))")
    assert a == b
    with pytest.raises(ParseError):
        parse_module(
            "(module (type $sig (func (param i64)))"
            " (table 1 funcref)"
            " (func (call_indirect (type $sig) (param i32) (i32.const 0))))")


def test_syntax_error_carries_position_and_expectations():
    with pytest.raises(ParseError) as e:
        parse_module("(module (func (result i32) i32.const))", "bad.cwat")
    assert "bad.cwat:" in str(e.value)
    assert e.value.span is not None

    with pytest.raises(ParseError) as e:
        parse_module("(module (func (block nop)")
    assert "unclosed" in str(e.value)


def test_unknown_type_keyword():
    with pytest.raises(ParseError) as e:
        parse_module("(module (func (param q32)))")
    assert "unknown type keyword" in str(e.value)
    assert "s32" in e.value.expected or "i32" in e.value.expected


def test_duplicate_names_rejected():
    with pytest.raises(ParseError) as e:
        parse_module("(module (func $f) (func $f))")
    assert "duplicate" in str(e.value)
    with pytest.raises(ParseError):
        parse_module('(module (func (export "x")) (func (export "x")))')


def test_start_section_not_supported():
    with pytest.raises(ParseError) as e:
        parse_module("(module (func $f) (start $f))")
    assert "start" in str(e.value)


def test_spans_attached_to_instructions():
    m = parse_module("(module\n  (func\n    nop\n  )\n)")
    ins = m.funcs[0].body[0]
    assert ins.span is not None
    assert ins.span.line == 3
    assert ins.span.start <= ins.span.end


def test_memarg_spellings():
    m = parse_module("(module (memory 1) (func (param i32) (result i64)"
                     " local.get 0 i64.load32_u offset=8 align=2))")
    load = m.funcs[0].body[1]
    assert load.offset == 8 and load.align == 1 and load.pack == 32
    with pytest.raises(ParseError):
        parse_module("(module (memory 1) (func (i32.const 0) i32.load align=3"
                     " drop))")


def test_alignment_of_2_to_the_32_or_more_is_a_parse_error():
    for align in (1 << 32, 1 << 40):
        with pytest.raises(ParseError, match="below 2\\^32"):
            parse_module("(module (memory 1) (func (i32.const 0) i32.load"
                         f" align={align} drop))")
    m = parse_module("(module (memory 1) (func (i32.const 0) i64.load"
                     f" align={1 << 31} drop))")
    assert m.funcs[0].body[1].align == 31


def test_data_segment_escapes_round_trip():
    m = parse_module('(module (memory 1) (data (i32.const 0)'
                     ' "a\\00\\ff\\"\\\\z"))')
    assert m.data[0].data == b'a\x00\xff"\\z'
    assert parse_module(print_module(m)) == m


_PINNED_SRC = (
    "(module $m\r\n"
    "\t(; outer (; nested\r\n"
    "   still nested ;) back\t;)\r\n"
    "  (memory 1)\r\n"
    '  (data (i32.const 8) "two\n'
    'lines")  ;; a string across lines\r\n'
    "\t(global $g (mut i32) (i32.const 7))\r\n"
    "\t(func (export \"f\") (param i32) (result i32)\r\n"
    "\t\tlocal.get 0 ;; trailing\r\n"
    "\t\t(i32.add\t(i32.const 1)\r\n"
    "\t\t         (i32.const 2))\r\n"
    "\t\ti32.add\r\n"
    "\t\tblock $b (result i32) (; inline ;) global.get $g\tend\r\n"
    "\t\ti32.add\r\n"
    "\t\t(if (result i32) (local.get 0)\r\n"
    "\t\t  (then (i32.const 4)) (else (i32.const 5)))\r\n"
    "\t\ti32.add))\r\n"
    ";; last comment, no newline"
)


def _walk(instrs):
    for ins in instrs:
        yield ins
        for arm in ("body", "then", "else_"):
            yield from _walk(getattr(ins, arm, ()))


def test_positions_through_comments_strings_tabs_and_crlf():
    m = parse_module(_PINNED_SRC, "pin.cwat")
    got = [(type(ins).__name__, ins.span.start, ins.span.end, ins.span.line,
            ins.span.col)
           for seq in (m.data[0].offset, m.globals[0].init, m.funcs[0].body)
           for ins in _walk(seq)]
    assert got == [
        ("Const", 84, 93, 5, 10),
        ("Const", 160, 169, 7, 24),
        ("GetLocal", 223, 232, 9, 3),
        ("Const", 260, 269, 10, 13),
        ("Const", 286, 295, 11, 13),
        ("Binop", 251, 258, 10, 4),
        ("Binop", 303, 310, 12, 3),
        ("Block", 314, 319, 13, 3),
        ("GetGlobal", 349, 359, 13, 38),
        ("Binop", 370, 377, 14, 3),
        ("GetLocal", 399, 408, 15, 21),
        ("If", 381, 459, 15, 3),
        ("Const", 424, 433, 16, 12),
        ("Const", 445, 454, 16, 33),
        ("Binop", 463, 470, 17, 3),
    ]
    assert m.data[0].data == b"two\nlines"


@pytest.mark.parametrize("src, message", [
    ("(module\r\n\t(func\r\n\t\t; nop))",
     "pin.cwat:3:3: unexpected character ';'"),
    ("(module\n  (; open (; nested ;)\n (func))",
     "pin.cwat:2:3: unterminated block comment"),
    ("(module (func))\r\n\t)", "pin.cwat:2:2: unbalanced ')'"),
    ("(module (func (block\n nop)", "pin.cwat:1:9: unclosed '('"),
])
def test_reader_errors_name_their_position(src, message):
    with pytest.raises(ParseError) as e:
        parse_module(src, "pin.cwat")
    assert str(e.value) == message


@pytest.mark.parametrize("kind, rest", [
    ("func", "trusted (param $x s32) (param i64) (result i32)"),
    ("global", "(mut s64)"),
    ("memory", "1 2 secret"),
    ("table", "2 funcref"),
])
def test_import_form_parses_as_the_inline_form(kind, rest):
    user = "(func (export \"u\") (call $x (s32.const 1) (i64.const 2)) drop)" \
        if kind == "func" else ""
    imported = parse_module(
        f'(module (import "m" "n" ({kind} $x {rest})) {user})')
    inline = parse_module(
        f'(module ({kind} $x (import "m" "n") {rest}) {user})')
    assert imported == inline
    fields = {"func": imported.funcs, "global": imported.globals,
              "memory": (imported.memory,), "table": (imported.table,)}[kind]
    assert fields[0].imported == ("m", "n")


@pytest.mark.parametrize("src", [
    "(module (type (func trusted)) (func (type 0)))",
    "(module (type (func trusted)) (func (type 0) trusted))",
    "(module (type (func trusted)) (func trusted (type 0)))",
    "(module (type (func trusted (param i32))) (func (type 0) (param i32)))",
])
def test_type_use_keeps_the_trust_it_is_given(src):
    f = parse_module(src).funcs[0]
    assert f.type.trust is Trust.TRUSTED
    assert f.type.params == (() if "param" not in src else (ast.I32,))


@pytest.mark.parametrize("src", [
    "(module (type (func)) (func (type 0) trusted))",
    "(module (type (func)) (func trusted (type 0)))",
    "(module (type (func trusted)) (func (type 0) untrusted))",
    "(module (type (func trusted)) (func untrusted (type 0) trusted))",
    "(module (type (func trusted)) (table 1 funcref)"
    " (func (call_indirect untrusted (type 0) (i32.const 0))))",
])
def test_trust_keyword_contradicting_the_type_use_is_rejected(src):
    with pytest.raises(ParseError) as e:
        parse_module(src)
    assert "trust keyword disagrees with type use" in str(e.value)


def test_call_indirect_takes_the_trust_of_its_type_use():
    m = parse_module("(module (type (func trusted)) (table 1 funcref)"
                     " (func (call_indirect (type 0) (i32.const 0))))")
    assert m.funcs[0].body[-1].type.trust is Trust.TRUSTED


def test_list_in_a_type_position_names_no_type():
    with pytest.raises(ParseError) as e:
        parse_module("(module (func (param (i32))))", "pin.cwat")
    assert str(e.value).startswith("pin.cwat:1:22: expected a value type")
    assert "i32" in e.value.expected


@pytest.mark.parametrize("literal, bits", [
    ("i32:1_000", 1000), ("i64:-0x1_F", (1 << 64) - 0x1F),
    ("f32:1.", 0x3F800000), ("f64:1e1_0", 0x4202A05F20000000),
    ("f64:0x1.p3", 0x4020000000000000), ("f32:0x1P+2", 0x40800000),
    ("f32:nan:0x1_0", 0x7F800010), ("f64:-nan:0x1", 0xFFF0000000000001),
])
def test_a_literal_in_the_text_grammar_reads_alike_as_const_and_argument(
        literal, bits):
    t, _, raw = literal.partition(":")
    m = parse_module(f"(module (func (result {t}) ({t}.const {raw})))")
    assert m.funcs[0].body[0].bits == bits
    assert interp.parse_value(literal).bits == bits


@pytest.mark.parametrize("literal", [
    "i32:1__0", "i64:2_", "s32:_1", "i32:0x_1", "i32:0X10",
    "f64:1__0", "f32:2_", "f32:1_.5", "f64:1._5", "f32:0x.8p0", "f64:.5",
    "f32:NaN", "f64:nan:0x", "f32:nan:0xzz", "f64:1e", "f32:0x1p",
])
def test_a_literal_outside_the_text_grammar_fails_as_const_and_argument(
        literal):
    t, _, raw = literal.partition(":")
    kind = "float" if t[0] == "f" else "integer"
    message = re.escape(f"bad {kind} literal {raw}") + "$"
    with pytest.raises(ParseError, match=message):
        parse_module(f"(module (func (drop ({t}.const {raw}))))")
    with pytest.raises(ValueError, match=message):
        interp.parse_value(literal)


_LOAD = "(module (memory 1) (func (drop (i32.load {} (i32.const 0)))))"


@pytest.mark.parametrize("template, good, bad, message", [
    ("(module (func (local i32) (drop (local.get {}))))", "0_0", "0__0",
     "expected local index"),
    ("(module (memory {}))", "1", "1_", "expected limits"),
    (_LOAD, "offset=1_6", "offset=1__6", "offset must be"),
    (_LOAD, "align=0x4", "align=0x_4", "alignment must be"),
])
def test_indices_limits_and_memargs_take_the_integer_grammar(
        template, good, bad, message):
    parse_module(template.format(good))
    with pytest.raises(ParseError, match=message):
        parse_module(template.format(bad))


@pytest.mark.parametrize("fields", [
    "(param $p i32) (param $p i32)",
    "(param $p i32) (local $p i32)",
    "(local $x i32) (local $x i64)",
])
def test_duplicate_local_names_rejected(fields):
    with pytest.raises(ParseError, match=r"duplicate local name \$[px]"):
        parse_module(f"(module (func {fields}))")


def test_locals_resolve_by_name_and_index_across_params_and_locals():
    m = parse_module("""(module (func (param $a i32) (param i64) (local $c i32)
      (local.get $c) (local.set $a) (local.get 1) (drop) (local.get 2) (drop)))""")
    assert [ins.local for ins in ast.iter_instrs(m.funcs[0].body)
            if hasattr(ins, "local")] == [2, 0, 1, 2]


@pytest.mark.parametrize("src", ["block $a end $b", "block end $b",
                                 "loop $a end $b", "i32.const 0 if $a end $b",
                                 "i32.const 0 if $a else end $b"])
def test_end_label_must_name_its_block(src):
    with pytest.raises(ParseError, match=r"end \$b does not close"):
        parse_module(f"(module (func {src}))")


def test_end_label_naming_its_block_is_accepted():
    m = parse_module("(module (func block $a loop $b end $b end $a))")
    assert m == parse_module("(module (func block loop end end))")
