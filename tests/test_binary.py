from dataclasses import replace

import pytest

import fuzzgen
import wabt_bridge
from ctwasm import ast, binary, cli, interp, text, validate
from ctwasm.binary import DecodeError, decode_module, encode_module

HEADER = b"\0asm\x01\x00\x00\x00"


def test_spec_example_s32_add_bytes():
    m = text.parse_module("(module (func (param s32 s32) (result s32)"
                          " local.get 0 local.get 1 s32.add))")
    data = encode_module(m)
    assert bytes([0xFE, 0x6A]) in data  # prefix, then the public add opcode


def test_secret_ops_take_exactly_two_opcode_bytes():
    m = text.parse_module(
        "(module (memory 1 secret) (func (param s32) (result s32)"
        " (s32.load (i32.const 4)) local.get 0 s32.add))")
    data = encode_module(m)
    body = data[data.index(bytes([0xFE, 0x28])):]
    assert body[0] == 0xFE and body[1] == 0x28  # s32.load = prefix + i32.load


def test_empty_module_round_trips():
    assert encode_module(ast.Module()) == HEADER
    assert decode_module(HEADER) == ast.Module()


def test_round_trip_1000_fuzz_modules():
    for seed in range(1000):
        m = text.parse_module(fuzzgen.generate(seed, ct=seed % 2 == 0))
        assert decode_module(encode_module(m)) == m, f"seed {seed}"


def _export_section(data: bytes) -> list[tuple[str, str, int]]:
    """The export section of module bytes as (name, kind, index) triples,
    read without the decoder."""
    def uleb(at: int) -> tuple[int, int]:
        n = shift = 0
        while True:
            b = data[at]
            at += 1
            n |= (b & 0x7F) << shift
            shift += 7
            if b < 0x80:
                return n, at

    at = len(HEADER)
    while at < len(data):
        sid = data[at]
        size, at = uleb(at + 1)
        if sid != 7:
            at += size
            continue
        count, at = uleb(at)
        out = []
        for _ in range(count):
            n, at = uleb(at)
            name = data[at:at + n].decode()
            kind, (idx, at) = data[at + n], uleb(at + n + 1)
            out.append((name, ("func", "table", "memory", "global")[kind], idx))
        return out
    return []


def test_every_reader_and_writer_follows_the_one_export_list(corpus_entries):
    every_kind = text.parse_module("""(module
      (export "late-g" (global 0)) (global (export "g") i32 (i32.const 1))
      (memory (export "m") 1) (table (export "t") 1 funcref)
      (export "late-f" (func 1)) (func (export "f0")) (func (export "f1"))
      (export "late-m" (memory 0)))""")
    assert [name for name, _, _ in every_kind.exports()] == [
        "f0", "f1", "late-f", "t", "m", "late-m", "g", "late-g"]
    modules = [every_kind] + [e.module for e in corpus_entries] + [
        text.parse_module(fuzzgen.generate(seed, ct))
        for seed in range(200) for ct in (False, True)]
    for n, m in enumerate(modules):
        triples = list(m.exports())
        data = encode_module(m)
        assert _export_section(data) == triples, n
        assert list(decode_module(data).exports()) == triples, n
        printed = text.print_module(m)
        assert list(text.parse_module(printed).exports()) == triples, n
        tm, errors = validate.check_module(m)
        if errors:
            continue
        store, idx = interp.instantiate(interp.Store(), tm)
        inst = store.insts[idx]
        addrs = {"func": inst.func_addrs, "global": inst.global_addrs,
                 "table": [inst.table_addr], "memory": [inst.mem_addr]}
        assert inst.exports == {name: (kind, addrs[kind][i])
                                for name, kind, i in triples}, n


@pytest.mark.parametrize("kind, desc", [("table", "01700001"),
                                        ("memory", "020001")])
def test_a_second_imported_table_or_memory_is_malformed(kind, desc):
    entry = b"\x01m\x01x" + bytes.fromhex(desc)
    imports = b"\x02" + entry + entry
    with pytest.raises(DecodeError) as e:
        decode_module(HEADER + bytes([0x02, len(imports)]) + imports)
    assert (e.value.code, e.value.message) == (
        "MalformedSection", f"second {kind}")


ALL_KINDS = """(module
  (func $f (import "env" "f") (param i32) (result i32))
  (func (import "env" "t") trusted (param s32))
  (table (import "env" "tab") 2 8 funcref)
  (memory (import "env" "mem") 1 4 secret)
  (global (import "env" "g") i32)
  (global (import "env" "h") (mut s64))
  (func $d (export "d") (param i32) (result i32) (local i64 i64 f32 s32)
    (call $f (local.get 0)))
  (global (export "gg") i32 (global.get 0))
  (global (mut f64) (f64.const 1.5))
  (elem (i32.const 0) $d $f)
  (data (i32.const 8) "hi"))"""


def test_a_module_with_every_kind_of_import_and_field_has_pinned_bytes():
    m = text.parse_module(ALL_KINDS)
    data = encode_module(m)
    assert data.hex() == (
        "0061736d01000000"
        "010a0260017f017f5f016f00"  # types: untrusted i32->i32, trusted s32
        "023c06"  # six imports
        "03656e760166" "00" "00"  # func, type 0
        "03656e760174" "00" "01"  # func, type 1 (trusted)
        "03656e7603746162" "01" "70010208"  # table: funcref, min 2 max 8
        "03656e76036d656d" "02" "050104"  # memory: has-max | secret
        "03656e760167" "03" "7f00"  # global i32
        "03656e760168" "03" "6e01"  # global (mut s64)
        "03020100"  # one defined function, type 0
        "0612027f0023000b" "7c0144000000000000f83f0b"  # two defined globals
        "070a0201640002026767" "0302"  # export func 2 "d", global 2 "gg"
        "0908010041000b020200"  # elem (i32.const 0) 2 0
        "0a0e010c03027e017d016f200010000b0b"  # locals 2 i64, f32, s32; body
        "08010041080b026869")  # data (i32.const 8) "hi"
    assert decode_module(data) == m


@pytest.mark.parametrize("sections, code, offset, message", [
    # an imported table, then a table section
    ("020901016d0178" "01" "70" "0001" "0404" "01" "70" "0001",
     "MalformedSection", 22, "second table"),
    # an imported memory, then a memory section
    ("020801016d0178" "02" "0001" "0503" "01" "0001",
     "MalformedSection", 21, "second memory"),
    ("020601016d0178" "04", "MalformedSection", 16, "import kind 4"),
    ("0705010165" "04" "00", "MalformedSection", 15, "export kind 4"),
])
def test_field_and_kind_errors_have_their_code_offset_and_message(
        sections, code, offset, message):
    with pytest.raises(DecodeError) as e:
        decode_module(HEADER + bytes.fromhex(sections))
    assert (e.value.code, e.value.offset, e.value.message) == (
        code, offset, message)


def test_empty_table_and_memory_sections_decode_to_an_empty_module():
    """Wasm 1.0 declares both sections as vectors, so zero entries are
    valid; so is a module that defines no table and no memory."""
    assert decode_module(HEADER + bytes.fromhex("040100" "050100")) \
        == ast.Module()


@pytest.mark.parametrize("kind, sections, offset", [
    ("table", "0407" "02" "70" "0001" "70" "0001", 14),
    ("memory", "0505" "02" "0001" "0001", 13),
])
def test_a_section_defining_two_tables_or_memories_is_malformed(
        kind, sections, offset):
    with pytest.raises(DecodeError) as e:
        decode_module(HEADER + bytes.fromhex(sections))
    assert (e.value.code, e.value.offset, e.value.message) == (
        "MalformedSection", offset, f"second {kind}")


@pytest.mark.parametrize("section", [
    "020801016d0167037f02",  # an imported (global i32) with byte 0x02
    "0606017f0241000b",  # a defined one
])
def test_a_global_mutability_byte_past_one_is_malformed(section):
    with pytest.raises(DecodeError) as e:
        decode_module(HEADER + bytes.fromhex(section))
    assert (e.value.code, e.value.message) == (
        "MalformedSection", "global mutability 0x02")


def test_corpus_byte_stability(corpus_entries):
    # decode -> print -> parse -> encode is byte-stable
    for entry in corpus_entries:
        data = encode_module(entry.module)
        rt = encode_module(
            text.parse_module(text.print_module(decode_module(data))))
        assert rt == data, entry.name


def test_decode_error_unknown_secret_opcode():
    bad = HEADER + bytes([0x0A, 0x06, 0x01, 0x04, 0x00, 0xFE, 0xFF, 0x0B])
    with pytest.raises(DecodeError) as e:
        decode_module(bad)
    assert e.value.code == "UnknownSecretOpcode"
    assert e.value.offset > 8


def test_decode_error_truncated():
    m = text.parse_module("(module (func nop))")
    data = encode_module(m)
    with pytest.raises(DecodeError) as e:
        decode_module(data[:-2])
    assert e.value.code == "TruncatedSection"


def test_decode_error_unknown_opcode():
    bad = HEADER + bytes([0x0A, 0x05, 0x01, 0x03, 0x00, 0xFD, 0x0B])
    with pytest.raises(DecodeError) as e:
        decode_module(bad)
    assert e.value.code == "UnknownOpcode"


def test_decode_error_section_order():
    m1 = text.parse_module("(module (func nop))")
    data = bytearray(encode_module(m1))
    # duplicate the type section after the code section
    type_sec = bytes(data[8:8 + 2 + data[9]])
    with pytest.raises(DecodeError) as e:
        decode_module(bytes(data) + type_sec)
    assert e.value.code == "SectionOrderViolation"


def test_decode_error_bad_magic():
    with pytest.raises(DecodeError) as e:
        decode_module(b"\x00bad\x01\x00\x00\x00")
    assert e.value.code == "BadMagic"


@pytest.mark.parametrize("align", [20_000, (1 << 32) - 1])
def test_huge_alignment_exponent_fails_without_a_huge_integer(
        align, tmp_path, capsys):
    m = text.parse_module("(module (memory 1) (func (result i32)"
                          " (i32.load (i32.const 0))))")
    const, load = m.funcs[0].body
    m = replace(m, funcs=(replace(
        m.funcs[0], body=(const, replace(load, align=align))),))
    data = encode_module(m)
    with pytest.raises(DecodeError) as e:
        decode_module(data)
    assert e.value.code == "MalformedSection"
    assert e.value.message == f"alignment exponent {align}"
    _, errors = validate.check_module(m)
    assert [err.code for err in errors] == [
        validate.ErrorCode.AlignmentViolation]
    path = tmp_path / "m.cwasm"
    path.write_bytes(data)
    assert cli.main(["decode", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert f"alignment exponent {align}" in err


def test_memory_secrecy_flag_bit():
    m = text.parse_module("(module (memory 2 5 secret))")
    data = encode_module(m)
    sec_at = data.index(bytes([0x05]))  # memory section id
    # limits flags: has-max (0x01) | secret (0x04)
    assert data[sec_at + 3] == 0x05
    assert decode_module(data).memory.sec is ast.Secrecy.SECRET


def test_trusted_functype_code():
    m = text.parse_module("(module (func trusted))")
    assert 0x5F in encode_module(m)
    assert decode_module(encode_module(m)).funcs[0].type.trust \
        is ast.Trust.TRUSTED


def test_call_indirect_trust_flag():
    m = text.parse_module(
        "(module (table 1 funcref) (func trusted"
        " (call_indirect trusted (i32.const 0))))")
    data = encode_module(m)
    at = data.index(bytes([0x11]))
    assert data[at + 2] == 0x01  # trust flag where MVP keeps its zero byte
    assert decode_module(data) == m


def test_leb128_ranges():
    assert binary.uleb(0) == b"\x00"
    assert binary.uleb(624485) == b"\xe5\x8e\x26"
    assert binary.sleb(-1, 32) == b"\x7f"
    assert binary.sleb(0xFFFFFFFF, 32) == b"\x7f"  # canonical signed payload
    with pytest.raises(binary.EncodeError):
        binary.uleb(1 << 32)
    with pytest.raises(binary.EncodeError):
        binary.sleb(1 << 64, 64)


def test_encoding_table_is_injective():
    # public opcodes unique
    assert len(set(binary.OPCODES.values())) == len(binary.OPCODES)
    # value type codes unique
    assert len(set(binary.VALTYPE_CODES.values())) == len(binary.VALTYPE_CODES)
    # dedicated secret payload bytes are distinct and do not collide with
    # prefixed public opcodes
    specials = binary.ENCODING_TABLE["secret_specials"]
    assert len(set(specials.values())) == len(specials)
    for b in (binary.OP_CLASSIFY_S32, binary.OP_CLASSIFY_S64,
              binary.OP_DECLASSIFY_I32, binary.OP_DECLASSIFY_I64):
        assert b not in binary.OPCODES.values()
    # standard codes kept for the public types
    assert binary.VALTYPE_CODES[ast.I32] == 0x7F
    assert binary.VALTYPE_CODES[ast.S32] == 0x6F
    assert binary.VALTYPE_CODES[ast.S64] == 0x6E


@pytest.mark.skipif(not wabt_bridge.available(),
                    reason="the wabt npm package is not installed")
def test_public_only_matches_reference_assembler():
    sources = [fuzzgen.generate(seed) for seed in range(60)]
    for src, rep in zip(sources, wabt_bridge.wabt(sources)):
        assert rep["ok"], rep
        assert encode_module(text.parse_module(src)) == \
            bytes.fromhex(rep["bytes"])


def test_wasm_extension_accepted_for_public_input(tmp_path):
    src = '(module (func (export "f") (result i32) i32.const 3))'
    data = encode_module(text.parse_module(src))
    p = tmp_path / "pub.wasm"
    p.write_bytes(data)
    assert decode_module(p.read_bytes()).funcs[0].exports == ("f",)
