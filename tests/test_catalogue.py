"""The instruction catalogue: every entry names itself, round-trips through
text and binary, and encodes by the secret-prefix rule."""

from ctwasm import ast, binary, text
from ctwasm.ast import CATALOGUE, mnemonic
from ctwasm.strip import strip_module
from ctwasm.validate import validate_module

COERCION_BYTES = {"s32.classify/i32": 0xC0, "s64.classify/i64": 0xC1,
                  "i32.declassify/s32": 0xC2, "i64.declassify/s64": 0xC3}


def _public_counterpart(name):
    # the secret prefix rule read off the spelling: s32/s64 become i32/i64
    return name.replace(" secret", "").replace("s32", "i32").replace("s64", "i64")


def _opcode_bytes(name):
    if name in binary.OPCODES:
        return bytes([binary.OPCODES[name]])
    if name in COERCION_BYTES:
        return bytes([binary.SECRET_PREFIX, COERCION_BYTES[name]])
    return bytes([binary.SECRET_PREFIX,
                  binary.OPCODES[_public_counterpart(name)]])


def _immediates(proto):
    match proto:
        case ast.Load(align=a, offset=o) | ast.Store(align=a, offset=o):
            return binary.uleb(a) + binary.uleb(o)
        case ast.MemorySize() | ast.MemoryGrow():
            return b"\x00"
    return b""


def test_catalogue_size():
    assert len(CATALOGUE) == 242


def test_catalogue_entries_round_trip():
    for name, proto in CATALOGUE.items():
        assert mnemonic(proto) == name
        m = text.parse_module(f"(module (memory 1) (func {name}))")
        assert m.funcs[0].body == (proto,), name
        assert text.parse_module(text.print_module(m)) == m, name
        data = binary.encode_module(m)
        assert binary.decode_module(data) == m, name
        body = b"\x00" + _opcode_bytes(name) + _immediates(proto) + b"\x0b"
        assert data.endswith(bytes([len(body)]) + body), name


def test_decoded_instructions_are_distinct_objects():
    # strip finds each secret select's pc by identity: a decoder that hands
    # out the shared prototype would give the s64 select the s32 one's width
    src = """(module (func (param s32 s32 s64 s64 s32) (result s64)
      (drop (select secret (local.get 0) (local.get 1) (local.get 4)))
      (select secret (local.get 2) (local.get 3) (local.get 4))))"""
    parsed = text.parse_module(src)
    decoded = binary.decode_module(binary.encode_module(parsed))
    assert decoded == parsed
    body = decoded.funcs[0].body
    assert len({id(ins) for ins in ast.iter_instrs(body)}) == 9
    stripped = strip_module(decoded).module
    validate_module(stripped)
    assert stripped == strip_module(parsed).module
