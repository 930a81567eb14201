"""Blocks nest at most ``ast.MAX_NESTING`` deep.  The bound is checked where
nesting enters (the text reader and parser, the decoder, and the validator
for hand-built ASTs), so deeper input fails with one typed error and every
recursive walk of an admitted module stays under Python's recursion limit."""

import pytest

from ctwasm import ast, binary, cli, infer, strip, text, validate

N = ast.MAX_NESTING


def _unfolded(depth: int) -> str:
    return "(module (func (export \"f\") " + "block " * depth + "nop" \
        + " end" * depth + "))"


def _folded(depth: int) -> str:
    return "(module (func (export \"f\") " + "(block " * depth + "(nop)" \
        + ")" * depth + "))"


def _folded_ifs(depth: int) -> str:
    return "(module (func (export \"f\") " \
        + "(if (i32.const 1) (then " * depth + "(nop)" + "))" * depth + "))"


_EMPTY_CODE = bytes.fromhex("0a04" "01" "02000b")  # one body: no locals, end


def _nested_bytes(depth: int) -> bytes:
    """A module of one function whose body nests ``depth`` empty blocks."""
    head = binary.encode_module(text.parse_module("(module (func))"))
    assert head.endswith(_EMPTY_CODE)
    body = b"\x00" + b"\x02\x40" * depth + b"\x0b" * (depth + 1)
    code = b"\x01" + binary.uleb(len(body)) + body
    return head[:-len(_EMPTY_CODE)] + b"\x0a" + binary.uleb(len(code)) + code


@pytest.mark.parametrize("form", ["unfolded", "folded", "folded ifs", "bytes"])
def test_a_module_nested_to_the_bound_passes_every_layer(form):
    if form == "bytes":
        m = binary.decode_module(_nested_bytes(N))
    else:
        make = {"unfolded": _unfolded, "folded": _folded,
                "folded ifs": _folded_ifs}[form]
        m = text.parse_module(make(N))
    tm = validate.validate_module(m, annotate=True)
    assert text.parse_module(text.print_module(m)) == m
    assert binary.decode_module(binary.encode_module(m)) == m
    plain = strip.strip_module(tm).module
    assert infer.infer_labels(plain).ok


@pytest.mark.parametrize("make", [_unfolded, _folded, _folded_ifs])
def test_text_nested_past_the_bound_is_a_parse_error(make):
    src = make(N + 1)
    with pytest.raises(text.ParseError) as e:
        text.parse_module(src)
    assert e.value.message == f"blocks nested deeper than {N}"
    # at the keyword of the first block too deep
    assert src[e.value.span.start:e.value.span.end] in ("block", "if")


def test_bytes_nested_past_the_bound_are_a_decode_error():
    with pytest.raises(binary.DecodeError) as e:
        binary.decode_module(_nested_bytes(N + 1))
    assert e.value.code == "NestingTooDeep"


def test_text_lists_nest_at_most_the_reader_bound():
    deepest = "(drop " + "(i32.eqz " * (text._MAX_LISTS - 4) + "(i32.const 0)" \
        + ")" * (text._MAX_LISTS - 3)
    text.parse_module(f"(module (func {deepest}))")
    with pytest.raises(text.ParseError, match="lists nested deeper than"):
        text.parse_module(f"(module (func (drop {deepest})))")


@pytest.mark.parametrize("name, data, commands", [
    ("unfolded.cwat", _unfolded(10_000), ("validate", "fmt")),
    ("folded.cwat", _folded(10_000), ("validate", "fmt")),
    ("deep.cwasm", _nested_bytes(10_000), ("validate", "decode", "fmt")),
], ids=["unfolded", "folded", "bytes"])
def test_a_10000_deep_nest_exits_1_with_one_line(name, data, commands,
                                                   tmp_path, capsys):
    path = tmp_path / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    for command in commands:
        assert cli.main([command, str(path)]) == 1, command
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, (command, err)
        assert "nested deeper than" in err, (command, err)
