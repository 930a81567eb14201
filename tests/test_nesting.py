"""Blocks nest at most ``ast.MAX_NESTING`` deep.  The bound is checked where
nesting enters (the text reader and parser, the decoder, and the validator
for hand-built ASTs), so deeper input fails with one typed error.  The
flattener, printer and encoder read ``ast.unfold`` and do not recurse; the
parser, decoder and ``ast.rebuild`` do, and on an admitted module they stay
under Python's recursion limit."""

import sys

import pytest

from ctwasm import ast, binary, cli, flat, infer, strip, text, validate

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


def _hand_built(depth: int) -> ast.Module:
    """A module whose one function nests ``depth`` blocks, built without
    the parser or decoder, which would bound it."""
    body: tuple = (ast.Nop(),)
    for _ in range(depth):
        body = (ast.Block(None, body),)
    ft = ast.FuncType(ast.Trust.UNTRUSTED, (), ())
    return ast.Module(funcs=(ast.Func(ft, (), body),))


def test_inference_on_a_10000_deep_hand_built_ast_is_input_invalid():
    m = _hand_built(10_000)
    assert sum(1 for _ in ast.iter_instrs(m.funcs[0].body)) == 10_001
    with pytest.raises(infer.InputInvalid, match="NestingTooDeep"):
        infer.infer_labels(m)


@pytest.mark.parametrize("write", [text.print_module, binary.encode_module],
                         ids=["print", "encode"])
def test_writing_a_hand_built_ast_past_the_bound_is_nesting_too_deep(write):
    assert write(_hand_built(N))
    for depth in (N + 1, 10_000):
        with pytest.raises(ast.NestingTooDeep, match=ast.TOO_DEEP):
            write(_hand_built(depth))


def test_iter_instrs_walks_in_pre_order():
    m = text.parse_module("""(module (func (result i32)
      (block (loop (nop) (if (i32.const 1) (then (drop (i32.const 2)))
                                         (else (block (nop)))))
             (br 0))
      (i32.const 3)))""")
    names = [ast.mnemonic(ins) for ins in ast.iter_instrs(m.funcs[0].body)]
    assert names == ["block", "loop", "nop", "i32.const", "if", "i32.const",
                     "drop", "block", "nop", "br", "i32.const"]


def test_unfold_yields_each_depth_and_marker_in_binary_order():
    m = text.parse_module("""(module (func (result i32)
      (block (loop (nop) (if (i32.const 1) (then (drop (i32.const 2)))
                                         (else (block (nop)))))
             (br 0))
      (i32.const 3)))""")
    items = [(d, x if x in (ast.ELSE, ast.END) else ast.mnemonic(x))
             for d, x in ast.unfold(m.funcs[0].body)]
    assert items == [
        (0, "block"), (1, "loop"), (2, "nop"), (2, "i32.const"), (2, "if"),
        (3, "i32.const"), (3, "drop"), (3, ast.ELSE), (3, "block"),
        (4, "nop"), (4, ast.END), (3, ast.END), (2, ast.END), (1, "br"),
        (1, ast.END), (0, "i32.const")]


def _frames() -> int:
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


_WRITERS = pytest.mark.parametrize("write", [
    lambda m: flat.flatten_func(0, m.funcs[0]), text.print_module,
    binary.encode_module], ids=["flatten", "print", "encode"])


def _module(body: tuple) -> ast.Module:
    ft = ast.FuncType(ast.Trust.UNTRUSTED, (), ())
    return ast.Module(funcs=(ast.Func(ft, (), body),))


@_WRITERS
def test_writers_take_the_deepest_nest_in_a_few_frames(write):
    body: tuple = (ast.Nop(),)
    for level in range(N):  # blocks and ifs with an else, alternating
        body = (ast.Block(None, body),) if level % 2 else \
            (ast.Const(ast.I32, 1), ast.If(None, body, (ast.Nop(),)))
    m = _module(body)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frames() + 60)
    try:
        assert write(m)
    finally:
        sys.setrecursionlimit(limit)


@_WRITERS
def test_an_empty_body_past_the_bound_is_too_deep_for_every_writer(write):
    body: tuple = ()
    for _ in range(N + 1):
        body = (ast.Block(None, body),)
    with pytest.raises(ast.NestingTooDeep, match=ast.TOO_DEEP):
        write(_module(body))
