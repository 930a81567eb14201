"""Malformed module text fails with ParseError and nothing else."""

import random
import re

import pytest

from ctwasm.text import ParseError, parse_module

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[()]|[^\s()";]+')
_INSERTS = '()";$\\ \n0x_.=-+ainu{}'


def _mutate(rng: random.Random, src: str) -> str:
    spans = [m.span() for m in _TOKEN.finditer(src)]
    a, b = rng.choice(spans)
    kind = rng.randrange(5)
    if kind == 0:  # delete a token
        return src[:a] + src[b:]
    if kind == 1:  # duplicate a token
        return src[:b] + " " + src[a:b] + src[b:]
    if kind == 2:  # swap two tokens
        (a, b), (c, d) = sorted((rng.choice(spans), rng.choice(spans)))
        if c < b:
            return src
        return src[:a] + src[c:d] + src[b:c] + src[a:b] + src[d:]
    if kind == 3:  # truncate at a token
        return src[:a]
    at = rng.randrange(len(src) + 1)  # insert one character
    return src[:at] + rng.choice(_INSERTS) + src[at:]


def test_mutated_corpus_sources_raise_only_parse_error(corpus_entries):
    sources = [(e.path / "impl.cwat").read_text() for e in corpus_entries]
    rng = random.Random(2018)
    for n in range(3000):
        mutated = _mutate(rng, rng.choice(sources))
        try:
            parse_module(mutated)
        except ParseError:
            pass
        except Exception as e:  # pragma: no cover - the failure report
            pytest.fail(f"mutation {n}: {type(e).__name__}: {e}\n{mutated}")


@pytest.mark.parametrize("src", [
    "(module (func ()))",
    "(module (func call))",
    "(module (func local.get))",
    "(module (func global.set))",
    "(module (func (local.get (i32.const 0))))",
    "(module (func (call (nop))))",
    "(module (func (call_indirect (type (nop)))))",
    "(module (export))",
    '(module (import "a"))',
    '(module (export "a" (func)))',
    '(module (import "a" "b" x))',
    '(module (import "a" "b" (global)))',
    "(module (global (mut)))",
    '(module (memory 1) (data (i32.const 0) "\\ag"))',
    '(module (memory 1) (data (i32.const 0) "\\u{110000}"))',
    '(module (memory 1) (data (i32.const 0) "\\u{d800}"))',
    '(module (func (export "\\ff")))',
    '(module (memory 1) (data (i32.const 0) "\\a"))',
    "(module (memory 1) (data (i32.const 0) 5))",
    "(module (func (f32.const nan:0x800000) drop))",
    '(module (func) (import "a" "b" (func)))',
    "(module (func (f32.const 1e40) drop))",
    "(module (func (f64.const 1e400) drop))",
    "(module (memory -1))",
    "(module (memory 1 4294967296))",
    "(module (table 4294967296 funcref))",
    "(module (global (mut i32 i64) (i32.const 0)))",
    '(module (import "a" "b" (func) (func)))',
    '(module (func) (export "a" (func 0) (func 0)))',
    '(module (func) (export "a" (func 0 1)))',
    '(module (memory 1) (data 1 (i32.const 0) "x"))',
    '(module (memory 1) (data x (i32.const 0) "x"))',
    "(module (table 1 funcref) (func) (elem 1 (i32.const 0) 0))",
    '(module (import "a" "b" (table 1 garbage)))',
    '(module (import "a" "b" (table 1)))',
    '(module (import "a" "b" (memory 1 secret junk)))',
    '(module (import "a" "b" (global i32 (i32.const 0))))',
    "(module (type (func (param i32) garbage)))",
])
def test_malformed_text_raises_parse_error(src):
    with pytest.raises(ParseError):
        parse_module(src)


def test_memarg_offset_must_fit_u32():
    ok = "(module (memory 1) (func (result i32) (i32.load offset={} (i32.const 0))))"
    assert parse_module(ok.format((1 << 32) - 1)).funcs[0].body[1].offset \
        == (1 << 32) - 1
    for bad in ("-1", str(1 << 32)):
        with pytest.raises(ParseError):
            parse_module(ok.format(bad))


_LONG = "1" + "0" * 5000  # more digits than Python converts to an int


@pytest.mark.parametrize("src, message", [
    (f"(module (func (result i32) (i32.const {_LONG})))", "bad integer literal"),
    (f"(module (func (local.get {_LONG})))", "expected local index"),
    (f"(module (memory {_LONG}))", "expected limits"),
    ("(module (memory 1) (func (result i32)"
     f" (i32.load offset={_LONG} (i32.const 0))))", "offset must be"),
    ("(module (memory 1) (func (result i32)"
     f" (i32.load align={_LONG} (i32.const 0))))", "alignment must be"),
], ids=["constant", "index", "limit", "offset", "align"])
def test_over_long_decimal_literals_are_parse_errors(src, message, tmp_path,
                                                      capsys):
    from ctwasm import cli

    with pytest.raises(ParseError, match=message) as e:
        parse_module(src)
    # at the literal's span
    assert src[e.value.span.start:e.value.span.end].endswith(_LONG)
    path = tmp_path / "long.cwat"
    path.write_text(src)
    assert cli.main(["validate", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_decimal_literals_may_have_leading_zeros():
    m = parse_module("(module (memory 01) (func (param i32) (result i32)"
                     " (i32.load offset=010 (local.get 00)) (i32.const 007)"
                     " (i32.add)))")
    get, load, const, _ = m.funcs[0].body
    assert (m.memory.min, get.local, load.offset, const.bits) == (1, 0, 10, 7)
