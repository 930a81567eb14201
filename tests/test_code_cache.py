"""Compiled code is shared by functions with equal flat code, and each
corpus source is parsed once per content."""

import shutil

import pytest

from ctwasm import corpus, interp, text, validate
from ctwasm.interp import Store, Value, parse_value

SRC = """
(module (memory 1 secret)
  (func (export "mix") (param s32 i32) (result s32)
    (local s32)
    (local.set 2 (s32.xor (local.get 0) (s32.const 0x9e3779b9)))
    (block (loop
      (br_if 1 (i32.eqz (local.get 1)))
      (local.set 2 (s32.add (s32.rotl (local.get 2) (s32.const 5))
                            (s32.load (local.get 1))))
      (local.set 1 (i32.sub (local.get 1) (i32.const 1)))
      (br 0)))
    (local.get 2)))
"""


def _run(tm, export="mix", args=("s32:7", "i32:40")):
    store, idx = interp.instantiate(Store(), tm)
    return interp.invoke(store, idx, export,
                         [parse_value(a) for a in args])


@pytest.fixture
def counts(monkeypatch):
    """Counts block builds and parses from here on."""
    n = {"build": 0, "parse": 0}
    build, parse = interp._Block.build, text.parse_module

    def counted_build(self):
        n["build"] += 1
        return build(self)

    def counted_parse(*args, **kwargs):
        n["parse"] += 1
        return parse(*args, **kwargs)

    monkeypatch.setattr(interp._Block, "build", counted_build)
    monkeypatch.setattr(text, "parse_module", counted_parse)
    return n


def test_two_validations_of_one_source_share_compiled_code(counts):
    first = validate.validate_module(text.parse_module(SRC), annotate=True)
    second = validate.validate_module(text.parse_module(SRC))
    assert first.funcs[0] is not second.funcs[0]
    a = _run(first)
    assert a.status == "done" and a.steps > 400
    built = counts["build"]
    b = _run(second)
    assert counts["build"] == built
    assert second.funcs[0].compiled is first.funcs[0].compiled
    assert (b.status, b.results, b.trace, b.steps) == \
        (a.status, a.results, a.trace, a.steps)


def test_equal_code_at_another_index_shares_too():
    m = text.parse_module(
        '(module (func (result i32) (i32.const 5))'
        ' (func (export "f") (result i32) (i32.const 5)))')
    tm = validate.validate_module(m)
    assert _run(tm, "f", ()).results == [Value(m.funcs[1].type.results[0], 5)]
    other = validate.validate_module(text.parse_module(
        '(module (func (export "g") (result i32) (i32.const 5)))'))
    _run(other, "g", ())
    assert other.funcs[0].compiled is tm.funcs[1].compiled


def test_second_run_corpus_builds_no_block_and_parses_nothing(corpus_root,
                                                               counts):
    assert corpus.run_corpus(corpus_root, trials=2, seed=3)["ok"]
    counts.update(build=0, parse=0)
    assert corpus.run_corpus(corpus_root, trials=2, seed=4)["ok"]
    assert counts == {"build": 0, "parse": 0}


def test_an_edited_source_is_parsed_again(corpus_root, tmp_path, counts):
    shutil.copytree(corpus_root / "tea", tmp_path / "tea")
    impl = tmp_path / "tea" / "impl.cwat"
    first = corpus.load_entry(tmp_path / "tea")
    again = corpus.load_entry(tmp_path / "tea")
    assert again.module is first.module
    assert counts["parse"] == 1
    impl.write_text(impl.read_text() + "\n;; edited\n")
    edited = corpus.load_entry(tmp_path / "tea")
    assert counts["parse"] == 2
    assert edited.module is not first.module


def test_the_cache_keeps_at_most_its_bound(counts):
    n = interp.CODE_CACHE_SIZE + 8
    srcs = [f'(module (func (export "f") (result i32) (i32.const {k})'
            f' (i32.const 3) (i32.mul)))' for k in range(n)]
    outcomes = []
    for src in srcs:
        tm = validate.validate_module(text.parse_module(src))
        out = _run(tm, "f", ())
        outcomes.append((out.status, out.results, out.trace, out.steps))
        assert interp._code_of.cache_info().currsize <= \
            interp.CODE_CACHE_SIZE
    first = validate.validate_module(text.parse_module(srcs[0]))
    built = counts["build"]
    out = _run(first, "f", ())
    assert counts["build"] > built  # evicted, so compiled again
    assert (out.status, out.results, out.trace, out.steps) == outcomes[0]
    assert out.results[0].bits == 0
    assert interp._code_of.cache_info().currsize <= interp.CODE_CACHE_SIZE
