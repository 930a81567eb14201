"""Malformed JSON sidecars fail with a one-line error and exit code 1.

Seeded mutations of an inference hints file and of a secrets sidecar go
through the command line; ``cli.main`` must return an exit code each time
and let no exception escape.
"""

import json
import random
import re

import pytest

from ctwasm import cli

_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}\[\],:]|[^\s{}\[\],:"]+')
_INSERTS = '{}[],:"\\ 0-9.eE+-tfn'
_VALUES = (None, True, -1, 0, 7, 1.5, 1e400, "", "zz", "public", "7", "-1",
           "i32:0", "f32:1e40", "s32:x", [], [1, 2], {}, {"param": 0})

HINTS = {"exports": {"f": {"params": {"0": "public", "1": "public"},
                           "result": "public"}},
         "memory": "public", "trusted": ["f"]}
SECRETS = {"invoke": "f", "args": ["s32:0", "i32:16"], "image": {"0": "00ff"},
           "secrets": {"x": {"param": 0}, "buf": {"offset": 16, "length": 4}},
           "fuel": 1000}
MODULE = """(module (memory 1 secret)
  (func (export "f") (param s32 i32) (result s32)
    (s32.add (local.get 0) (s32.load (local.get 1)))))"""
PLAIN = """(module (memory 1)
  (func (export "f") (param i32 i32) (result i32)
    (i32.add (local.get 0) (i32.load (local.get 1)))))"""


def _mutate_text(rng: random.Random, src: str) -> str:
    spans = [m.span() for m in _TOKEN.finditer(src)]
    a, b = rng.choice(spans)
    kind = rng.randrange(4)
    if kind == 0:  # delete a token
        return src[:a] + src[b:]
    if kind == 1:  # duplicate a token
        return src[:b] + " " + src[a:b] + src[b:]
    if kind == 2:  # truncate at a token
        return src[:a]
    at = rng.randrange(len(src) + 1)  # insert one character
    return src[:at] + rng.choice(_INSERTS) + src[at:]


def _mutate_value(rng: random.Random, doc):
    """Replace one node of the document, or one key, with another value."""
    doc = json.loads(json.dumps(doc))
    nodes = [(None, None, doc)]
    for parent, _, node in nodes:
        if isinstance(node, dict):
            nodes.extend((node, k, v) for k, v in node.items())
        elif isinstance(node, list):
            nodes.extend((node, i, v) for i, v in enumerate(node))
    parent, key, _ = rng.choice(nodes)
    new = rng.choice(_VALUES)
    if parent is None:
        return new
    if isinstance(parent, dict) and rng.random() < 0.3:
        parent[str(new)] = parent.pop(key)  # rename the key instead
    else:
        parent[key] = new
    return doc


def _mutants(doc, n: int, seed: int):
    rng = random.Random(seed)
    src = json.dumps(doc, indent=1)
    for _ in range(n):
        if rng.random() < 0.5:
            yield _mutate_text(rng, src)
        else:
            yield json.dumps(_mutate_value(rng, doc))


def _only_exit_codes(argv, sidecar, mutants, capsys):
    for n, text in enumerate(mutants):
        sidecar.write_text(text)
        try:
            rc = cli.main(argv)
        except Exception as e:  # pragma: no cover - the failure report
            pytest.fail(f"mutant {n}: {type(e).__name__}: {e}\n{text}")
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (n, text)
        if rc == 1:
            assert "Traceback" not in err and err.strip(), (n, text)


def test_mutated_hints_fail_with_a_typed_error(tmp_path, capsys):
    module = tmp_path / "m.wat"
    module.write_text(PLAIN)
    hints = tmp_path / "hints.json"
    argv = ["infer", str(module), "-o", str(tmp_path / "out.cwat"),
            "--hints", str(hints)]
    _only_exit_codes(argv, hints, _mutants(HINTS, 400, 2018), capsys)


def test_mutated_secrets_sidecar_fails_with_a_typed_error(tmp_path, capsys):
    module = tmp_path / "m.cwat"
    module.write_text(MODULE)
    argv = ["ct-check", str(module), "--invoke", "f", "--trials", "1"]
    _only_exit_codes(argv, tmp_path / "m.secrets.json",
                     _mutants(SECRETS, 400, 2018), capsys)


@pytest.mark.parametrize("text, message", [
    ("{oops", "not valid JSON"),
    ("[1,2]", "must be a JSON object"),
    ('{"exports":{"f":{"params":{"x":"public"}}}}', "'x' of export 'f' is not"),
    ('{"exports":{"f":{"params":{"7":"public"}}}}', "parameter 7 of export 'f'"),
    ('{"trusted": "f"}', "trusted must be a list"),
])
def test_malformed_hints_name_the_problem(tmp_path, capsys, text, message):
    module = tmp_path / "m.wat"
    module.write_text('(module (func (export "f") (param i32 i32)))')
    hints = tmp_path / "h.json"
    hints.write_text(text)
    rc = cli.main(["infer", str(module), "-o", str(tmp_path / "o.cwat"),
                   "--hints", str(hints)])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_missing_hints_file(tmp_path, capsys):
    module = tmp_path / "m.wat"
    module.write_text("(module)")
    rc = cli.main(["infer", str(module), "-o", str(tmp_path / "o.cwat"),
                   "--hints", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "No such file" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ({"invoke": "f", "secrets": {"x": {"param": "zz"}}}, "param of 'x'"),
    ({"invoke": "f", "args": ["s32:0", "i32:0"],
      "secrets": {"x": {"param": 7}}}, "parameter 7"),
    ({"invoke": "f", "args": ["f32:1e40"]}, "out of range"),
])
def test_malformed_secrets_sidecar_names_the_problem(tmp_path, capsys, spec,
                                                     message):
    module = tmp_path / "m.cwat"
    module.write_text(MODULE)
    (tmp_path / "m.secrets.json").write_text(json.dumps(spec))
    rc = cli.main(["ct-check", str(module), "--invoke", "f", "--trials", "1"])
    assert rc == 1
    assert message in capsys.readouterr().err
