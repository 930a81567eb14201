import json
import random

import pytest

from ctwasm import binary, cli, interp, text, validate
from ctwasm.ast import I32, Secrecy


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def corp(name: str, corpus_root) -> str:
    return str(corpus_root / name / "impl.cwat")


def test_validate_ok(capsys, corpus_root):
    rc, out, err = run_cli(["validate", corp("salsa20", corpus_root)], capsys)
    assert rc == 0
    assert "ok" in out


def test_validate_rejects_with_code(capsys, corpus_root):
    rc, out, err = run_cli(
        ["validate", corp("neg-declassify-untrusted", corpus_root)], capsys)
    assert rc == 1
    assert "DeclassifyRequiresTrusted" in err


def test_validate_json_stream_separation(capsys, corpus_root):
    rc, out, err = run_cli(
        ["--json", "validate", corp("neg-secret-branch", corpus_root)], capsys)
    assert rc == 1
    doc = json.loads(out)  # stdout must be pure JSON
    assert doc[0]["code"] == "SecretCondition"
    assert "SecretCondition" in err  # diagnostics on stderr


def test_run_with_typed_literals(capsys, tmp_path):
    p = tmp_path / "add.cwat"
    p.write_text('(module (func (export "add") (param s32 s32) (result s32)'
                 " local.get 0 local.get 1 s32.add))")
    rc, out, err = run_cli(["run", str(p), "--invoke", "add",
                            "s32:40", "s32:2"], capsys)
    assert rc == 0
    assert "s32:42" in out


def test_run_ceil_of_infinity_returns_infinity(capsys, tmp_path):
    p = tmp_path / "ceil.cwat"
    p.write_text('(module (func (export "f") (param f32) (result f32)'
                 " (f32.ceil (local.get 0))))")
    rc, out, err = run_cli(["run", str(p), "--invoke", "f", "f32:inf"], capsys)
    assert rc == 0
    assert "f32:0x7f800000" in out  # +inf


def test_run_rejects_wrong_secrecy_literal(capsys, tmp_path):
    p = tmp_path / "add.cwat"
    p.write_text('(module (func (export "add") (param s32) (result s32)'
                 " local.get 0))")
    rc, out, err = run_cli(["run", str(p), "--invoke", "add", "i32:1"], capsys)
    assert rc == 1
    assert "exactly" in err


def test_run_trace_streams_actions(capsys, corpus_root):
    rc, out, err = run_cli(
        ["run", corp("tea", corpus_root), "--invoke", "tea_encrypt",
         "--trace", "i32:0", "i32:16"], capsys)
    assert rc == 0
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    assert any(l["action"] == "mem" for l in lines)
    assert lines[0]["step"] == 0
    # the streamed lines are the trace a plain invoke keeps, action by action
    tm = validate.validate_module(cli.load_module(corp("tea", corpus_root)))
    store, idx = interp.instantiate(interp.Store(), tm)
    trace = interp.invoke(store, idx, "tea_encrypt",
                          [interp.parse_value("i32:0"),
                           interp.parse_value("i32:16")]).trace
    assert lines == [interp.action_to_json(i, a) for i, a in enumerate(trace)]


def test_json_run_trace_is_json_lines(capsys, tmp_path):
    """The trace goes out one JSON object per line, so the summary after
    it is one line too: a line-by-line reader parses all of stdout."""
    p = tmp_path / "oob.cwat"
    p.write_text('(module (memory 1) (func (export "f") (result i32)'
                 " (i32.load (i32.const 65534))))")
    rc, out, err = run_cli(["--json", "run", str(p), "--invoke", "f",
                            "--trace"], capsys)
    assert rc == 1
    assert [json.loads(line) for line in out.splitlines()] == [
        {"step": 0, "action": "op", "op": "i32.const"},
        {"step": 1, "action": "mem", "op": "load", "addr": 65534, "width": 4},
        {"status": "trap", "trap": "out of bounds memory access", "steps": 2}]


def test_run_trap_exit_code(capsys, tmp_path):
    p = tmp_path / "boom.cwat"
    p.write_text('(module (func (export "boom") unreachable))')
    rc, out, err = run_cli(["run", str(p), "--invoke", "boom"], capsys)
    assert rc == 1
    assert "unreachable" in err


def test_run_json_reports_steps_of_a_trapped_run(capsys, tmp_path):
    p = tmp_path / "boom.cwat"
    p.write_text('(module (func (export "boom") i32.const 1 drop unreachable))')
    rc, out, err = run_cli(["--json", "run", str(p), "--invoke", "boom"],
                           capsys)
    assert rc == 1
    assert json.loads(out) == {"status": "trap", "trap": "unreachable",
                               "steps": 3}


def test_run_json_reports_steps_when_fuel_runs_out(capsys, tmp_path):
    p = tmp_path / "spin.cwat"
    p.write_text('(module (func (export "spin") (loop (br 0))))')
    rc, out, err = run_cli(["--json", "run", str(p), "--invoke", "spin",
                            "--fuel", "500"], capsys)
    assert rc == 1
    assert json.loads(out) == {"status": "fuel", "trap": None, "steps": 500}


def test_fuel_env_variable(capsys, tmp_path, monkeypatch):
    p = tmp_path / "spin.cwat"
    p.write_text('(module (func (export "spin") (loop (br 0))))')
    monkeypatch.setenv("CTWASM_FUEL", "500")
    rc, out, err = run_cli(["run", str(p), "--invoke", "spin"], capsys)
    assert rc == 1
    assert "fuel" in err


@pytest.mark.parametrize("command", ["run", "ct-check"])
def test_a_bad_fuel_env_variable_is_named(command, capsys, tmp_path,
                                          monkeypatch):
    p = tmp_path / "id.cwat"
    p.write_text('(module (func (export "f") (param s32) (result s32) '
                 '(local.get 0)))')
    monkeypatch.setenv("CTWASM_FUEL", "abc")
    rc, out, err = run_cli([command, str(p), "--invoke", "f", "s32:1"], capsys)
    assert rc == 1 and out == ""
    assert err == "error: CTWASM_FUEL must be an integer, got 'abc'\n"


@pytest.mark.parametrize("how, fuel", [("--fuel", "0"), ("--fuel", "-1"),
                                       ("CTWASM_FUEL", "0"), ("sidecar", 0)])
def test_ct_check_refuses_fuel_that_runs_no_step(how, fuel, capsys, tmp_path,
                                                 monkeypatch):
    """A check whose twins can run no step fails with one line, however
    the fuel is given, instead of passing every trial."""
    p = tmp_path / "m.cwat"
    p.write_text('(module (func (export "g") (param s32) (result s32) '
                 '(local.get 0)))')
    argv = ["ct-check", str(p), "--invoke", "g", "--trials", "5"]
    if how == "--fuel":
        argv += ["--fuel", fuel]
    elif how == "CTWASM_FUEL":
        monkeypatch.setenv(how, fuel)
    else:
        (tmp_path / "m.secrets.json").write_text(json.dumps(
            {"invoke": "g", "args": ["s32:0"], "secrets": {"x": {"param": 0}},
             "fuel": fuel}))
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == ""
    assert err == f"error: fuel must be at least 1, got {fuel}\n"


def test_run_with_no_fuel_stops_out_of_fuel(capsys, tmp_path):
    p = tmp_path / "m.cwat"
    p.write_text('(module (func (export "g") (param s32) (result s32) '
                 '(local.get 0)))')
    rc, out, err = run_cli(["--json", "run", str(p), "--invoke", "g",
                            "--fuel", "0", "s32:1"], capsys)
    assert rc == 1
    assert json.loads(out) == {"status": "fuel", "trap": None, "steps": 0}


def test_fmt_idempotent(capsys, corpus_root, tmp_path):
    rc, out, _ = run_cli(["fmt", corp("sha256", corpus_root)], capsys)
    assert rc == 0
    p = tmp_path / "canon.cwat"
    p.write_text(out)
    rc, out2, _ = run_cli(["fmt", str(p)], capsys)
    assert out2 == out


def test_encode_decode_files(capsys, corpus_root, tmp_path):
    wasm = tmp_path / "tea.cwasm"
    rc, _, _ = run_cli(["encode", corp("tea", corpus_root),
                        "-o", str(wasm)], capsys)
    assert rc == 0 and wasm.exists()
    back = tmp_path / "tea.cwat"
    rc, _, _ = run_cli(["decode", str(wasm), "-o", str(back)], capsys)
    assert rc == 0
    assert text.parse_module(back.read_text()) == \
        text.parse_module((corpus_root / "tea" / "impl.cwat").read_text())


def test_strip_clean_corpus_exit_zero(capsys, corpus_root, tmp_path):
    out_file = tmp_path / "salsa20.wat"
    rc, out, err = run_cli(["strip", corp("salsa20", corpus_root),
                            "-o", str(out_file)], capsys)
    assert rc == 0
    assert err == ""
    assert "secret" not in out_file.read_text()


@pytest.mark.parametrize("emit", ["text", "binary"])
@pytest.mark.parametrize("name, sizes", [("salsa20", (1206, 1012, 1.1917)),
                                         ("sha256", (1767, 1563, 1.1305)),
                                         ("tea", (447, 381, 1.1732))])
def test_strip_json_reports_byte_counts(capsys, corpus_root, tmp_path,
                                        emit, name, sizes):
    rc, out, err = run_cli(["--json", "strip", corp(name, corpus_root),
                            "--emit", emit, "-o", str(tmp_path / "out")],
                           capsys)
    assert rc == 0
    doc = json.loads(out)
    assert (doc["input_bytes"], doc["output_bytes"], doc["size_ratio"]) == sizes


def test_strip_warning_exit_two(capsys, tmp_path):
    p = tmp_path / "imp.cwat"
    p.write_text('(module (func (import "env" "f") (param s32))'
                 ' (func (export "go") (param s32) (call 0 (local.get 0))))')
    rc, out, err = run_cli(["strip", str(p), "-o", str(tmp_path / "o.wat")],
                           capsys)
    assert rc == 2
    assert "W-IMPORT" in err


def test_strip_refuses_invalid_exit_one(capsys, tmp_path):
    p = tmp_path / "bad.cwat"
    p.write_text("(module (func (param s32) (if (local.get 0) (then nop))))")
    rc, out, err = run_cli(["strip", str(p), "-o", str(tmp_path / "o.wat")],
                           capsys)
    assert rc == 1
    assert "refusing" in err


def test_infer_roundtrip_via_cli(capsys, corpus_root, tmp_path):
    stripped = tmp_path / "tea.wat"
    rc, _, _ = run_cli(["strip", corp("tea", corpus_root),
                        "-o", str(stripped)], capsys)
    assert rc == 0
    inferred = tmp_path / "tea_ct.cwat"
    rc, out, err = run_cli(["infer", str(stripped), "-o", str(inferred)],
                           capsys)
    assert rc == 0
    assert "s32" in inferred.read_text()


def test_infer_conflict_exit_one(capsys, tmp_path):
    p = tmp_path / "conf.wat"
    p.write_text("(module (memory 1) (func (export \"g\") (result i32)"
                 " (if (result i32) (i32.load (i32.const 0))"
                 " (then (i32.const 1)) (else (i32.const 0)))))")
    rc, out, err = run_cli(["infer", str(p), "-o", str(tmp_path / "o.cwat")],
                           capsys)
    assert rc == 1
    assert "conflict" in err


def test_infer_hints_file(capsys, tmp_path):
    p = tmp_path / "conf.wat"
    p.write_text("(module (memory 1) (func (export \"g\") (result i32)"
                 " (if (result i32) (i32.load (i32.const 0))"
                 " (then (i32.const 1)) (else (i32.const 0)))))")
    hints = tmp_path / "hints.json"
    hints.write_text('{"memory": "public"}')
    rc, out, err = run_cli(["infer", str(p), "--hints", str(hints),
                            "-o", str(tmp_path / "o.cwat")], capsys)
    assert rc == 0


def test_infer_public_memory_hint_makes_stored_values_public(capsys,
                                                             tmp_path):
    p = tmp_path / "store.wat"
    p.write_text("(module (memory 1) (func (export \"f\") (param i32 i32)"
                 " (i32.store (local.get 0) (local.get 1))))")
    hints = tmp_path / "hints.json"
    hints.write_text('{"memory": "public"}')
    out_path = tmp_path / "o.cwat"
    rc, out, err = run_cli(["infer", str(p), "--hints", str(hints),
                            "-o", str(out_path)], capsys)
    assert rc == 0, err
    m = text.parse_module(out_path.read_text())
    assert m.memory.sec is Secrecy.PUBLIC
    assert m.funcs[0].type.params == (I32, I32)


def test_ct_check_spec_invocation(capsys, corpus_root):
    rc, out, err = run_cli(
        ["ct-check", corp("salsa20", corpus_root), "--invoke", "stream_xor",
         "--secret-params", "key", "--trials", "5", "--seed", "42"], capsys)
    assert rc == 0
    assert "5/5" in out


def test_ct_check_json(capsys, corpus_root):
    rc, out, err = run_cli(
        ["--json", "ct-check", corp("tea", corpus_root), "--invoke",
         "tea_encrypt", "--trials", "3", "--seed", "1"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["trials"] == 3 and doc["ok"]


@pytest.mark.parametrize("flag, fuel", [([], 500_000),
                                        (["--fuel", "12345"], 12345)])
def test_ct_check_fuel_overrides_the_sidecar(capsys, corpus_root,
                                            monkeypatch, flag, fuel):
    seen = []
    trial = cli.leakage.randomized_ct_trial

    def spy(tm, spec, **kw):
        seen.append(spec.fuel)
        return trial(tm, spec, **kw)
    monkeypatch.setattr(cli.leakage, "randomized_ct_trial", spy)
    rc, out, err = run_cli(["ct-check", corp("tea", corpus_root), "--invoke",
                            "tea_encrypt", "--trials", "1", *flag], capsys)
    assert rc == 0
    assert seen == [fuel]  # tea's secrets.json gives 500,000


def test_ct_check_without_sidecar_uses_secret_params(capsys, tmp_path):
    p = tmp_path / "f.cwat"
    p.write_text('(module (func (export "f") (param s32 i32) (result s32)'
                 " (s32.add (local.get 0) (s32.classify (local.get 1)))))")
    rc, out, err = run_cli(["ct-check", str(p), "--invoke", "f",
                            "--trials", "4", "i32:9"], capsys)
    assert rc == 1  # public argument count mismatch: 2 params expected
    rc, out, err = run_cli(["ct-check", str(p), "--invoke", "f",
                            "--trials", "4", "s32:0", "i32:9"], capsys)
    assert rc == 0
    assert "4/4" in out


def test_unknown_file_is_an_error(capsys):
    rc, out, err = run_cli(["validate", "nope.cwat"], capsys)
    assert rc == 1
    assert "no such file" in err


@pytest.mark.parametrize("trials", ["0", "-3", "x"])
def test_ct_check_rejects_trial_counts_below_one(capsys, corpus_root, trials):
    with pytest.raises(SystemExit) as e:
        cli.main(["ct-check", corp("tea", corpus_root), "--invoke",
                  "tea_encrypt", f"--trials={trials}"])
    assert e.value.code == 1
    assert "positive number of trials" in capsys.readouterr().err


def test_ct_check_rejects_a_malformed_argument_literal(capsys, tmp_path):
    p = tmp_path / "f.cwat"
    p.write_text('(module (func (export "f") (param s32 i32) (result s32)'
                 " (s32.add (local.get 0) (s32.classify (local.get 1)))))")
    rc, out, err = run_cli(["ct-check", str(p), "--invoke", "f",
                            "--trials", "1", "s32:0", "i32:zz"], capsys)
    assert rc == 1
    assert "invalid literal" in err


@pytest.mark.parametrize("case, message", [
    ("decode-missing", "no such file"),
    ("directory", "Is a directory"),
    ("decode-directory", "Is a directory"),
    ("not-utf8", "not UTF-8 text"),
    ("output-in-missing-directory", "No such file or directory"),
])
def test_bad_input_or_output_paths_fail_with_one_line(capsys, tmp_path, case,
                                                      message):
    good = tmp_path / "m.cwat"
    good.write_text("(module)")
    bad = tmp_path / "bad.cwat"
    bad.write_bytes(b"\xff\xfe(module)")
    argv = {
        "decode-missing": ["decode", str(tmp_path / "nope.cwasm")],
        "directory": ["validate", str(tmp_path)],
        "decode-directory": ["decode", str(tmp_path)],
        "not-utf8": ["validate", str(bad)],
        "output-in-missing-directory":
            ["fmt", str(good), "-o", str(tmp_path / "no" / "o.cwat")],
    }[case]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_ct_check_of_an_image_past_the_end_of_memory_is_incomparable(
        capsys, tmp_path):
    p = tmp_path / "m.cwat"
    p.write_text('(module (memory 1 secret) (func (export "f") (result s32)'
                 " (s32.load (i32.const 0))))")
    (tmp_path / "m.secrets.json").write_text(json.dumps(
        {"invoke": "f", "secrets": {"m": {"offset": 70000, "length": 8}}}))
    rc, out, err = run_cli(["ct-check", str(p), "--invoke", "f",
                            "--trials", "5"], capsys)
    assert rc == 1
    assert "0/5 trials" in out
    assert err.splitlines() == [
        "trial 0: incomparable",
        "    memory image region at offset 70000 (8 bytes) runs past the "
        "65536-byte memory"]


_MODULE = """(module (memory (export "mem") 1 secret)
  (func (export "f") (param s32 i32) (result s32)
    (s32.add (local.get 0) (s32.classify (local.get 1))))
  (func (export "g") (param i32 i32) (result i32)
    (i32.div_u (local.get 0) (local.get 1)))
  (func (export "h") (param s32) (s32.store (i32.const 65532) (local.get 0)))
  (func (export "c") (param f32) (result f32) (f32.ceil (local.get 0))))"""
_PLAIN = """(module (memory 1)
  (func (export "f") (param i32 i32) (result i32)
    (i32.store (local.get 0) (local.get 1))
    (i32.add (local.get 1) (i32.load (i32.const 4)))))"""
_GOOD = ["m.cwat", "m.cwasm", "p.cwat", "s.cwat"]
_FILES = _GOOD + ["bad.cwat", "ill.cwat", "junk.cwasm", "latin.cwat",
                  "empty.cwat", "missing.cwat", ".", "no/o.cwat"]
_LITERALS = ["s32:7", "i32:9", "i32:0", "i64:1", "s64:-1", "f32:inf",
             "f32:nan", "f32:-0", "i32:zz", "s32:99999999999999999999",
             "x:1", ":", "s32:", "7"]
_NUMBERS = ["0", "1", "2", "100", "5000", "-1", "-99999999999999999999",
            "99999999999999999999999", "x", "1e3", ""]
# each export of _MODULE with arguments it takes
_CALLS = {"f": ["s32:7", "i32:9"], "g": ["i32:9", "i32:0"], "h": ["s32:-1"],
          "c": ["f32:-0.5"]}
_EXPORTS = sorted(_CALLS) + ["mem", "nope", ""]
_OUTPUTS = ["out.cwat", "out.cwasm", ".", "no/o.cwat", "m.cwat"]
_FLAGS = ["--json", "--trace", "--paranoid", "--fuel", "--seed", "--trials",
          "--invoke", "--hints", "--secret-params", "--emit", "-o",
          "--output", "--bogus", "-", "--", "-h"]
# the options each subcommand takes, with the values each may have
_SHAPES = {
    "validate": {},
    "run": {"--invoke": _EXPORTS, "--fuel": _NUMBERS, "--trace": None},
    "fmt": {"-o": _OUTPUTS},
    "encode": {"-o": _OUTPUTS},
    "decode": {"-o": _OUTPUTS},
    "strip": {"-o": _OUTPUTS, "--paranoid": None,
              "--emit": ["text", "binary", "wat"]},
    "infer": {"-o": _OUTPUTS, "--hints": ["hints.json", "badhints.json",
                                          "list.json", "missing.json"]},
    "ct-check": {"--invoke": _EXPORTS, "--trials": ["1", "2", "3", "0", "x"],
                 "--seed": _NUMBERS, "--fuel": _NUMBERS,
                 "--secret-params": ["0", "1", "0,1", "", ",", "m", "9"]},
}


def _argv(rng):
    cmd = rng.choice(sorted(_SHAPES))
    argv = (["--json"] if rng.random() < 0.3 else []) + \
        [cmd, rng.choice(_GOOD if rng.random() < 0.6 else _FILES)]
    for opt, values in _SHAPES[cmd].items():
        if rng.random() < 0.8:
            argv.append(opt)
            if values is not None:
                argv.append(rng.choice(values))
    if cmd in ("run", "ct-check"):
        export = argv[argv.index("--invoke") + 1] if "--invoke" in argv \
            else ""
        argv += _CALLS.get(export, []) if rng.random() < 0.6 else \
            rng.sample(_LITERALS, rng.randrange(4))
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):  # mutate
        at = rng.randrange(len(argv) + 1)
        kind = rng.randrange(4)
        if kind == 0 and at < len(argv):
            del argv[at]
        elif kind == 1 and at < len(argv):
            argv[at], argv[-1] = argv[-1], argv[at]
        else:
            pool = (_FLAGS, _LITERALS, _NUMBERS, _FILES)[rng.randrange(4)]
            argv.insert(at, rng.choice(pool))
    # a large trial count is a valid request that only takes long
    return [("3" if prev == "--trials" and a.isdecimal() and int(a) > 3
             else a) for prev, a in zip([None] + argv, argv)]


def test_mutated_argv_exits_with_a_code_and_never_a_traceback(
        capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CTWASM_FUEL", raising=False)
    inputs = {
        "m.cwat": _MODULE, "s.cwat": _MODULE, "p.cwat": _PLAIN,
        "bad.cwat": "(module (func (",
        "ill.cwat": '(module (func (export "f") (param s32)'
                    ' (if (local.get 0) (then))))',
        "m.cwasm": binary.encode_module(text.parse_module(_MODULE)),
        "junk.cwasm": b"\0asm\1\0\0\0\x01\x7f\xff",
        "latin.cwat": b"(module) ;; \xe9",
        "empty.cwat": "",
        "s.secrets.json": json.dumps(
            {"invoke": "f", "secrets": {"x": {"param": 9}}}),
        "hints.json": json.dumps({"memory": "public"}),
        "badhints.json": "{not json",
        "list.json": "[1, 2]",
    }
    written = set(inputs)
    rng = random.Random(2018)
    for n in range(1500):
        for name in written & inputs.keys():  # an -o may have overwritten it
            data = inputs[name]
            if isinstance(data, bytes):
                (tmp_path / name).write_bytes(data)
            else:
                (tmp_path / name).write_text(data)
        argv = _argv(rng)
        written = set(argv)
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse's usage errors and --help
            rc = e.code
        except Exception as e:  # pragma: no cover - the failure report
            pytest.fail(f"argv {n} {argv}: {type(e).__name__}: {e}")
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), (n, argv, rc)
        assert rc != 1 or err.strip(), (n, argv)


def test_the_parser_is_built_once_per_process(capsys, corpus_root):
    parser = cli.build_parser()
    rc, _, _ = run_cli(["validate", corp("tea", corpus_root)], capsys)
    assert rc == 0 and cli.build_parser() is parser
