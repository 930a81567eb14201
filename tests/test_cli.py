import json

import pytest

from ctwasm import cli, text
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
