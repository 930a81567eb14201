"""Command-line front end.

Subcommands: validate, run, fmt, encode, decode, strip, infer, ct-check.
Exit status 0 = success/clean, 1 = error (parse/validation/trap/
divergence), 2 = success with warnings.  Machine output (--json) goes to
stdout; human diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import ast, binary, infer, interp, leakage, strip, text, validate
from .corpus import load_trial_spec
from .interp import Store, parse_value
from .leakage import SecretInput, TrialSpec

OK, ERROR, WARNINGS = 0, 1, 2


class CliError(Exception):
    pass


def _read_input(path: str, as_text: bool = False) -> bytes | str:
    """The bytes of an input file, or its UTF-8 text."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8") if as_text else p.read_bytes()
    except FileNotFoundError:
        raise CliError(f"no such file: {path}") from None
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise CliError(f"{path}: not UTF-8 text (byte {e.start})") from e


def _write_output(path: str | None, data: bytes | str) -> None:
    """Write an output file, or text to stdout when no path is given."""
    if not path:
        sys.stdout.write(data)
        return
    p = Path(path)
    try:
        if isinstance(data, bytes):
            p.write_bytes(data)
        else:
            p.write_text(data, encoding="utf-8")
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}") from e


def _decode(path: str) -> ast.Module:
    try:
        return binary.decode_module(_read_input(path))
    except binary.DecodeError as e:
        raise CliError(f"{path}: {e}") from e


def load_module(path: str) -> ast.Module:
    if Path(path).suffix in (".cwasm", ".wasm"):
        return _decode(path)
    try:
        return text.parse_module(_read_input(path, as_text=True), path)
    except text.ParseError as e:
        raise CliError(str(e)) from e


def _read_json(path) -> object:
    try:
        return json.loads(Path(path).read_text())
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}") from e
    except ValueError as e:  # malformed JSON, or not UTF-8 text
        raise CliError(f"{path}: not valid JSON: {e}") from e


def _emit(doc, as_json: bool, human: str | None = None) -> None:
    """Print ``doc`` as one JSON line, as ``run --trace`` prints each
    action before it, or else ``human`` if it is given."""
    if as_json:
        print(json.dumps(doc))
    elif human is not None:
        print(human)


def cmd_validate(args) -> int:
    m = load_module(args.file)
    tm, errors = validate.check_module(m)
    if errors:
        if args.json:
            print(json.dumps([e.to_json() for e in errors], indent=2))
        for e in errors:
            where = args.file
            if e.span is not None:
                where += f":{e.span.line}:{e.span.col}"
            print(f"{where}: {e}", file=sys.stderr)
        return ERROR
    _emit({"valid": True, "functions": len(m.funcs),
           "instructions": tm.stats["instrs"]}, args.json,
          f"{args.file}: ok")
    return OK


def cmd_run(args) -> int:
    m = load_module(args.file)
    try:
        tm = validate.validate_module(m)
    except validate.ValidationFailure as e:
        raise CliError(f"{args.file}: {e}") from e
    try:
        values = [parse_value(a) for a in args.args]
        store, idx = interp.instantiate(Store(), tm)
        out = interp.invoke(store, idx, args.invoke, values, args.fuel,
                            trace=_TracePrinter() if args.trace else None)
    except (ValueError, interp.InvokeError, interp.InstantiateError) as e:
        raise CliError(f"error: {e}") from e
    if out.status == interp.DONE:
        results = [repr(v) for v in out.results]
        _emit({"status": "done", "results": results, "steps": out.steps},
              args.json, " ".join(results) or "(no results)")
        return OK
    _emit({"status": out.status, "trap": out.trap_kind, "steps": out.steps},
          args.json)
    print(f"{args.invoke}: {out.status}"
          + (f" ({out.trap_kind})" if out.trap_kind else ""), file=sys.stderr)
    return ERROR


class _TracePrinter:
    """The trace sink of ``run --trace``: prints each
    action as a JSON line when it is made, and keeps none."""

    step = 0

    def append(self, action: tuple) -> None:
        print(json.dumps(interp.action_to_json(self.step, action)))
        self.step += 1

    def extend(self, actions) -> None:
        for action in actions:
            self.append(action)


def cmd_fmt(args) -> int:
    m = load_module(args.file)
    _write_output(args.output, text.print_module(m))
    return OK


def cmd_encode(args) -> int:
    m = load_module(args.file)
    data = binary.encode_module(m)
    _write_output(args.output, data)
    _emit({"bytes": len(data)}, args.json, f"wrote {len(data)} bytes")
    return OK


def cmd_decode(args) -> int:
    out = text.print_module(_decode(args.file))
    try:  # a module that fails validation may print as text that does not parse
        text.parse_module(out, args.file)
    except text.ParseError as e:
        raise CliError(f"{args.file}: decodes to text that does not parse: "
                       f"{e.message}") from e
    _write_output(args.output, out)
    return OK


def cmd_strip(args) -> int:
    m = load_module(args.file)
    try:
        report = strip.strip_module(m, paranoid=args.paranoid)
    except strip.RefuseUnvalidated as e:
        print(f"{args.file}: refusing unvalidated input: {e}", file=sys.stderr)
        return ERROR
    _write_output(args.output, binary.encode_module(report.module)
                  if args.emit == "binary" else text.print_module(report.module))
    doc = {"warnings": [w.to_json() for w in report.warnings],
           "input_bytes": report.input_bytes,
           "output_bytes": report.output_bytes,
           "size_ratio": round(report.size_ratio, 4)}
    _emit(doc, args.json)
    for w in report.warnings:
        print(f"{args.file}: {w.code} at {w.location}: {w.message}",
              file=sys.stderr)
    return WARNINGS if report.warnings else OK


def cmd_infer(args) -> int:
    m = load_module(args.file)
    hints = infer.Hints()
    if args.hints:
        try:
            hints = infer.Hints.from_json(_read_json(args.hints))
        except infer.InputInvalid as e:
            raise CliError(f"{args.hints}: {e}") from e
    try:
        result = infer.infer_labels(m, hints)
    except infer.InputInvalid as e:
        print(f"{args.file}: {e}", file=sys.stderr)
        return ERROR
    if not result.ok:
        if args.json:
            print(json.dumps([c.to_json() for c in result.conflicts], indent=2))
        for c in result.conflicts:
            print(f"{args.file}: conflict at {c.location}", file=sys.stderr)
            for link in c.chain:
                print(f"    {link}", file=sys.stderr)
            print(f"    hint: {c.suggestion}", file=sys.stderr)
        return ERROR
    _write_output(args.output, text.print_module(result.module.module))
    doc = {"iterations": result.iterations, "demotions": result.demotions,
           "notes": result.notes}
    _emit(doc, args.json)
    for note in result.notes:
        print(f"{args.file}: note: {note}", file=sys.stderr)
    return OK


def _sidecar_spec(path: Path, invoke: str) -> TrialSpec | None:
    """The trial spec of the secrets sidecar next to ``path``, if the
    first one found is about ``invoke``."""
    for cand in (path.with_suffix(".secrets.json"),
                 path.parent / "secrets.json"):
        if cand.exists():
            doc = _read_json(cand)
            if isinstance(doc, dict) and doc.get("invoke") != invoke:
                return None
            try:
                return load_trial_spec(doc)
            except ValueError as e:
                raise CliError(f"{cand}: {e}") from e
    return None


def cmd_ct_check(args) -> int:
    p = Path(args.file)
    m = load_module(args.file)
    try:
        tm = validate.validate_module(m)
    except validate.ValidationFailure as e:
        raise CliError(f"{args.file}: {e}") from e
    spec = _sidecar_spec(p, args.invoke)
    if spec is None:
        ex = m.exported(args.invoke)
        if ex is None or ex[0] != "func":
            print(f"no function export {args.invoke!r}", file=sys.stderr)
            return ERROR
        ft = m.funcs[ex[1]].type
        try:
            base = [parse_value(a) for a in args.args] if args.args else \
                [interp.Value(t, 0) for t in ft.params]
        except ValueError as e:
            raise CliError(f"error: {e}") from e
        secrets = [SecretInput(str(i), param=i)
                   for i, t in enumerate(ft.params)
                   if t.sec is ast.Secrecy.SECRET]
        spec = TrialSpec(args.invoke, base, secrets)
    if args.fuel is not None:  # overrides the sidecar's
        spec.fuel = args.fuel
    vary = args.secret_params.split(",") if args.secret_params else None
    try:
        report = leakage.randomized_ct_trial(tm, spec, trials=args.trials,
                                             seed=args.seed, vary=vary)
    except ValueError as e:
        raise CliError(f"error: {e}") from e
    _emit(report.to_json(), args.json,
          f"{args.invoke}: {report.passed}/{report.trials} trials "
          f"indistinguishable (secret inputs: {', '.join(report.varied)})")
    if report.ok:
        return OK
    v = report.failure
    print(f"trial {report.failed_trial}: {v.kind}"
          + (f" at step {v.step}" if v.step is not None else "")
          + (f" [{v.location}]" if v.location else ""), file=sys.stderr)
    if v.action_a is not None or v.action_b is not None:
        print(f"    zero-secret run: {v.action_a}", file=sys.stderr)
        print(f"    random-secret run: {v.action_b}", file=sys.stderr)
    if v.explanation:
        print(f"    {v.explanation}", file=sys.stderr)
    return ERROR


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are plain errors, not warnings
        self.print_usage(sys.stderr)
        self.exit(ERROR, f"{self.prog}: error: {message}\n")


def _trial_count(text: str) -> int:
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive number of trials, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing keeps no state in it."""
    ap = _Parser(
        prog="ctwasm",
        description="Toolchain for secrecy-typed WebAssembly: validate, "
                    "run, transform, and check constant-time behavior.")
    ap.add_argument("--json", action="store_true",
                    help="machine-readable output on stdout")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    p = sub.add_parser("validate", help="type check a module")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("run", help="instantiate and invoke an export")
    p.add_argument("file")
    p.add_argument("--invoke", required=True)
    p.add_argument("args", nargs="*",
                   help="arguments as type:value literals, e.g. s32:7")
    p.add_argument("--trace", action="store_true",
                   help="stream the leakage trace as JSON lines")
    p.add_argument("--fuel", type=int, default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("fmt", help="parse and canonically print")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_fmt)

    p = sub.add_parser("encode", help="text to binary")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="binary to text")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("strip", help="erase security annotations")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--paranoid", action="store_true",
                   help="also warn about exports that reveal secret state")
    p.add_argument("--emit", choices=("text", "binary"), default="text")
    p.set_defaults(fn=cmd_strip)

    p = sub.add_parser("infer", help="infer secrecy labels for plain Wasm")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--hints", help="JSON hints file")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("ct-check",
                       help="randomized lockstep constant-time trials")
    p.add_argument("file")
    p.add_argument("--invoke", required=True)
    p.add_argument("--secret-params", default=None,
                   help="comma list of secret inputs to vary (defaults to all)")
    p.add_argument("--trials", type=_trial_count, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("args", nargs="*",
                   help="fixed arguments when no secrets sidecar exists")
    p.set_defaults(fn=cmd_ct_check)
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # value literals may follow --invoke NAME; anything else is an error
        if getattr(args, "fn", None) in (cmd_run, cmd_ct_check) and all(
                ":" in tok and not tok.startswith("-") for tok in extra):
            args.args = list(args.args) + extra
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except CliError as e:
        print(str(e), file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
