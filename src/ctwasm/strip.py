"""Annotation stripper: lower checked modules to plain Wasm.

Type checks first (never touches unvalidated input), then erases every
security annotation: s32/s64 become i32/i64, memories and function types
lose their markers, classify/declassify disappear (the value flows
through), and each ``select secret`` is rewritten to a branch-free mask
sequence because engines are not obliged to compile plain ``select``
without a branch.

The output is observationally equal to the input on every argument
vector, and warns wherever erasure weakens a guarantee the annotations
used to enforce (untrusted imports, the call_indirect runtime check; in
paranoid mode also any export that hands secret state to the host).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ast, binary, flat
from .ast import (
    Binop, Classify, Const, Convert, Declassify, GetLocal, Instr, Secrecy,
    Select, SetLocal, Testop, Trust, ValType,
)
from .validate import TypedModule, ValidationFailure, validate_module


class RefuseUnvalidated(Exception):
    """The stripper only accepts modules that passed the type checker."""


@dataclass(frozen=True)
class Warning:
    code: str  # "W-IMPORT" | "W-INDIRECT" | "W-EXPORT-SECRET-MEM" | "W-EXPORT-SECRET-SIG"
    location: str
    message: str

    def to_json(self) -> dict:
        return {"code": self.code, "location": self.location,
                "message": self.message}


@dataclass
class StripReport:
    module: ast.Module  # plain Wasm, no security constructs left
    warnings: list[Warning]
    input_bytes: int
    output_bytes: int

    @property
    def size_ratio(self) -> float:
        return self.input_bytes / self.output_bytes if self.output_bytes else 1.0


def rewrite_secret_select(width: int, cond_local: int, save_local: int
                          ) -> tuple[Instr, ...]:
    """Branch-free replacement for ``select secret`` after erasure.

    Expects the erased operand stack [v1, v2, cond:i32].  Stashes cond and
    v2 in the two scratch locals, builds the mask ``eqz(cond) - 1`` (all
    ones iff cond is nonzero, widened for 64-bit operands), and computes
    ``(v1 & mask) | (v2 & ~mask)``: a nonzero condition selects v1.  No
    branch and no select appears in the sequence.
    """
    if width not in (32, 64):
        raise ValueError("width must be 32 or 64")
    t = ast.I32 if width == 32 else ast.I64
    mask = [
        GetLocal(cond_local),
        Testop(ast.I32),
        Const(ast.I32, 1),
        Binop(ast.I32, "sub"),
    ]
    if width == 64:
        mask.append(Convert(ast.I64, ast.I32, "s"))
    return tuple(
        [SetLocal(cond_local), SetLocal(save_local)]
        + mask
        + [Binop(t, "and"), GetLocal(save_local)]
        + mask
        + [Const(t, (1 << width) - 1), Binop(t, "xor"),
           Binop(t, "and"), Binop(t, "or")]
    )


def _select_width(ff: flat.FlatFunc, pc: int) -> int:
    slots = ff.stack_types[pc]
    if len(slots) >= 2 and slots[-2] is not None:
        return slots[-2].bits
    return 32  # unreachable select; any width type-checks there


class _Stripper:
    def __init__(self, tm: TypedModule):
        self.tm = tm
        self.warnings: list[Warning] = []

    def func(self, index: int, f: ast.Func) -> ast.Func:
        ft = _erase_functype(f.type)
        if f.imported is not None:
            if f.type.trust is Trust.UNTRUSTED:
                self.warnings.append(Warning(
                    "W-IMPORT", f"func {index}",
                    f"import {f.imported[0]}.{f.imported[1]} loses its "
                    "untrusted contract: the final link may satisfy it with "
                    "code that leaks its arguments"))
            return ast.Func(ft, (), (), f.imported, f.exports, f.name, f.span)

        ff = self.tm.flat(index)
        widths = {_select_width(ff, pc) for pc, op in enumerate(ff.code)
                  if op[0] == flat.T_SELECT and op[2] is Secrecy.SECRET}

        base = len(f.type.params) + len(f.locals)
        extra: list[ValType] = []
        cond_local = save32 = save64 = -1
        if widths:
            cond_local = base
            extra.append(ast.I32)
            if 32 in widths:
                save32 = base + len(extra)
                extra.append(ast.I32)
            if 64 in widths:
                save64 = base + len(extra)
                extra.append(ast.I64)

        pcs = iter(flat.instr_pcs(ff.code))

        def erase(ins: Instr) -> tuple[Instr, ...]:
            pc = next(pcs)
            match ins:
                case Classify() | Declassify():
                    return ()  # the value flows through unchanged
                case Select(sec=Secrecy.SECRET):
                    w = _select_width(ff, pc)
                    save = save32 if w == 32 else save64
                    return rewrite_secret_select(w, cond_local, save)
                case ast.CallIndirect():
                    self.warnings.append(Warning(
                        "W-INDIRECT", f"func {index}",
                        "call_indirect loses its runtime trust and "
                        "secrecy check after erasure"))
            return (ast.publicize_instr(ins),)

        body = ast.rebuild(f.body, erase)
        locals_ = tuple(ast.public_type(t) for t in f.locals) + tuple(extra)
        return ast.Func(ft, locals_, body, None, f.exports, f.name, f.span)


def _erase_functype(ft: ast.FuncType) -> ast.FuncType:
    return ast.FuncType(Trust.UNTRUSTED,
                        tuple(ast.public_type(t) for t in ft.params),
                        tuple(ast.public_type(t) for t in ft.results))


def strip_module(m: ast.Module | TypedModule, paranoid: bool = False
                 ) -> StripReport:
    """Erase all security annotations from a checked module.

    Raises RefuseUnvalidated when the input does not type check (or was
    flattened with the checker bypassed).
    """
    if isinstance(m, TypedModule):
        if m.stats.get("unchecked"):
            raise RefuseUnvalidated("module was flattened without validation")
        tm = m
    else:
        try:
            tm = validate_module(m, annotate=True)
        except ValidationFailure as e:
            raise RefuseUnvalidated(str(e)) from e
    if tm.funcs and any(f is not None and f.stack_types is None
                        for f in tm.funcs):
        # secret-select widths come from the annotations
        tm = validate_module(tm.module, annotate=True)

    src = tm.module
    stripper = _Stripper(tm)
    funcs = tuple(stripper.func(i, f) for i, f in enumerate(src.funcs))
    globals_ = tuple(
        ast.GlobalVar(ast.public_type(g.type), g.mutable,
                      None if g.init is None else
                      tuple(ast.publicize_instr(i) for i in g.init),
                      g.imported, g.exports, g.name, g.span)
        for g in src.globals)
    memory = src.memory
    if memory is not None:
        memory = ast.Memory(memory.min, memory.max, Secrecy.PUBLIC,
                            memory.imported, memory.exports)
    out = ast.Module(funcs, globals_, src.table, memory, src.data)

    if paranoid:
        if src.memory is not None and src.memory.sec is Secrecy.SECRET and \
                src.memory.exports:
            stripper.warnings.append(Warning(
                "W-EXPORT-SECRET-MEM", "memory",
                "a secret memory is exported: the host gets direct access "
                "to the buffer"))
        for i, f in enumerate(src.funcs):
            if f.exports and any(
                    t.sec is Secrecy.SECRET
                    for t in f.type.params + f.type.results):
                stripper.warnings.append(Warning(
                    "W-EXPORT-SECRET-SIG", f"func {i}",
                    f"export {f.exports[0]!r} passes secret values across "
                    "the host boundary"))

    return StripReport(out, stripper.warnings,
                       len(binary.encode_module(src)),
                       len(binary.encode_module(out)))
