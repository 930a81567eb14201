"""Single-pass type checker over a constraint stack.

Each function body is checked in one linear walk of its flat code.  Stack
slots are constraints: an exact type, "unconstrained" (below an
unconditional branch), or "unconstrained but certainly secret" (produced
by ``select secret`` under a polymorphic stack).  Checking an instruction
pops, unifies, and pushes constraints; secrecy, trust, and memory-secrecy
side conditions are enforced where the rules demand them.

Validation never stops at the first problem: a rejected instruction
resets the stack to the unreachable state so later diagnostics in the
same function still surface.

This walk is the only static model of how an op moves the stack.  To
annotate, ``_Recorder`` also keeps each slot's producer next to its
constraint, and leaves the stack types and def-use record on the flat code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import ast, flat
from .flat import FlatFunc


class ErrorCode(enum.Enum):
    SyntaxIndex = "SyntaxIndex"
    StackUnderflow = "StackUnderflow"
    TypeMismatch = "TypeMismatch"
    SecretCondition = "SecretCondition"
    SecretMemoryIndex = "SecretMemoryIndex"
    MemorySecrecyMismatch = "MemorySecrecyMismatch"
    DeclassifyRequiresTrusted = "DeclassifyRequiresTrusted"
    TrustViolationCall = "TrustViolationCall"
    UnsafeOpOnSecret = "UnsafeOpOnSecret"
    FloatSecrecy = "FloatSecrecy"
    MutabilityViolation = "MutabilityViolation"
    AlignmentViolation = "AlignmentViolation"
    NestingTooDeep = "NestingTooDeep"


@dataclass(frozen=True)
class ValidationError:
    code: ErrorCode
    func: int | None  # function index, None for module-level problems
    offset: int | None  # flat instruction offset within the function
    message: str
    span: ast.SourceSpan | None = field(default=None, compare=False)

    def __str__(self) -> str:
        where = ""
        if self.func is not None:
            where = f" [func {self.func}" + (
                f", instr {self.offset}]" if self.offset is not None else "]")
        return f"{self.code.value}: {self.message}{where}"

    def to_json(self) -> dict:
        return {"code": self.code.value, "func": self.func,
                "offset": self.offset, "message": self.message}


class ValidationFailure(Exception):
    def __init__(self, errors: list[ValidationError]):
        self.errors = errors
        super().__init__("; ".join(str(e) for e in errors[:4]) +
                         (f" (+{len(errors) - 4} more)" if len(errors) > 4 else ""))


# --------------------------------------------------------------------------
# Constraint lattice: TANY above TSECRET above secret value types;
# TANY above public value types.  Concrete types are their own constraint.

class _CtAny:
    def __repr__(self) -> str:
        return "TAny"


class _CtSecret:
    def __repr__(self) -> str:
        return "TSecret"


TANY = _CtAny()
TSECRET = _CtSecret()
CtType = object  # TANY | TSECRET | ast.ValType


def unify(a, b):
    """Greatest lower bound of two constraints, or None on mismatch."""
    if a is TANY:
        return b
    if b is TANY:
        return a
    if a is TSECRET:
        if b is TSECRET:
            return TSECRET
        return b if b.sec is ast.Secrecy.SECRET else None
    if b is TSECRET:
        return a if a.sec is ast.Secrecy.SECRET else None
    return a if a == b else None


@dataclass(frozen=True)
class Ctx:
    """Static context a function body is checked under."""

    trust: ast.Trust
    funcs: tuple[ast.FuncType, ...]
    globals: tuple[tuple[bool, ast.ValType], ...]  # (mutable, type)
    table: int | None  # minimum size
    memory: tuple[int, ast.Secrecy] | None  # (minimum pages, secrecy)
    locals: tuple[ast.ValType, ...]
    return_types: tuple[ast.ValType, ...]


@dataclass
class _Frame:
    kind: str  # "func" | "block" | "loop" | "if" | "else"
    label_types: tuple[ast.ValType, ...]  # what a br to this label carries
    end_types: tuple[ast.ValType, ...]
    height: int
    unreachable: bool = False
    start: int = -1  # the pc of the op that opened it; -1 for the body


class CheckState:
    """Constraint stack plus control frames (the label stack)."""

    def __init__(self) -> None:
        self.vals: list = []
        self.ctrls: list[_Frame] = []
        self.pc = -1  # the offset of the op being checked

    def push_ctrl(self, kind: str, label_types, end_types) -> None:
        self.ctrls.append(_Frame(kind, tuple(label_types), tuple(end_types),
                                 len(self.vals), start=self.pc))


class _Reject(Exception):
    def __init__(self, code: ErrorCode, message: str):
        self.code = code
        self.message = message


class _FuncChecker:
    def __init__(self, ctx: Ctx):
        self.ctx = ctx
        self.state = CheckState()
        self.checks = 0

    # -- stack primitives

    def push(self, v) -> None:
        self.state.vals.append(v)

    def pop(self, expect=TANY, secret_code: ErrorCode | None = None):
        st = self.state
        frame = st.ctrls[-1]
        if len(st.vals) == frame.height:
            if frame.unreachable:
                return expect
            raise _Reject(ErrorCode.StackUnderflow, "operand stack underflow")
        v = st.vals.pop()
        u = unify(v, expect)
        if u is None:
            if secret_code is not None and (
                    v is TSECRET or (isinstance(v, ast.ValType)
                                     and v.sec is ast.Secrecy.SECRET)):
                raise _Reject(secret_code, f"operand must be i32, got {v!r}")
            raise _Reject(ErrorCode.TypeMismatch,
                          f"expected {expect!r}, got {v!r}")
        return u

    def pop_public_i32(self, code: ErrorCode) -> None:
        self.pop(ast.I32, secret_code=code)

    def set_unreachable(self) -> None:
        frame = self.state.ctrls[-1]
        del self.state.vals[frame.height:]
        frame.unreachable = True

    def hand(self, types, depths) -> list:
        """Pop, top first, what an op hands to the labels at these depths."""
        return [self.pop(t) for t in reversed(types)]

    def pop_ctrl(self) -> _Frame:
        frame = self.state.ctrls[-1]
        self.hand(frame.end_types, (0,))
        if len(self.state.vals) != frame.height:
            raise _Reject(ErrorCode.TypeMismatch,
                          "values left on stack at end of block")
        return self.state.ctrls.pop()

    def label(self, depth: int) -> _Frame:
        if depth >= len(self.state.ctrls):
            raise _Reject(ErrorCode.SyntaxIndex, f"label depth {depth} out of range")
        return self.state.ctrls[-1 - depth]

    # -- per-instruction rule, the most frequent ops first

    def check_op(self, op: tuple) -> None:
        self.checks += 1
        tag = op[0]
        if tag == flat.T_CONST:
            self.push(op[2])
        elif tag == flat.T_GET_LOCAL:
            self.push(self._local(op[2]))
        elif tag == flat.T_BINOP:
            t, opname = op[2], op[3]
            if opname in ast.UNSAFE_BINOPS and t.sec is ast.Secrecy.SECRET:
                raise _Reject(ErrorCode.UnsafeOpOnSecret,
                              f"{t.name}.{opname} leaks operand values")
            self.pop(t)
            self.pop(t)
            self.push(t)
        elif tag == flat.T_END:
            frame = self.pop_ctrl()
            for t in frame.end_types:
                self.push(t)
        elif tag == flat.T_SET_LOCAL:
            self.pop(self._local(op[2]))
        elif tag == flat.T_TEE_LOCAL:
            t = self._local(op[2])
            self.pop(t)
            self.push(t)
        elif tag == flat.T_STORE:
            t = op[2]
            self._mem_access(t, op[4], op[5], op[6], "store")
            self.pop(t)
            self.pop_public_i32(ErrorCode.SecretMemoryIndex)
        elif tag == flat.T_LOAD:
            t: ast.ValType = op[2]
            self._mem_access(t, op[5], op[6], op[7], "load")
            self.pop_public_i32(ErrorCode.SecretMemoryIndex)
            self.push(t)
        elif tag == flat.T_DROP:
            self.pop()
        elif tag == flat.T_SELECT:
            sec = op[2]
            if sec is ast.Secrecy.SECRET:
                self.pop(ast.S32)
            else:
                self.pop_public_i32(ErrorCode.SecretCondition)
            t = self.pop()
            t = self._unify_or(t, self.pop(), ErrorCode.TypeMismatch,
                               "select operands disagree")
            if sec is ast.Secrecy.SECRET:
                if isinstance(t, ast.ValType) and not t.is_int:
                    raise _Reject(ErrorCode.FloatSecrecy,
                                  "select secret cannot produce a float")
                t = self._unify_or(t, TSECRET, ErrorCode.TypeMismatch,
                                   "select secret requires secret operands")
            self.push(t)
        elif tag == flat.T_GET_GLOBAL:
            self.push(self._global(op[2])[1])
        elif tag == flat.T_RELOP:
            t = op[2]
            self.pop(t)
            self.pop(t)
            self.push(ast.ValType(ast.Rep.I32, t.sec))
        elif tag == flat.T_UNOP:
            t = op[2]
            self.pop(t)
            self.push(t)
        elif tag == flat.T_TESTOP:
            t = op[2]
            self.pop(t)
            self.push(ast.ValType(ast.Rep.I32, t.sec))
        elif tag == flat.T_IF:
            self.pop_public_i32(ErrorCode.SecretCondition)
            r = (op[2],) if op[2] else ()
            if op[3] < 0 and r:
                raise _Reject(ErrorCode.TypeMismatch,
                              "if without else cannot produce a result")
            self.state.push_ctrl("if", r, r)
        elif tag == flat.T_BLOCK:
            r = (op[2],) if op[2] else ()
            self.state.push_ctrl("block", r, r)
        elif tag == flat.T_LOOP:
            r = (op[2],) if op[2] else ()
            self.state.push_ctrl("loop", (), r)
        elif tag == flat.T_BR_IF:
            self.pop_public_i32(ErrorCode.SecretCondition)
            frame = self.label(op[2])
            for v in reversed(self.hand(frame.label_types, (op[2],))):
                self.push(v)
        elif tag == flat.T_BR:
            self.hand(self.label(op[2]).label_types, (op[2],))
            self.set_unreachable()
        elif tag == flat.T_ELSE:
            frame = self.pop_ctrl()
            frame.kind, frame.unreachable = "else", False  # keeps its start
            self.state.ctrls.append(frame)
        elif tag == flat.T_CLASSIFY:
            self.pop(op[3])
            self.push(op[2])
        elif tag == flat.T_CALL:
            if op[2] >= len(self.ctx.funcs):
                raise _Reject(ErrorCode.SyntaxIndex,
                              f"function index {op[2]} out of range")
            ft = self.ctx.funcs[op[2]]
            self._call(ft)
        elif tag == flat.T_SET_GLOBAL:
            mut, t = self._global(op[2])
            if not mut:
                raise _Reject(ErrorCode.MutabilityViolation,
                              f"global {op[2]} is immutable")
            self.pop(t)
        elif tag == flat.T_CONVERT:
            to, frm = op[2], op[3]
            if ast.Secrecy.SECRET in (to.sec, frm.sec):
                if not (to.is_int and frm.is_int):
                    raise _Reject(ErrorCode.FloatSecrecy,
                                  "conversion between float and secret")
                if to.sec is not frm.sec:
                    raise _Reject(ErrorCode.TypeMismatch,
                                  "conversion must preserve secrecy")
            self.pop(frm)
            self.push(to)
        elif tag == flat.T_REINTERPRET:
            to, frm = op[2], op[3]
            if ast.Secrecy.SECRET in (to.sec, frm.sec):
                raise _Reject(ErrorCode.FloatSecrecy,
                              "reinterpret requires public types on both sides")
            self.pop(frm)
            self.push(to)
        elif tag == flat.T_DECLASSIFY:
            if self.ctx.trust is not ast.Trust.TRUSTED:
                raise _Reject(ErrorCode.DeclassifyRequiresTrusted,
                              "declassify in untrusted function")
            self.pop(op[3])
            self.push(op[2])
        elif tag == flat.T_NOP:
            pass
        elif tag == flat.T_UNREACHABLE:
            self.set_unreachable()
        elif tag == flat.T_BR_TABLE:
            self.pop_public_i32(ErrorCode.SecretCondition)
            default = self.label(op[3])
            for depth in op[2]:
                if self.label(depth).label_types != default.label_types:
                    raise _Reject(ErrorCode.TypeMismatch,
                                  "br_table labels have mismatched types")
            self.hand(default.label_types, (*op[2], op[3]))
            self.set_unreachable()
        elif tag == flat.T_RETURN:
            self.hand(self.ctx.return_types, (len(self.state.ctrls) - 1,))
            self.set_unreachable()
        elif tag == flat.T_CALL_INDIRECT:
            ft: ast.FuncType = op[2]
            if not ast.trust_geq(self.ctx.trust, ft.trust):
                raise _Reject(ErrorCode.TrustViolationCall,
                              "untrusted code cannot call_indirect a trusted type")
            if self.ctx.table is None:
                raise _Reject(ErrorCode.SyntaxIndex, "no table in module")
            self.pop_public_i32(ErrorCode.SecretCondition)
            for t in reversed(ft.params):
                self.pop(t)
            for t in ft.results:
                self.push(t)
        elif tag == flat.T_MEMORY_SIZE:
            self._memory()
            self.push(ast.I32)
        elif tag == flat.T_MEMORY_GROW:
            self._memory()
            self.pop_public_i32(ErrorCode.SecretMemoryIndex)
            self.push(ast.I32)
        else:
            raise AssertionError(f"unhandled tag {tag}")

    # -- rule helpers

    def _unify_or(self, a, b, code: ErrorCode, message: str):
        u = unify(a, b)
        if u is None:
            raise _Reject(code, f"{message} ({a!r} vs {b!r})")
        return u

    def _call(self, ft: ast.FuncType) -> None:
        if not ast.trust_geq(self.ctx.trust, ft.trust):
            raise _Reject(ErrorCode.TrustViolationCall,
                          "untrusted code cannot call a trusted function")
        for t in reversed(ft.params):
            self.pop(t)
        for t in ft.results:
            self.push(t)

    def _local(self, k: int) -> ast.ValType:
        if k >= len(self.ctx.locals):
            raise _Reject(ErrorCode.SyntaxIndex, f"local index {k} out of range")
        return self.ctx.locals[k]

    def _global(self, k: int) -> tuple[bool, ast.ValType]:
        if k >= len(self.ctx.globals):
            raise _Reject(ErrorCode.SyntaxIndex, f"global index {k} out of range")
        return self.ctx.globals[k]

    def _memory(self) -> tuple[int, ast.Secrecy]:
        if self.ctx.memory is None:
            raise _Reject(ErrorCode.SyntaxIndex, "no memory in module")
        return self.ctx.memory

    def _mem_access(self, t: ast.ValType, align: int, offset: int,
                    width: int, origin: str) -> None:
        _, mem_sec = self._memory()
        if t.sec is not mem_sec:
            raise _Reject(ErrorCode.MemorySecrecyMismatch,
                          f"{t.name}.{origin} on {mem_sec.value} memory")
        if align > width.bit_length() - 1:
            raise _Reject(ErrorCode.AlignmentViolation,
                          f"alignment 2^{align} exceeds access width {width}")
        if not 0 <= offset < 1 << 32:
            raise _Reject(ErrorCode.SyntaxIndex,
                          f"memory offset {offset} outside [0, 2^32)")

    # -- whole body

    def run(self, ff: FlatFunc, errors: list[ValidationError]) -> None:
        rts = ff.type.results
        st = self.state
        st.push_ctrl("func", rts, rts)
        for pc, op in enumerate(ff.code):
            st.pc = pc
            depth0 = len(st.ctrls)
            try:
                self.check_op(op)
            except _Reject as r:
                origin = ff.origins[pc]
                errors.append(ValidationError(r.code, ff.index, pc, r.message,
                                              origin.span))
                # resume in unreachable state, keeping frames balanced with
                # the block structure so later errors still surface
                self._recover(op, depth0, rts)
        if self.state.ctrls:
            # unterminated frames: only possible with malformed flat code
            errors.append(ValidationError(
                ErrorCode.TypeMismatch, ff.index, len(ff.code) - 1,
                "unbalanced block structure", None))

    def _recover(self, op: tuple, depth0: int, rts) -> None:
        st = self.state
        tag = op[0]
        if tag in (flat.T_BLOCK, flat.T_LOOP, flat.T_IF):
            r = (op[2],) if op[2] else ()
            kind = {flat.T_BLOCK: "block", flat.T_LOOP: "loop",
                    flat.T_IF: "if"}[tag]
            st.push_ctrl(kind, () if tag is flat.T_LOOP else r, r)
        elif tag in (flat.T_ELSE, flat.T_END) and len(st.ctrls) == depth0 \
                and depth0 > 1:
            frame = st.ctrls.pop()
            del st.vals[frame.height:]
            if tag == flat.T_ELSE:
                st.push_ctrl("else", frame.label_types, frame.end_types)
            else:
                st.vals.extend(frame.end_types)
        if not st.ctrls:
            st.push_ctrl("func", rts, rts)
        self.set_unreachable()


class _Recorder(_FuncChecker):
    """The checker that also records the stack types before each op and
    which op produced each slot (``flat.DefUse``, left only on a function
    that checks).  A construct's result is produced by its opening op."""

    def __init__(self, ctx: Ctx, n: int) -> None:
        super().__init__(ctx)
        self.snapshots: list[tuple] = []
        self.exact = True  # no slot holds TANY or TSECRET: snapshots are exact
        self.du = flat.DefUse([()] * n, [()] * n, [None] * n, {})
        self.prods: list = []  # the producer of each slot of state.vals
        self.popped: list = []  # what the current op popped, top first
        self.handed: list = []  # what it handed to a label, top first

    def pop(self, expect=TANY, secret_code: ErrorCode | None = None):
        st = self.state
        self.popped.append(self.prods.pop()
                           if len(st.vals) > st.ctrls[-1].height else None)
        return _FuncChecker.pop(self, expect, secret_code)

    def hand(self, types, depths) -> list:
        n = len(self.popped)
        kept = _FuncChecker.hand(self, types, depths)
        self.handed = self.popped[n:]
        del self.popped[n:]  # label pops are flows, not operands
        if self.handed and self.handed[0] is not None:
            ctrls = self.state.ctrls
            self.du.flows[self.state.pc] = tuple(
                (ctrls[-1 - d].start, self.handed[0]) for d in depths)
        return kept

    def check_op(self, op: tuple) -> None:
        st, du, prods, popped = self.state, self.du, self.prods, self.popped
        pc, tag, closing = st.pc, op[0], st.ctrls[-1]
        self.snapshots.append(tuple(st.vals) if self.exact else tuple(
            v if isinstance(v, ast.ValType) else None for v in st.vals))
        _FuncChecker.check_op(self, op)
        if popped:
            popped.reverse()
            du.args[pc] = tuple(popped)
            popped.clear()
        if tag == flat.T_BR_IF:
            du.targets[pc] = st.ctrls[-1 - op[2]].start
        n = len(st.vals) - len(prods)
        del prods[len(st.vals):]  # slots an unconditional branch dropped
        if n <= 0:
            return
        p = pc
        if tag == flat.T_END:
            p = closing.start  # -1 after the body's final end
        elif tag == flat.T_BR_IF and self.handed[0] is not None:
            p = self.handed[0]  # a kept value keeps its producer and type
        elif tag == flat.T_TEE_LOCAL and du.args[pc] == (None,):
            p = None  # dead code: a tee of no value yields none
        prods.extend([p] * n)
        if p == pc or tag == flat.T_END and p >= 0:
            v = st.vals[-1]
            if not isinstance(v, ast.ValType):  # only select pushes these
                v, self.exact = None, False
            du.types[p] = v

    def run(self, ff: FlatFunc, errors: list[ValidationError]) -> None:
        n = len(errors)
        super().run(ff, errors)
        ff.stack_types = self.snapshots
        ff.def_use = self.du if len(errors) == n else None


def check_instr(ctx: Ctx, state: CheckState, ins: ast.Instr):
    """Check one non-structured instruction against a state.

    Returns the updated state or a ValidationError.  Block-structured
    instructions need the surrounding walk; use validate_module for whole
    bodies.  Exposed for rule-level tests and tooling.
    """
    fl = flat._Flattener()
    fl.instr(ins)
    checker = _FuncChecker(ctx)
    checker.state = state
    if not state.ctrls:
        state.push_ctrl("func", (), ())
    try:
        for op in fl.code:
            checker.check_op(op)
    except _Reject as r:
        return ValidationError(r.code, None, None, r.message, ins.span)
    return state


# --------------------------------------------------------------------------
# Module-level validation

@dataclass
class TypedModule:
    module: ast.Module
    funcs: list[FlatFunc | None]  # None for imported functions
    stats: dict

    def flat(self, index: int) -> FlatFunc:
        ff = self.funcs[index]
        if ff is None:
            raise ValueError(f"function {index} is imported")
        return ff


def _module_ctx(m: ast.Module) -> dict:
    return {
        "funcs": tuple(f.type for f in m.funcs),
        "globals": tuple((g.mutable, g.type) for g in m.globals),
        "table": m.table.min if m.table is not None else None,
        "memory": (m.memory.min, m.memory.sec) if m.memory is not None else None,
    }


def _check_const_expr(m: ast.Module, instrs: tuple[ast.Instr, ...],
                      expect: ast.ValType, what: str,
                      errors: list[ValidationError]) -> None:
    if len(instrs) != 1:
        errors.append(ValidationError(
            ErrorCode.TypeMismatch, None, None,
            f"{what} initializer must be a single constant instruction"))
        return
    ins = instrs[0]
    if isinstance(ins, ast.Const):
        t = ins.type
    elif isinstance(ins, ast.GetGlobal):
        if ins.glob >= len(m.globals):
            errors.append(ValidationError(
                ErrorCode.SyntaxIndex, None, None,
                f"{what} initializer references unknown global {ins.glob}"))
            return
        g = m.globals[ins.glob]
        if g.imported is None or g.mutable:
            errors.append(ValidationError(
                ErrorCode.TypeMismatch, None, None,
                f"{what} initializer must reference an immutable imported global"))
            return
        t = g.type
    else:
        errors.append(ValidationError(
            ErrorCode.TypeMismatch, None, None,
            f"{what} initializer is not a constant expression"))
        return
    if t != expect and not (expect.sec is ast.Secrecy.SECRET and
                            t == ast.ValType(expect.rep, ast.Secrecy.PUBLIC)):
        # public constants may always flow up into a secret slot
        errors.append(ValidationError(
            ErrorCode.TypeMismatch, None, None,
            f"{what} initializer has type {t.name}, expected {expect.name}"))


def check_module(m: ast.Module, annotate: bool = False
                 ) -> tuple[TypedModule | None, list[ValidationError]]:
    """Validate; returns (typed module or None, all errors found)."""
    errors: list[ValidationError] = []
    parts = _module_ctx(m)

    names = [n for f in m.funcs for n in f.exports]
    names += [n for g in m.globals for n in g.exports]
    names += list(m.table.exports) if m.table else []
    names += list(m.memory.exports) if m.memory else []
    for n in ast.duplicates(names):
        errors.append(ValidationError(ErrorCode.SyntaxIndex, None, None,
                                      f"duplicate export name {n!r}"))

    for g in m.globals:
        if g.imported is None:
            _check_const_expr(m, g.init or (), g.type, "global", errors)
    if m.table is not None:
        for seg in m.table.elems:
            _check_const_expr(m, seg.offset, ast.I32, "elem", errors)
            for fi in seg.funcs:
                if fi >= len(m.funcs):
                    errors.append(ValidationError(
                        ErrorCode.SyntaxIndex, None, None,
                        f"elem references unknown function {fi}"))
    for seg in m.data:
        if m.memory is None:
            errors.append(ValidationError(ErrorCode.SyntaxIndex, None, None,
                                          "data segment without memory"))
        else:
            _check_const_expr(m, seg.offset, ast.I32, "data", errors)

    flat_funcs: list[FlatFunc | None] = []
    n_checks = n_ops = 0
    for i, f in enumerate(m.funcs):
        if f.imported is not None:
            flat_funcs.append(None)
            continue
        try:
            ff = flat.flatten_func(i, f)
        except ast.NestingTooDeep as e:
            errors.append(ValidationError(ErrorCode.NestingTooDeep, i, None, str(e)))
            continue
        ctx = Ctx(trust=f.type.trust, locals=f.type.params + f.locals,
                  return_types=f.type.results, **parts)
        checker = _Recorder(ctx, len(ff.code)) if annotate else _FuncChecker(ctx)
        checker.run(ff, errors)
        n_checks += checker.checks
        n_ops += len(ff.code)
        flat_funcs.append(ff)

    if errors:
        return None, errors
    tm = TypedModule(m, flat_funcs, {"instrs": n_ops, "checks": n_checks})
    return tm, []


def validate_module(m: ast.Module, annotate: bool = False) -> TypedModule:
    """Validate a module; raises ValidationFailure listing every error."""
    tm, errors = check_module(m, annotate)
    if errors:
        raise ValidationFailure(errors)
    assert tm is not None
    return tm


def flatten_unchecked(m: ast.Module) -> TypedModule:
    """Flatten without validating.

    Exists so tests can run deliberately ill-typed modules through the
    interpreter and the lockstep checker; never use on untrusted input.
    """
    funcs = [None if f.imported is not None else flat.flatten_func(i, f)
             for i, f in enumerate(m.funcs)]
    return TypedModule(m, funcs, {"instrs": 0, "checks": 0, "unchecked": True})
