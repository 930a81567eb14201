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

This walk is the only static model of how an op moves the stack.  It
leaves on every function that checks the stack types before each op and
the def-use record, both linear in the body: each op keeps only its top
cell ``(type or None, producer, cell below)``, shared with later ops.
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
    LimitsInvalid = "LimitsInvalid"


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
    label_types: tuple[ast.ValType, ...]  # what a br to this label carries
    end_types: tuple[ast.ValType, ...]
    height: int
    base: tuple | None  # the top cell when it opened
    unreachable: bool = False
    start: int = -1  # the pc of the op that opened it; -1 for the body


class CheckState:
    """Constraint stack plus control frames (the label stack).  ``top`` is
    the cell of the top slot: ``(type or None, producer, cell below)``."""

    def __init__(self) -> None:
        self.vals: list = []
        self.top: tuple | None = None
        self.ctrls: list[_Frame] = []
        self.pc = -1  # the offset of the op being checked

    def push_ctrl(self, label_types, end_types) -> None:
        self.ctrls.append(_Frame(tuple(label_types), tuple(end_types),
                                 len(self.vals), self.top, start=self.pc))


class _Reject(Exception):
    def __init__(self, code: ErrorCode, message: str):
        self.code = code
        self.message = message


class _FuncChecker:
    """Checks a body of ``n`` ops and records which op produced each slot
    (``flat.DefUse``); a construct's result is produced by its opening op."""

    def __init__(self, ctx: Ctx, n: int):
        self.ctx = ctx
        self.state = CheckState()
        self.checks = 0
        self.du = flat.DefUse([()] * n, [()] * n, [None] * n, {})
        self.tops: list = []  # the top cell before each op
        self.popped: list = []  # the producers the op popped, top first

    # -- stack primitives

    def push(self, v) -> None:
        """Push the value the op being checked produces."""
        pc = self.state.pc
        self.du.types[pc] = self.push_from(v, pc)

    def push_from(self, v, p: int | None):
        """Push ``v`` as produced by ``p`` (None for no value, in dead
        code); returns the type recorded for it."""
        st = self.state
        st.vals.append(v)
        t = None if v is TANY or v is TSECRET else v
        st.top = (t, p, st.top)
        return t

    def pop(self, expect=TANY, secret_code: ErrorCode | None = None):
        st = self.state
        frame = st.ctrls[-1]
        if len(st.vals) == frame.height:
            if frame.unreachable:
                self.popped.append(None)
                return expect
            raise _Reject(ErrorCode.StackUnderflow, "operand stack underflow")
        v = st.vals.pop()
        self.popped.append(st.top[1])
        st.top = st.top[2]
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
        self.state.top = frame.base
        frame.unreachable = True

    def hand(self, types, depths) -> list:
        """Pop, top first, what an op hands to the labels at these depths,
        and record it as flows; returns (value, producer) pairs."""
        st, popped = self.state, self.popped
        n = len(popped)
        kept = [self.pop(t) for t in reversed(types)]
        handed = popped[n:]
        del popped[n:]  # label pops are flows, not operands
        if handed and handed[0] is not None:
            self.du.flows[st.pc] = tuple(
                (st.ctrls[-1 - d].start, handed[0]) for d in depths)
        return list(zip(kept, handed))

    def _open(self, op: tuple) -> None:
        """Open the frame of a block, loop or if; a branch to a loop
        carries no value."""
        r = (op[2],) if op[2] else ()
        self.state.push_ctrl(() if op[0] == flat.T_LOOP else r, r)

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
                self.push_from(t, frame.start)  # -1 after the body's final end
                if frame.start >= 0:
                    self.du.types[frame.start] = t
        elif tag == flat.T_SET_LOCAL:
            self.pop(self._local(op[2]))
        elif tag == flat.T_TEE_LOCAL:
            t = self._local(op[2])
            self.pop(t)
            if self.popped[-1] is None:  # dead code: a tee of no value
                self.push_from(t, None)  # yields none
            else:
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
            if op[3] < 0 and op[2]:
                raise _Reject(ErrorCode.TypeMismatch,
                              "if without else cannot produce a result")
            self._open(op)
        elif tag == flat.T_BLOCK or tag == flat.T_LOOP:
            self._open(op)
        elif tag == flat.T_BR_IF:
            self.pop_public_i32(ErrorCode.SecretCondition)
            frame = self.label(op[2])
            self.du.targets[self.state.pc] = frame.start
            for v, p in reversed(self.hand(frame.label_types, (op[2],))):
                if p is None:
                    self.push(v)
                else:
                    self.push_from(v, p)  # keeps its producer and type
        elif tag == flat.T_BR:
            self.hand(self.label(op[2]).label_types, (op[2],))
            self.set_unreachable()
        elif tag == flat.T_ELSE:
            frame = self.pop_ctrl()
            frame.unreachable = False  # keeps its start
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
            self._call(ft)
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
        """Check the body; if it checks, leave the record on ``ff``."""
        rts = ff.type.results
        st, du, tops, popped = self.state, self.du, self.tops, self.popped
        st.push_ctrl(rts, rts)
        n = len(errors)
        for pc, op in enumerate(ff.code):
            st.pc = pc
            tops.append(st.top)
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
            if popped:
                du.args[pc] = tuple(popped[::-1])
                popped.clear()
        if self.state.ctrls:
            # unterminated frames: only possible with malformed flat code
            errors.append(ValidationError(
                ErrorCode.TypeMismatch, ff.index, len(ff.code) - 1,
                "unbalanced block structure", None))
        if len(errors) == n:
            ff.stack_types, ff.def_use = flat.StackTypes(tops), du

    def _recover(self, op: tuple, depth0: int, rts) -> None:
        st = self.state
        tag = op[0]
        if tag in (flat.T_BLOCK, flat.T_LOOP, flat.T_IF):
            self._open(op)
        elif tag == flat.T_END and len(st.ctrls) == depth0 > 1:
            st.ctrls.pop()  # an else keeps its frame, made unreachable below
        if not st.ctrls:
            st.push_ctrl(rts, rts)
        self.set_unreachable()


def check_instr(ctx: Ctx, state: CheckState, ins: ast.Instr):
    """Check one instruction against a state, a block, loop or if with
    its bodies.

    Returns the updated state or a ValidationError.  Use validate_module
    for whole bodies.  Exposed for rule-level tests and tooling.
    """
    func = ast.Func(ast.FuncType(ctx.trust, (), ()), (), (ins,))
    code = flat.flatten_func(0, func).code[:-1]  # without the body's end
    checker = _FuncChecker(ctx, len(code))
    checker.state = state
    if state.top is None:  # one cell with no producer per primed slot
        primed = state.vals[:]
        state.vals.clear()
        for v in primed:
            checker.push_from(v, None)
    if not state.ctrls:
        state.push_ctrl((), ())
    try:
        for state.pc, op in enumerate(code):
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


def check_module(m: ast.Module, annotate: bool = True
                 ) -> tuple[TypedModule | None, list[ValidationError]]:
    """Validate; returns (typed module or None, all errors found).  Every
    function of an accepted module carries its stack types and def-use
    record.  ``annotate`` is not read: it stays for callers that still
    pass it, such as the benchmark workloads in ``perfbench/``."""
    errors: list[ValidationError] = []
    parts = _module_ctx(m)

    for n in ast.duplicates(name for name, _, _ in m.exports()):
        errors.append(ValidationError(ErrorCode.SyntaxIndex, None, None,
                                      f"duplicate export name {n!r}"))

    for noun, lim in (("memory", m.memory), ("table", m.table)):
        if lim is not None and lim.max is not None and lim.min > lim.max:
            errors.append(ValidationError(ErrorCode.LimitsInvalid, None, None, (
                f"{noun} minimum {lim.min} exceeds its maximum {lim.max}")))
    # 65,536 pages of 64 KiB span the 32-bit address space
    if m.memory is not None and max(m.memory.min, m.memory.max or 0) > 1 << 16:
        errors.append(ValidationError(ErrorCode.LimitsInvalid, None, None,
                                      "memory limits exceed 65536 pages"))
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
        checker = _FuncChecker(ctx, len(ff.code))
        checker.run(ff, errors)
        n_checks += checker.checks
        n_ops += len(ff.code)
        flat_funcs.append(ff)

    if errors:
        return None, errors
    tm = TypedModule(m, flat_funcs, {"instrs": n_ops, "checks": n_checks})
    return tm, []


def validate_module(m: ast.Module, annotate: bool = True) -> TypedModule:
    """Validate a module; raises ValidationFailure listing every error.
    ``annotate`` is not read, as in ``check_module``."""
    tm, errors = check_module(m)
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
