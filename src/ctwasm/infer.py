"""Secrecy-label inference for plain Wasm input.

Starts from the most secret assumption (every integer slot and the whole
memory secret) and demotes labels to public only where the type system
leaves no choice: branch conditions, memory addresses, div/rem operands,
float positions, indirect-call indices, and anything those flow from.
Demotion propagates backwards through data dependencies and across call
boundaries until nothing changes; classify coercions are inserted where a
public value feeds a slot that stayed secret.  No declassification is
ever inserted: when a forced demotion reaches the (pinned-secret) memory,
the tool reports a conflict with the provenance chain instead of
publishing the data.

Hints can only weaken: force a parameter/result or the memory public, or
mark functions trusted.

Both walks below traverse instruction occurrences in the same order, so
the value produced by the k-th occurrence is the node ("val", k) in the
constraint graph and needs no separate bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast
from .ast import Instr, Secrecy, Trust, ValType
from .validate import TypedModule, validate_module

SECRET = Secrecy.SECRET
PUBLIC = Secrecy.PUBLIC


class InputInvalid(Exception):
    """The input is not plain Wasm (or fails base validation)."""


@dataclass
class Hints:
    """Developer overrides; every hint weakens (public/trusted only)."""

    public_params: dict[str, set[int]] = field(default_factory=dict)
    public_results: set[str] = field(default_factory=set)
    public_memory: bool = False
    trusted: set[str] = field(default_factory=set)

    @classmethod
    def from_json(cls, doc: dict) -> "Hints":
        h = cls()
        for name, spec in doc.get("exports", {}).items():
            params = {int(k) for k, v in spec.get("params", {}).items()
                      if v == "public"}
            if params:
                h.public_params[name] = params
            if spec.get("result") == "public":
                h.public_results.add(name)
        if doc.get("memory") == "public":
            h.public_memory = True
        h.trusted = set(doc.get("trusted", ()))
        return h


@dataclass(frozen=True)
class Conflict:
    location: str
    chain: tuple[str, ...]  # public sink first, pinned secret source last
    suggestion: str

    def to_json(self) -> dict:
        return {"location": self.location, "chain": list(self.chain),
                "suggestion": self.suggestion}


@dataclass
class InferResult:
    module: TypedModule | None
    conflicts: list[Conflict]
    notes: list[str]
    iterations: int
    demotions: int

    @property
    def ok(self) -> bool:
        return self.module is not None


def fixpoint_stats(result: InferResult) -> tuple[int, int]:
    """(solver rounds, labels demoted) of a finished inference run."""
    return (result.iterations, result.demotions)


@dataclass(frozen=True)
class _Rule:
    needs: tuple  # antecedent nodes: all public => consequent public
    node: tuple  # consequent
    why: str
    loc: str


def _scan_is_plain(m: ast.Module) -> str | None:
    def t_ok(t: ValType) -> bool:
        return t.sec is PUBLIC

    for i, f in enumerate(m.funcs):
        if f.type.trust is not Trust.UNTRUSTED:
            return f"func {i} carries a trust annotation"
        if not all(t_ok(t) for t in f.type.params + f.type.results + f.locals):
            return f"func {i} uses secret value types"
        bad = _scan_body(f.body)
        if bad:
            return f"func {i}: {bad}"
    for i, g in enumerate(m.globals):
        if not t_ok(g.type):
            return f"global {i} uses a secret type"
    if m.memory is not None and m.memory.sec is not PUBLIC:
        return "memory carries a secrecy annotation"
    return None


def _scan_body(body) -> str | None:
    for ins in ast.iter_instrs(body):
        match ins:
            case ast.Classify() | ast.Declassify():
                return "classify/declassify present"
            case ast.Select(sec=Secrecy.SECRET):
                return "select secret present"
            case ast.CallIndirect(type=ft):
                if ft.trust is not Trust.UNTRUSTED or not all(
                        t.sec is PUBLIC for t in ft.params + ft.results):
                    return "annotated call_indirect present"
            case _:
                t = getattr(ins, "type", None)
                if isinstance(t, ValType) and t.sec is not PUBLIC:
                    return "secret-typed instruction present"
    return None


def _loc(f: int, ins: Instr) -> str:
    where = f"func {f}"
    if ins.span is not None:
        where += f" line {ins.span.line}:{ins.span.col}"
    return where


def _table_candidates(m: ast.Module, ft: ast.FuncType) -> list[int]:
    """Table-resident functions an indirect call of this type may reach."""
    out: list[int] = []
    if m.table is None:
        return out
    sig = (tuple(ast.public_type(t) for t in ft.params),
           tuple(ast.public_type(t) for t in ft.results))
    for seg in m.table.elems:
        for k in seg.funcs:
            cand = m.funcs[k].type
            if (cand.params, cand.results) == sig and k not in out:
                out.append(k)
    return out


class _Walk:
    """Shared traversal: occurrence counting and block frames.

    Frames are [result_slot, height, unreachable]; result_slot is walk
    specific (a node for the builder, a demand for the flagger) and None
    for loops and resultless blocks.
    """

    def __init__(self, m: ast.Module):
        self.m = m
        self.counter = 0

    def walk_module(self) -> None:
        self.counter = 0
        for fi, f in enumerate(self.m.funcs):
            if f.imported is None:
                self.enter_func(fi, f)
                stack: list = []
                frames = [[self.func_result_slot(fi, f), 0, False]]
                self.body(fi, f.body, stack, frames)
                self.exit_func(fi, f, stack, frames)

    def body(self, fi: int, instrs, stack: list, frames: list) -> None:
        for ins in instrs:
            self.counter += 1
            self.instr(fi, self.counter, ins, stack, frames)

    # hooks
    def enter_func(self, fi, f):
        pass

    def exit_func(self, fi, f, stack, frames):
        pass

    def func_result_slot(self, fi, f):
        return None

    def instr(self, fi, me, ins, stack, frames):
        raise NotImplementedError


class _Builder(_Walk):
    """Generate the demotion rules."""

    def __init__(self, m: ast.Module):
        super().__init__(m)
        self.rules: list[_Rule] = []
        self.forced: list[tuple[tuple, str, str]] = []
        self._tmp = 0

    def tmp(self) -> tuple:
        self._tmp += 1
        return ("tmp", self._tmp)

    def rule(self, needs, node, why, loc) -> None:
        self.rules.append(_Rule(tuple(needs), node, why, loc))

    def force(self, node, why, loc) -> None:
        self.forced.append((node, why, loc))

    def edge(self, a, b, why, loc) -> None:
        """a public implies b public."""
        self.rule((a,), b, why, loc)

    def build(self) -> "_Builder":
        m = self.m
        for gi, g in enumerate(m.globals):
            if not g.type.is_int:
                self.force(("global", gi), "float global", f"global {gi}")
        for fi, f in enumerate(m.funcs):
            for li, t in enumerate(f.type.params + f.locals):
                if not t.is_int:
                    self.force(("local", fi, li), "float local", f"func {fi}")
            if f.type.results and not f.type.results[0].is_int:
                self.force(("result", fi), "float result", f"func {fi}")
        self.walk_module()
        self._unify_table_signatures()
        return self

    def func_result_slot(self, fi, f):
        return ("result", fi) if f.type.results else None

    # the symbolic stack holds (node, is_float) pairs; float-ness matters
    # for the one untyped instruction (select), whose result must be
    # forced public when the operands are floats

    def exit_func(self, fi, f, stack, frames):
        if f.type.results and stack and not frames[0][2]:
            self.edge(("result", fi), stack[-1][0], "function result",
                      f"func {fi}")

    def _pop(self, stack, frames):
        if len(stack) > frames[-1][1]:
            return stack.pop()
        return (self.tmp(), False)

    def _flow_to_label(self, depth, stack, frames, why, loc):
        if depth >= len(frames):
            return
        slot = frames[-1 - depth][0]
        if slot is not None and len(stack) > frames[-1][1]:
            self.edge(slot, stack[-1][0], why, loc)

    def instr(self, fi, me, ins, stack, frames):
        m = self.m
        loc = _loc(fi, ins)
        pop = lambda: self._pop(stack, frames)
        val = ("val", me)
        match ins:
            case ast.Const(type=t):
                if not t.is_int:
                    self.force(val, "float constant", loc)
                stack.append((val, not t.is_int))
            case ast.GetLocal(local=k):
                self.edge(val, ("local", fi, k), "read of local", loc)
                t = (m.funcs[fi].type.params + m.funcs[fi].locals)[k]
                stack.append((val, not t.is_int))
            case ast.SetLocal(local=k):
                self.edge(("local", fi, k), pop()[0], "write to local", loc)
            case ast.TeeLocal(local=k):
                v = stack[-1] if len(stack) > frames[-1][1] else pop()
                self.edge(("local", fi, k), v[0], "write to local", loc)
            case ast.GetGlobal(glob=k):
                self.edge(val, ("global", k), "read of global", loc)
                stack.append((val, not m.globals[k].type.is_int))
            case ast.SetGlobal(glob=k):
                self.edge(("global", k), pop()[0], "write to global", loc)
            case ast.Binop(type=t, op=op):
                b, a = pop(), pop()
                if op in ast.UNSAFE_BINOPS and t.is_int:
                    for x, what in ((a[0], "left operand"),
                                    (b[0], "right operand"),
                                    (val, "result")):
                        self.force(x, f"{what} of {t.name}.{op}", loc)
                else:
                    self.edge(val, a[0], f"operand of {op}", loc)
                    self.edge(val, b[0], f"operand of {op}", loc)
                if not t.is_int:
                    self.force(val, "float arithmetic", loc)
                stack.append((val, not t.is_int))
            case ast.Unop(type=t, op=op):
                self.edge(val, pop()[0], f"operand of {op}", loc)
                if not t.is_int:
                    self.force(val, "float arithmetic", loc)
                stack.append((val, not t.is_int))
            case ast.Testop():
                self.edge(val, pop()[0], "operand of eqz", loc)
                stack.append((val, False))
            case ast.Relop(type=t, op=op):
                b, a = pop(), pop()
                self.edge(val, a[0], f"operand of {op}", loc)
                self.edge(val, b[0], f"operand of {op}", loc)
                stack.append((val, False))
            case ast.Select():
                c, b, a = pop(), pop(), pop()
                if a[1] or b[1]:
                    # float select: the type can never be secret, so the
                    # result (and through it the condition) must be public
                    self.force(val, "float select", loc)
                self.edge(val, a[0], "select operand", loc)
                self.edge(val, b[0], "select operand", loc)
                self.edge(val, c[0], "select condition under a public type",
                          loc)
                stack.append((val, a[1] or b[1]))
            case ast.Drop():
                pop()
            case ast.Load(type=t):
                self.force(pop()[0], "memory address", loc)
                if t.is_int:
                    self.edge(val, ("mem",), "value loaded from memory", loc)
                else:
                    self.force(val, "float load", loc)
                    self.force(("mem",), "float load", loc)
                stack.append((val, not t.is_int))
            case ast.Store(type=t):
                v, addr = pop(), pop()
                self.force(addr[0], "memory address", loc)
                if t.is_int:
                    self.edge(("mem",), v[0], "value stored to memory", loc)
                else:
                    self.force(("mem",), "float store", loc)
            case ast.MemorySize():
                self.force(val, "memory.size result", loc)
                stack.append((val, False))
            case ast.MemoryGrow():
                self.force(pop()[0], "memory.grow operand", loc)
                self.force(val, "memory.grow result", loc)
                stack.append((val, False))
            case ast.Convert(to=to, frm=frm):
                a = pop()
                if to.is_int and frm.is_int:
                    self.edge(val, a[0], "width conversion", loc)
                else:
                    self.force(a[0], "float conversion operand", loc)
                    self.force(val, "float conversion result", loc)
                stack.append((val, not to.is_int))
            case ast.Reinterpret(to=to):
                self.force(pop()[0], "reinterpret operand", loc)
                self.force(val, "reinterpret result", loc)
                stack.append((val, not to.is_int))
            case ast.Call(func=k):
                ft = m.funcs[k].type
                args = [pop() for _ in ft.params][::-1]
                for i, arg in enumerate(args):
                    self.edge(("local", k, i), arg[0],
                              f"argument {i} of call to func {k}", loc)
                if ft.results:
                    self.edge(val, ("result", k), "call result", loc)
                    stack.append((val, not ft.results[0].is_int))
            case ast.CallIndirect(type=ft):
                self.force(pop()[0], "call_indirect index", loc)
                args = [pop() for _ in ft.params][::-1]
                cands = _table_candidates(m, ft)
                for cand in cands:
                    for i, arg in enumerate(args):
                        self.edge(("local", cand, i), arg[0],
                                  f"argument {i} of indirect call", loc)
                if ft.results:
                    for cand in cands:
                        self.edge(val, ("result", cand),
                                  "indirect call result", loc)
                    stack.append((val, not ft.results[0].is_int))
            case ast.Br(label=k):
                self._flow_to_label(k, stack, frames, "branch result", loc)
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.BrIf(label=k):
                self.force(pop()[0], "br_if condition", loc)
                self._flow_to_label(k, stack, frames, "branch result", loc)
            case ast.BrTable(labels=ls, default=d):
                self.force(pop()[0], "br_table index", loc)
                for k in (*ls, d):
                    self._flow_to_label(k, stack, frames, "branch result", loc)
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.Return():
                if m.funcs[fi].type.results and len(stack) > frames[-1][1]:
                    self.edge(("result", fi), stack[-1][0], "return value", loc)
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.Unreachable():
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.Block(result=r, body=b):
                slot = val if r is not None else None
                if r is not None and not r.is_int:
                    self.force(val, "float block result", loc)
                frames.append([slot, len(stack), False])
                self.body(fi, b, stack, frames)
                frame = frames.pop()
                if slot is not None and len(stack) > frame[1] and not frame[2]:
                    self.edge(slot, stack[-1][0], "block result", loc)
                del stack[frame[1]:]
                if r is not None:
                    stack.append((val, not r.is_int))
            case ast.Loop(result=r, body=b):
                frames.append([None, len(stack), False])
                self.body(fi, b, stack, frames)
                frame = frames.pop()
                if r is not None:
                    if len(stack) > frame[1] and not frame[2]:
                        self.edge(val, stack[-1][0], "loop result", loc)
                    if not r.is_int:
                        self.force(val, "float loop result", loc)
                del stack[frame[1]:]
                if r is not None:
                    stack.append((val, not r.is_int))
            case ast.If(result=r, then=t, else_=e):
                self.force(pop()[0], "if condition", loc)
                slot = val if r is not None else None
                if r is not None and not r.is_int:
                    self.force(val, "float if result", loc)
                for branch in (t, e):
                    frames.append([slot, len(stack), False])
                    self.body(fi, branch, stack, frames)
                    frame = frames.pop()
                    if slot is not None and len(stack) > frame[1] \
                            and not frame[2]:
                        self.edge(slot, stack[-1][0], "if result", loc)
                    del stack[frame[1]:]
                if r is not None:
                    stack.append((val, not r.is_int))
            case ast.Nop():
                pass
            case _:
                raise InputInvalid(f"unsupported instruction {ins!r}")

    def _unify_table_signatures(self) -> None:
        """Functions sharing table slots of one signature must share labels,
        or the indirect-call runtime check would change behavior."""
        if self.m.table is None:
            return
        by_sig: dict[tuple, list[int]] = {}
        for seg in self.m.table.elems:
            for k in seg.funcs:
                ft = self.m.funcs[k].type
                key = (ft.params, ft.results)
                group = by_sig.setdefault(key, [])
                if k not in group:
                    group.append(k)
        for (params, results), funcs in by_sig.items():
            first = funcs[0]
            for other in funcs[1:]:
                for i in range(len(params)):
                    self.edge(("local", first, i), ("local", other, i),
                              "shared table signature", f"func {other}")
                    self.edge(("local", other, i), ("local", first, i),
                              "shared table signature", f"func {first}")
                if results:
                    self.edge(("result", first), ("result", other),
                              "shared table signature", f"func {other}")
                    self.edge(("result", other), ("result", first),
                              "shared table signature", f"func {first}")


def _solve(builder: _Builder, pinned: set[tuple]
           ) -> tuple[set[tuple], list[Conflict], int, int]:
    """Round-based demotion to the least public set."""
    public: set[tuple] = set()
    parent: dict[tuple, _Rule] = {}
    conflicts: list[Conflict] = []
    conflicted: set[tuple] = set()
    demotions = 0

    def apply(rule: _Rule) -> bool:
        nonlocal demotions
        node = rule.node
        if node in public:
            return False
        if node in pinned:
            if node not in conflicted:
                conflicted.add(node)
                conflicts.append(_make_conflict(rule, parent))
            return False
        public.add(node)
        parent[node] = rule
        demotions += 1
        return True

    for node, why, loc in builder.forced:
        apply(_Rule((), node, why, loc))
    rounds = 1
    changed = True
    while changed:
        changed = False
        rounds += 1
        for rule in builder.rules:
            if all(n in public for n in rule.needs):
                if apply(rule):
                    changed = True
    return public, conflicts, rounds, demotions


def _make_conflict(rule: _Rule, parent: dict) -> Conflict:
    chain = [f"{rule.why} ({rule.loc})"]
    seen: set[tuple] = set()
    cur = rule
    while cur.needs:
        nxt = cur.needs[0]
        if nxt in seen or nxt not in parent:
            break
        seen.add(nxt)
        cur = parent[nxt]
        chain.append(f"{cur.why} ({cur.loc})")
    chain.reverse()  # public sink first, pinned secret source last
    return Conflict(
        location=rule.loc,
        chain=tuple(chain),
        suggestion="the flow needs an explicit declassify in a trusted "
                   "function, or a hint making the memory public",
    )


class _Flagger(_Walk):
    """Second walk: find where classify coercions must be inserted.

    Stack entries are (rep, secrecy, producer_counter); when a consumer
    demands secret from a public entry, the producer occurrence is
    flagged and the coercion is appended right after it in the third
    walk.
    """

    def __init__(self, m: ast.Module, public: set[tuple], mem_sec: Secrecy):
        super().__init__(m)
        self.public = public
        self.mem_sec = mem_sec
        self.classify_after: dict[int, ast.Rep] = {}
        self.variant: dict[int, Secrecy] = {}

    def node_sec(self, node: tuple) -> Secrecy:
        return PUBLIC if node in self.public else SECRET

    def local_sec(self, fi: int, k: int) -> Secrecy:
        return self.node_sec(("local", fi, k))

    def demand(self, entry, want: Secrecy) -> None:
        rep, sec, producer = entry
        if want is SECRET and sec is PUBLIC and producer >= 0:
            self.classify_after[producer] = rep
        elif want is PUBLIC and sec is SECRET:
            raise AssertionError("solver let a secret reach a public slot")

    def func_result_slot(self, fi, f):
        if not f.type.results:
            return None
        return (f.type.results[0].rep, self.node_sec(("result", fi)))

    def exit_func(self, fi, f, stack, frames):
        if f.type.results and stack and not frames[0][2]:
            self.demand(stack[-1], frames[0][0][1])

    def _pop(self, stack, frames):
        if len(stack) > frames[-1][1]:
            return stack.pop()
        return (ast.Rep.I32, PUBLIC, -1)

    def _demand_label(self, depth, stack, frames):
        if depth >= len(frames):
            return
        slot = frames[-1 - depth][0]
        if slot is not None and len(stack) > frames[-1][1]:
            self.demand(stack[-1], slot[1])

    def instr(self, fi, me, ins, stack, frames):
        m = self.m
        pop = lambda: self._pop(stack, frames)
        sec_here = self.node_sec(("val", me))
        match ins:
            case ast.Const(type=t):
                sec = sec_here if t.is_int else PUBLIC
                self.variant[me] = sec
                stack.append((t.rep, sec, me))
            case ast.GetLocal(local=k):
                t = (m.funcs[fi].type.params + m.funcs[fi].locals)[k]
                sec = self.local_sec(fi, k) if t.is_int else PUBLIC
                stack.append((t.rep, sec, me))
            case ast.SetLocal(local=k):
                self.demand(pop(), self.local_sec(fi, k))
            case ast.TeeLocal(local=k):
                want = self.local_sec(fi, k)
                if len(stack) > frames[-1][1]:
                    entry = stack[-1]
                    self.demand(entry, want)
                    stack[-1] = (entry[0], want, me)
                else:
                    self.demand(pop(), want)
            case ast.GetGlobal(glob=k):
                g = m.globals[k]
                sec = self.node_sec(("global", k)) if g.type.is_int else PUBLIC
                stack.append((g.type.rep, sec, me))
            case ast.SetGlobal(glob=k):
                self.demand(pop(), self.node_sec(("global", k)))
            case ast.Binop(type=t, op=op):
                b, a = pop(), pop()
                if op in ast.UNSAFE_BINOPS and t.is_int:
                    sec = PUBLIC
                else:
                    sec = sec_here if t.is_int else PUBLIC
                self.demand(a, sec)
                self.demand(b, sec)
                self.variant[me] = sec
                stack.append((t.rep, sec, me))
            case ast.Unop(type=t):
                a = pop()
                sec = sec_here if t.is_int else PUBLIC
                self.demand(a, sec)
                self.variant[me] = sec
                stack.append((t.rep, sec, me))
            case ast.Testop(type=t):
                a = pop()
                self.demand(a, sec_here)
                self.variant[me] = sec_here
                stack.append((ast.Rep.I32, sec_here, me))
            case ast.Relop(type=t):
                b, a = pop(), pop()
                sec = sec_here if t.is_int else PUBLIC
                self.demand(a, sec)
                self.demand(b, sec)
                self.variant[me] = sec
                stack.append((ast.Rep.I32, sec, me))
            case ast.Select():
                c, b, a = pop(), pop(), pop()
                sec = sec_here if a[0] in (ast.Rep.I32, ast.Rep.I64) else PUBLIC
                self.demand(a, sec)
                self.demand(b, sec)
                self.demand(c, sec)  # secret select takes an s32 cond
                self.variant[me] = sec
                stack.append((a[0], sec, me))
            case ast.Drop():
                pop()
            case ast.Load(type=t):
                self.demand(pop(), PUBLIC)
                sec = self.mem_sec if t.is_int else PUBLIC
                self.variant[me] = sec
                stack.append((t.rep, sec, me))
            case ast.Store(type=t):
                v, addr = pop(), pop()
                self.demand(addr, PUBLIC)
                sec = self.mem_sec if t.is_int else PUBLIC
                self.demand(v, sec)
                self.variant[me] = sec
            case ast.MemorySize():
                stack.append((ast.Rep.I32, PUBLIC, me))
            case ast.MemoryGrow():
                self.demand(pop(), PUBLIC)
                stack.append((ast.Rep.I32, PUBLIC, me))
            case ast.Convert(to=to, frm=frm):
                a = pop()
                if to.is_int and frm.is_int:
                    sec = a[1]
                else:
                    self.demand(a, PUBLIC)
                    sec = PUBLIC
                self.variant[me] = sec
                stack.append((to.rep, sec, me))
            case ast.Reinterpret(to=to):
                self.demand(pop(), PUBLIC)
                self.variant[me] = PUBLIC
                stack.append((to.rep, PUBLIC, me))
            case ast.Call(func=k):
                ft = m.funcs[k].type
                args = [pop() for _ in ft.params][::-1]
                for i, arg in enumerate(args):
                    want = self.local_sec(k, i) if ft.params[i].is_int \
                        else PUBLIC
                    self.demand(arg, want)
                if ft.results:
                    rt = ft.results[0]
                    sec = self.node_sec(("result", k)) if rt.is_int else PUBLIC
                    stack.append((rt.rep, sec, me))
            case ast.CallIndirect(type=ft):
                self.demand(pop(), PUBLIC)
                args = [pop() for _ in ft.params][::-1]
                cands = _table_candidates(m, ft)
                for i, arg in enumerate(args):
                    if cands and ft.params[i].is_int:
                        self.demand(arg, self.local_sec(cands[0], i))
                    else:
                        self.demand(arg, PUBLIC)
                if ft.results:
                    rt = ft.results[0]
                    sec = (self.node_sec(("result", cands[0]))
                           if cands and rt.is_int else PUBLIC)
                    self.variant[me] = sec
                    stack.append((rt.rep, sec, me))
            case ast.Br(label=k):
                self._demand_label(k, stack, frames)
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.BrIf(label=k):
                self.demand(pop(), PUBLIC)
                self._demand_label(k, stack, frames)
            case ast.BrTable(labels=ls, default=d):
                self.demand(pop(), PUBLIC)
                for k in (*ls, d):
                    self._demand_label(k, stack, frames)
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.Return():
                if m.funcs[fi].type.results and len(stack) > frames[-1][1]:
                    self.demand(stack[-1], self.node_sec(("result", fi)))
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.Unreachable():
                del stack[frames[-1][1]:]
                frames[-1][2] = True
            case ast.Block(result=r, body=b) | ast.Loop(result=r, body=b):
                is_loop = isinstance(ins, ast.Loop)
                sec = sec_here if (r is not None and r.is_int) else PUBLIC
                slot = None
                if r is not None and not is_loop:
                    slot = (r.rep, sec)
                frames.append([slot, len(stack), False])
                self.body(fi, b, stack, frames)
                frame = frames.pop()
                if r is not None and len(stack) > frame[1] and not frame[2]:
                    self.demand(stack[-1], sec)
                del stack[frame[1]:]
                if r is not None:
                    self.variant[me] = sec
                    stack.append((r.rep, sec, me))
            case ast.If(result=r, then=t, else_=e):
                self.demand(pop(), PUBLIC)
                sec = sec_here if (r is not None and r.is_int) else PUBLIC
                slot = (r.rep, sec) if r is not None else None
                for branch in (t, e):
                    frames.append([slot, len(stack), False])
                    self.body(fi, branch, stack, frames)
                    frame = frames.pop()
                    if slot is not None and len(stack) > frame[1] \
                            and not frame[2]:
                        self.demand(stack[-1], sec)
                    del stack[frame[1]:]
                if r is not None:
                    self.variant[me] = sec
                    stack.append((r.rep, sec, me))
            case ast.Nop():
                pass


class _Emitter(_Walk):
    """Third walk: rebuild the module with chosen variants and coercions."""

    def __init__(self, m: ast.Module, flags: _Flagger, trusted: set[int]):
        super().__init__(m)
        self.flags = flags
        self.trusted = trusted
        self.out_funcs: list[ast.Func] = []

    def run(self) -> tuple[ast.Func, ...]:
        self.counter = 0
        out = []
        for fi, f in enumerate(self.m.funcs):
            trust = Trust.TRUSTED if fi in self.trusted else Trust.UNTRUSTED
            ft = ast.FuncType(
                trust,
                tuple(self._slot(fi, i, t)
                      for i, t in enumerate(f.type.params)),
                tuple(self._result(fi, t) for t in f.type.results))
            if f.imported is not None:
                out.append(ast.Func(ft, (), (), f.imported, f.exports,
                                    f.name, f.span))
                continue
            np = len(f.type.params)
            locals_ = tuple(self._slot(fi, np + i, t)
                            for i, t in enumerate(f.locals))
            body: list[Instr] = []
            self._body(fi, f.body, body)
            out.append(ast.Func(ft, locals_, tuple(body), None, f.exports,
                                f.name, f.span))
        return tuple(out)

    def _slot(self, fi: int, k: int, t: ValType) -> ValType:
        if t.is_int and self.flags.local_sec(fi, k) is SECRET:
            return ValType(t.rep, SECRET)
        return t

    def _result(self, fi: int, t: ValType) -> ValType:
        if t.is_int and self.flags.node_sec(("result", fi)) is SECRET:
            return ValType(t.rep, SECRET)
        return t

    def _retype(self, t: ValType, sec: Secrecy) -> ValType:
        return ValType(t.rep, SECRET) if (t.is_int and sec is SECRET) else t

    def _body(self, fi, instrs, out: list[Instr]) -> None:
        for ins in instrs:
            self.counter += 1
            self._instr(fi, self.counter, ins, out)

    def _instr(self, fi, me, ins, out: list[Instr]) -> None:
        sec = self.flags.variant.get(me, PUBLIC)
        match ins:
            case ast.Const(type=t, bits=bits):
                out.append(ast.Const(self._retype(t, sec), bits, span=ins.span))
            case ast.Binop(type=t, op=op):
                out.append(ast.Binop(self._retype(t, sec), op, span=ins.span))
            case ast.Unop(type=t, op=op):
                out.append(ast.Unop(self._retype(t, sec), op, span=ins.span))
            case ast.Testop(type=t):
                out.append(ast.Testop(self._retype(t, sec), span=ins.span))
            case ast.Relop(type=t, op=op):
                out.append(ast.Relop(self._retype(t, sec), op, span=ins.span))
            case ast.Select():
                out.append(ast.Select(sec, span=ins.span))
            case ast.Load(type=t, pack=p, signed=s, align=a, offset=o):
                out.append(ast.Load(self._retype(t, sec), p, s, a, o,
                                    span=ins.span))
            case ast.Store(type=t, pack=p, align=a, offset=o):
                out.append(ast.Store(self._retype(t, sec), p, a, o,
                                     span=ins.span))
            case ast.Convert(to=to, frm=frm, sign=sg):
                out.append(ast.Convert(self._retype(to, sec),
                                       self._retype(frm, sec), sg,
                                       span=ins.span))
            case ast.CallIndirect(type=ft):
                # the annotation must match the (unified) labeling of the
                # table-resident candidates exactly, or the runtime check
                # would start trapping
                cands = _table_candidates(self.m, ft)
                if cands:
                    cand = cands[0]
                    params = tuple(
                        self._retype(t, self.flags.local_sec(cand, i))
                        for i, t in enumerate(ft.params))
                    results = tuple(
                        self._retype(t, self.flags.node_sec(("result", cand)))
                        for t in ft.results)
                    ft = ast.FuncType(Trust.UNTRUSTED, params, results)
                out.append(ast.CallIndirect(ft, span=ins.span))
            case ast.Block(result=r, body=b) | ast.Loop(result=r, body=b):
                inner: list[Instr] = []
                self._body(fi, b, inner)
                rr = self._retype(r, sec) if r is not None else None
                cls = ast.Block if isinstance(ins, ast.Block) else ast.Loop
                out.append(cls(rr, tuple(inner), span=ins.span))
            case ast.If(result=r, then=t, else_=e):
                thin: list[Instr] = []
                eout: list[Instr] = []
                self._body(fi, t, thin)
                self._body(fi, e, eout)
                rr = self._retype(r, sec) if r is not None else None
                out.append(ast.If(rr, tuple(thin), tuple(eout), span=ins.span))
            case _:
                out.append(ins)
        rep = self.flags.classify_after.get(me)
        if rep is not None:
            out.append(ast.Classify(ValType(rep, SECRET), ValType(rep, PUBLIC),
                                    span=ins.span))


def infer_labels(m: ast.Module, hints: Hints | None = None) -> InferResult:
    """Annotate plain Wasm with inferred secrecy labels.

    Returns a validated module on success; on irreducible flows (secret
    memory feeding a public sink) returns the conflicts instead.
    """
    hints = hints or Hints()
    bad = _scan_is_plain(m)
    if bad is not None:
        raise InputInvalid(bad)
    try:
        validate_module(m)
    except Exception as e:
        raise InputInvalid(f"input fails base validation: {e}") from e

    builder = _Builder(m).build()

    for name, params in hints.public_params.items():
        ex = m.exported(name)
        if ex is None or ex[0] != "func":
            raise InputInvalid(f"hint references unknown export {name!r}")
        for p in params:
            builder.force(("local", ex[1], p), "hinted public",
                          f"export {name}")
    for name in hints.public_results:
        ex = m.exported(name)
        if ex is None or ex[0] != "func":
            raise InputInvalid(f"hint references unknown export {name!r}")
        builder.force(("result", ex[1]), "hinted public", f"export {name}")

    pinned: set[tuple] = set()
    if m.memory is not None and not hints.public_memory:
        pinned.add(("mem",))

    public, conflicts, rounds, demotions = _solve(builder, pinned)
    if conflicts:
        return InferResult(None, conflicts, [], rounds, demotions)

    mem_sec = PUBLIC if (m.memory is None or hints.public_memory or
                         ("mem",) in public) else SECRET

    trusted: set[int] = set()
    for name in hints.trusted:
        ex = m.exported(name)
        if ex is None or ex[0] != "func":
            raise InputInvalid(f"hint references unknown export {name!r}")
        trusted.add(ex[1])
    changed = True
    while changed:  # callers of trusted functions must be trusted
        changed = False
        for fi, f in enumerate(m.funcs):
            if fi in trusted:
                continue
            if any(isinstance(ins, ast.Call) and ins.func in trusted
                   for ins in ast.iter_instrs(f.body)):
                trusted.add(fi)
                changed = True

    flags = _Flagger(m, public, mem_sec)
    flags.walk_module()
    funcs = _Emitter(m, flags, trusted).run()

    globals_ = tuple(
        ast.GlobalVar(
            ValType(g.type.rep, SECRET)
            if g.type.is_int and ("global", gi) not in public else g.type,
            g.mutable, g.init, g.imported, g.exports, g.name, g.span)
        for gi, g in enumerate(m.globals))
    memory = m.memory
    if memory is not None:
        memory = ast.Memory(memory.min, memory.max, mem_sec,
                            memory.imported, memory.exports)

    out = ast.Module(funcs, globals_, m.table, memory, m.data)
    tm = validate_module(out, annotate=True)

    notes = []
    for fi, f in enumerate(m.funcs):
        if not f.exports:
            continue
        for i, t in enumerate(f.type.params):
            if t.is_int and ("local", fi, i) in public:
                notes.append(f"export {f.exports[0]!r}: parameter {i} "
                             "inferred public")
        if f.type.results and f.type.results[0].is_int and \
                ("result", fi) in public:
            notes.append(f"export {f.exports[0]!r}: result inferred public")
    return InferResult(tm, [], notes, rounds, demotions)
