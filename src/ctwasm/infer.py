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

Inference keeps no model of the operand stack.  It reads the flat code
and the def-use record (``FlatFunc.def_use``) that the validator leaves,
linear in the body, on every function of a module it accepts: which ops
produced each op's operands and which values reach each block, loop or
if result and the function result, by fall-through or by branch.  A value is the node ("val", func, pc) of the
op that pushed it (of the opening op, for a construct's result).

Each op's secrecy rule is stated once, in ``_Rules.func``.  As it adds an
op's demotion rules it records what the op's variant takes its secrecy
from and which node or public slot each operand's value must match; the
coercion flags (``_flags``) read that record, so they demand only what a
rule enforces.  ``ast.rebuild`` then meets the instructions in the order
of their flat ops as it rebuilds each body.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import ast, flat
from .ast import Instr, Secrecy, Trust, ValType
from .flat import FlatFunc
from .validate import TypedModule, validate_module

SECRET = Secrecy.SECRET
PUBLIC = Secrecy.PUBLIC


class InputInvalid(Exception):
    """The input is not plain Wasm (or fails base validation), or its hints
    are malformed or name what the module does not have."""


@dataclass
class Hints:
    """Developer overrides; every hint weakens (public/trusted only)."""

    public_params: dict[str, set[int]] = field(default_factory=dict)
    public_results: set[str] = field(default_factory=set)
    public_memory: bool = False
    trusted: set[str] = field(default_factory=set)

    @classmethod
    def from_json(cls, doc) -> "Hints":
        """Hints from their JSON form; raises InputInvalid if malformed."""
        def obj(x, what: str) -> dict:
            if not isinstance(x, dict):
                raise InputInvalid(f"hints: {what} must be a JSON object")
            return x

        h = cls()
        exports = obj(obj(doc, "the document").get("exports", {}), "exports")
        for name, spec in exports.items():
            spec = obj(spec, f"export {name!r}")
            for k, v in obj(spec.get("params", {}),
                            f"params of {name!r}").items():
                if v != "public":
                    continue
                if not k.strip().isdecimal():
                    raise InputInvalid(f"hints: parameter {k!r} of export "
                                       f"{name!r} is not an index")
                h.public_params.setdefault(name, set()).add(int(k))
            if spec.get("result") == "public":
                h.public_results.add(name)
        h.public_memory = doc.get("memory") == "public"
        trusted = doc.get("trusted", [])
        if not isinstance(trusted, list) or \
                not all(isinstance(n, str) for n in trusted):
            raise InputInvalid("hints: trusted must be a list of export names")
        h.trusted = set(trusted)
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


class _Rule(NamedTuple):
    need: tuple | None  # antecedent public => consequent public; None: forced
    node: tuple  # consequent
    why: str
    loc: str


def _scan_is_plain(m: ast.Module) -> str | None:
    for i, f in enumerate(m.funcs):
        if f.type.trust is not Trust.UNTRUSTED:
            return f"func {i} carries a trust annotation"
        if any(t.sec is not PUBLIC
               for t in f.type.params + f.type.results + f.locals):
            return f"func {i} uses secret value types"
        for ins in ast.iter_instrs(f.body):
            if isinstance(ins, (ast.Classify, ast.Declassify)):
                return f"func {i}: classify/declassify present"
            if ast.publicize_instr(ins) is not ins:
                return f"func {i}: " + {
                    ast.Select: "select secret present",
                    ast.CallIndirect: "annotated call_indirect present",
                }.get(type(ins), "secret-typed instruction present")
    for i, g in enumerate(m.globals):
        if g.type.sec is not PUBLIC:
            return f"global {i} uses a secret type"
    if m.memory is not None and m.memory.sec is not PUBLIC:
        return "memory carries a secrecy annotation"
    return None


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


_KIND = {flat.T_BLOCK: "block", flat.T_LOOP: "loop", flat.T_IF: "if"}


def _target(fi: int, target: int) -> tuple:
    """The node of a construct's result, or of the function's (target -1)."""
    return ("result", fi) if target < 0 else ("val", fi, target)


class _Rules:
    """The demotion rules, the labels forced public outright, and for each
    function the record of its ops that the coercion flags read."""

    def __init__(self, m: ast.Module):
        self.m = m
        self.rules: list[_Rule] = []
        self.forced: list[tuple[tuple, str, str]] = []
        self.sources: dict[int, list] = {}
        self.needs: dict[int, list[tuple]] = {}

    def edge(self, a, b, why, loc) -> None:
        """a public implies b public; None stands for no producer."""
        if b is not None:
            self.rules.append(_Rule(a, b, why, loc))

    def force(self, node, why, loc) -> None:
        if node is not None:
            self.forced.append((node, why, loc))

    def build(self, funcs: list[FlatFunc | None]) -> "_Rules":
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
        for fi, ff in enumerate(funcs):
            if ff is not None:
                self.func(fi, ff)
        self._unify_table_signatures()
        return self

    def func(self, fi: int, ff: FlatFunc) -> None:
        m, edge, force, du = self.m, self.edge, self.force, ff.def_use
        # producer -> the node of its value; a tee's value is its local's and
        # the value a br_if re-pushes is its target's result
        node: dict = {}
        where = f"func {fi}"
        # the record the coercion flags read: what each op's variant takes
        # its secrecy from (a node, None for public, or the producer whose
        # variant it follows), and the (producer, node or None for public)
        # pairs its operands and handed-on values must match
        src: list = [None] * len(ff.code)
        needs: list[tuple] = [()] * len(ff.code)
        self.sources[fi], self.needs[fi] = src, needs

        def need(p, target, why: str) -> None:
            """p's value is public when target is, or always (None)."""
            if target is None:
                force(node.get(p), why, loc)
            else:
                edge(target, node.get(p), why, loc)
            if p is not None:
                needs[pc] += ((p, target),)

        def out(target, why: str | None = None) -> None:
            """The op's variant takes its secrecy from target.  With a why,
            target is public when the op's value is, or for None the value
            is public outright."""
            src[pc] = target
            if why is not None and target is None:
                force(val, why, loc)
            elif why is not None:
                edge(val, target, why, loc)

        for pc, op in enumerate(ff.code):
            tag = op[0]
            if (tag == flat.T_END or tag == flat.T_ELSE) and not du.flows[pc]:
                continue
            val = node[pc] = src[pc] = ("val", fi, pc)
            span = ff.origins[pc].span
            loc = where if span is None else \
                f"{where} line {span.line}:{span.col}"
            a = du.args[pc]  # producers; None where dead code pops nothing
            match tag:
                case flat.T_GET_LOCAL:
                    out(("local", fi, op[2]), "read of local")
                case flat.T_CONST:
                    if not op[2].is_int:
                        out(None, "float constant")
                case flat.T_SET_LOCAL | flat.T_TEE_LOCAL:
                    need(a[0], ("local", fi, op[2]), "write to local")
                    node[pc] = src[pc] = ("local", fi, op[2])
                case flat.T_GET_GLOBAL:
                    out(("global", op[2]), "read of global")
                case flat.T_SET_GLOBAL:
                    need(a[0], ("global", op[2]), "write to global")
                case flat.T_BINOP if op[3] in ast.UNSAFE_BINOPS and op[2].is_int:
                    name = f"{op[2].name}.{op[3]}"
                    need(a[0], None, f"left operand of {name}")
                    need(a[1], None, f"right operand of {name}")
                    out(None, f"result of {name}")
                case flat.T_UNOP | flat.T_BINOP | flat.T_TESTOP | flat.T_RELOP:
                    # a float comparison takes public floats and has only a
                    # public variant; its i32 node stays free
                    fcmp = tag == flat.T_RELOP and not op[2].is_int
                    for p in a:
                        need(p, None if fcmp else val, f"operand of {op[3]}")
                    if fcmp:
                        out(None)
                    elif not op[2].is_int:
                        out(None, "float arithmetic")
                case flat.T_SELECT:
                    t = du.types[pc]
                    if t is not None and not t.is_int:
                        # a float select is never secret, so its result
                        # (and through it the condition) must be public
                        out(None, "float select")
                    need(a[0], val, "select operand")
                    need(a[1], val, "select operand")
                    need(a[2], val, "select condition under a public type")
                case flat.T_LOAD:
                    need(a[0], None, "memory address")
                    if op[2].is_int:
                        out(("mem",), "value loaded from memory")
                    else:
                        out(None, "float load")
                        force(("mem",), "float load", loc)
                case flat.T_STORE:
                    need(a[0], None, "memory address")
                    if not op[2].is_int:
                        force(("mem",), "float store", loc)
                    need(a[1], ("mem",), "value stored to memory")
                    out(("mem",))
                case flat.T_MEMORY_SIZE:
                    out(None, "memory.size result")
                case flat.T_MEMORY_GROW:
                    need(a[0], None, "memory.grow operand")
                    out(None, "memory.grow result")
                case flat.T_CONVERT if op[2].is_int and op[3].is_int:
                    # the variant follows the operand's, so a classify a
                    # secret result needs follows the convert
                    edge(val, node.get(a[0]), "width conversion", loc)
                    out(a[0])
                case flat.T_CONVERT | flat.T_REINTERPRET:
                    what = "reinterpret" if tag == flat.T_REINTERPRET \
                        else "float conversion"
                    need(a[0], None, f"{what} operand")
                    out(None, f"{what} result")
                case flat.T_CALL:
                    k = op[2]
                    for i, p in enumerate(a):
                        need(p, ("local", k, i),
                             f"argument {i} of call to func {k}")
                    if m.funcs[k].type.results:
                        out(("result", k), "call result")
                case flat.T_CALL_INDIRECT:
                    need(a[-1], None, "call_indirect index")
                    cands = _table_candidates(m, op[2])
                    # with no candidate the call traps and keeps its public
                    # type: public arguments, a public variant
                    for cand in cands or (None,):
                        for i, p in enumerate(a[:-1]):
                            need(p, None if cand is None else
                                 ("local", cand, i),
                                 f"argument {i} of indirect call")
                    if not cands:
                        out(None)
                    elif op[2].results:
                        for cand in cands:
                            out(("result", cand), "indirect call result")
                case flat.T_BR_IF:
                    need(a[0], None, "br_if condition")
                    node[pc] = src[pc] = _target(fi, du.targets[pc])
                case flat.T_BR_TABLE:
                    need(a[0], None, "br_table index")
                case flat.T_IF:
                    need(a[0], None, "if condition")
            if tag in _KIND and op[2] is not None and not op[2].is_int:
                out(None, f"float {_KIND[tag]} result")
            for target, p in du.flows[pc]:
                if tag == flat.T_RETURN:
                    why = "return value"
                elif tag != flat.T_ELSE and tag != flat.T_END:
                    why = "branch result"
                elif target < 0:
                    why, loc = "function result", where
                else:
                    why = f"{_KIND[ff.code[target][0]]} result"
                need(p, _target(fi, target), why)

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
                pairs = [(("local", first, i), ("local", other, i))
                         for i in range(len(params))]
                if results:
                    pairs.append((("result", first), ("result", other)))
                for x, y in pairs:
                    self.edge(x, y, "shared table signature", f"func {other}")
                    self.edge(y, x, "shared table signature", f"func {first}")


def _solve(rs: _Rules, pinned: set[tuple]
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

    for node, why, loc in rs.forced:
        apply(_Rule(None, node, why, loc))
    rounds = 1
    changed = True
    while changed:
        changed = False
        rounds += 1
        for rule in rs.rules:
            if rule.need in public:
                if apply(rule):
                    changed = True
    return public, conflicts, rounds, demotions


def _make_conflict(rule: _Rule, parent: dict) -> Conflict:
    chain = [f"{rule.why} ({rule.loc})"]
    seen: set[tuple] = set()
    cur = rule
    while cur.need is not None:
        nxt = cur.need
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


def _flags(src: list, needs: list[tuple], types: list, sec_of
           ) -> tuple[list[Secrecy], dict[int, ast.Rep]]:
    """The secrecy variant of each op, and where classify must follow.

    Reads the record ``_Rules.func`` left, so it demands only what a rule
    enforces.  Where a value must be secret and its producer's variant is
    public, a classify follows the producer.
    """
    sec = [PUBLIC] * len(src)
    classify: dict[int, ast.Rep] = {}

    def label(s) -> Secrecy:  # of a node, None (public) or a producer
        if s is None:
            return PUBLIC
        return sec[s] if isinstance(s, int) else sec_of(s)

    for pc, s in enumerate(src):
        for p, target in needs[pc]:
            if label(target) is SECRET:
                if sec[p] is PUBLIC:
                    t = types[p]  # None in dead code, where any width checks
                    classify[p] = ast.Rep.I32 if t is None else t.rep
            elif sec[p] is SECRET:
                raise AssertionError("solver let a secret reach a public slot")
        sec[pc] = label(s)
    return sec, classify


def _emit_body(m: ast.Module, f: ast.Func, ff: FlatFunc, sec: list,
               classify: dict, signature) -> tuple[Instr, ...]:
    """The body with each op's variant and the classify coercions."""
    pcs = iter(flat.instr_pcs(ff.code))

    def emit(ins: Instr) -> tuple[Instr, ...]:
        pc = next(pcs)
        if isinstance(ins, ast.CallIndirect) and \
                (cands := _table_candidates(m, ins.type)):
            # the annotation must match the (unified) labeling of the
            # table-resident candidates exactly, or the runtime check
            # would start trapping
            new = ast.CallIndirect(signature(cands[0], ins.type),
                                   span=ins.span)
        else:
            new = ast.retype_instr(ins, sec[pc])
        rep = classify.get(pc)
        if rep is None:
            return (new,)
        return (new, ast.Classify(ValType(rep, SECRET), ValType(rep, PUBLIC),
                                  span=ins.span))

    return ast.rebuild(f.body, emit)


def _hinted_func(m: ast.Module, name: str) -> int:
    ex = m.exported(name)
    if ex is None or ex[0] != "func":
        raise InputInvalid(f"hint references unknown export {name!r}")
    return ex[1]


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
        tm = validate_module(m)
    except Exception as e:
        raise InputInvalid(f"input fails base validation: {e}") from e

    rs = _Rules(m).build(tm.funcs)

    for name, params in hints.public_params.items():
        fi = _hinted_func(m, name)
        n = len(m.funcs[fi].type.params)
        for p in params:
            if not 0 <= p < n:
                raise InputInvalid(f"hint names parameter {p} of export "
                                   f"{name!r}, which takes {n}")
            rs.force(("local", fi, p), "hinted public", f"export {name}")
    for name in hints.public_results:
        rs.force(("result", _hinted_func(m, name)), "hinted public",
                 f"export {name}")

    # without the hint the memory is secret, and a rule that would make it
    # public (a float load or store, too) is a conflict
    if hints.public_memory and m.memory is not None:
        rs.force(("mem",), "hinted public", "memory")
    pinned = set() if hints.public_memory else {("mem",)}

    public, conflicts, rounds, demotions = _solve(rs, pinned)
    if conflicts:
        return InferResult(None, conflicts, [], rounds, demotions)

    def sec_of(node: tuple) -> Secrecy:
        return PUBLIC if node in public else SECRET

    def signature(fi: int, ft: ast.FuncType, trust=Trust.UNTRUSTED):
        """``ft`` with the labels inferred for function fi."""
        return ast.FuncType(
            trust, tuple(ast.at_secrecy(t, sec_of(("local", fi, i)))
                         for i, t in enumerate(ft.params)),
            tuple(ast.at_secrecy(t, sec_of(("result", fi)))
                  for t in ft.results))

    mem_sec = PUBLIC if ("mem",) in public else SECRET

    trusted = {_hinted_func(m, name) for name in hints.trusted}
    callees = {fi: {ins.func for ins in ast.iter_instrs(f.body)
                    if isinstance(ins, ast.Call)}
               for fi, f in enumerate(m.funcs)}
    # callers of trusted functions must be trusted
    while new := {fi for fi, ks in callees.items()
                  if ks & trusted and fi not in trusted}:
        trusted |= new

    funcs = []
    for fi, f in enumerate(m.funcs):
        ft = signature(fi, f.type,
                       Trust.TRUSTED if fi in trusted else Trust.UNTRUSTED)
        if f.imported is not None:
            funcs.append(replace(f, type=ft))
            continue
        ff = tm.funcs[fi]
        sec, classify = _flags(rs.sources[fi], rs.needs[fi], ff.def_use.types,
                               sec_of)
        np = len(f.type.params)
        locals_ = tuple(ast.at_secrecy(t, sec_of(("local", fi, np + i)))
                        for i, t in enumerate(f.locals))
        funcs.append(replace(f, type=ft, locals=locals_, body=_emit_body(
            m, f, ff, sec, classify, signature)))

    globals_ = tuple(
        replace(g, type=ast.at_secrecy(g.type, sec_of(("global", gi))))
        for gi, g in enumerate(m.globals))
    memory = m.memory and replace(m.memory, sec=mem_sec)
    out = replace(m, funcs=tuple(funcs), globals=globals_, memory=memory)
    tm = validate_module(out)

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
