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

Inference reads the validator's flat code and its stack annotations.
One def-use pass per function (``_def_use``) is the only model of the
operand stack here: it records which ops produced each op's operands and
which values reach each block, loop or if result and the function result,
by fall-through or by branch.  The demotion rules (``_Rules``) and the
coercion flags (``_flags``) are per-op functions of those edges, in which
a value is the node ("val", func, pc) of the op that pushed it (of the
opening op, for a construct's result).  ``ast.rebuild`` then meets the
instructions in the order of their flat ops as it rebuilds each body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


# Operands each op pops where that is fixed; calls pop their parameters
# (and call_indirect its table index too), and the ops not listed pop
# none.  How many values an op pushes is read off the validator's depths.
_POPS = {
    flat.T_DROP: 1, flat.T_SELECT: 3, flat.T_IF: 1, flat.T_BR_IF: 1,
    flat.T_BR_TABLE: 1, flat.T_SET_LOCAL: 1, flat.T_TEE_LOCAL: 1,
    flat.T_SET_GLOBAL: 1, flat.T_LOAD: 1, flat.T_STORE: 2,
    flat.T_MEMORY_GROW: 1, flat.T_UNOP: 1, flat.T_BINOP: 2,
    flat.T_TESTOP: 1, flat.T_RELOP: 2, flat.T_CONVERT: 1,
    flat.T_REINTERPRET: 1,
}
_KIND = {flat.T_BLOCK: "block", flat.T_LOOP: "loop", flat.T_IF: "if"}
_DEAD_AFTER = (flat.T_BR, flat.T_BR_TABLE, flat.T_RETURN, flat.T_UNREACHABLE)
# ops that pass values to labels, open or close frames, or whose pushes
# are not simply their own value
_CONTROL = frozenset((*_KIND, *_DEAD_AFTER, flat.T_BR_IF, flat.T_ELSE,
                      flat.T_END, flat.T_TEE_LOCAL))


@dataclass
class _DefUse:
    """Def-use edges of one function's flat code, indexed by pc.

    A producer is the pc of the op that pushed a value, or the opening pc
    of the block, loop or if whose result it is.  ``args[pc]`` holds the
    producers of the op's operands, deepest first, with None for an
    operand that dead code pops from the polymorphic stack.  ``flows[pc]``
    holds a (target, producer) pair for each value the op hands to the
    result of the construct opened at pc ``target``, or of the function
    (target -1): by branch, by ``return`` or by falling through ``else``
    or ``end``.  ``types[p]`` is the type of the value p pushes, None where
    dead code leaves it unconstrained.  ``targets[pc]`` is the target of
    a br_if: the values it re-pushes in dead code are that target's result.
    """

    args: list[tuple]
    flows: list[tuple]
    types: list
    targets: dict[int, int]


def _target(fi: int, target: int) -> tuple:
    """The node of a construct's result, or of the function's (target -1)."""
    return ("result", fi) if target < 0 else ("val", fi, target)


def _def_use(m: ast.Module, ff: FlatFunc) -> _DefUse:
    code, depths = ff.code, ff.stack_types
    du = _DefUse([()] * len(code), [()] * len(code), [None] * len(code), {})
    stack: list = []  # one producer per slot of the validator's stack
    frames = [(-1, 0)]  # (opening pc (-1: the body), height)

    def hand(targets) -> tuple:
        top = stack[-1] if len(stack) > frames[-1][1] else None
        return tuple((t, top) for t in targets if top is not None and (
            ff.type.results if t < 0 else code[t][2] is not None))

    def branch(labels) -> tuple:  # a branch to a loop restarts it: no value
        return hand([t for d in labels if (t := frames[-1 - d][0]) < 0
                     or code[t][0] != flat.T_LOOP])

    args, types = du.args, du.types
    for pc, op in enumerate(code):
        tag = op[0]
        frame = frames[-1]
        n = _POPS.get(tag, 0)
        if tag == flat.T_CALL:
            n = len(m.funcs[op[2]].type.params)
        elif tag == flat.T_CALL_INDIRECT:
            n = len(op[2].params) + 1
        if n:
            real = min(n, len(stack) - frame[1])
            args[pc] = (None,) * (n - real) + tuple(stack[len(stack) - real:])
            del stack[len(stack) - real:]
        if tag not in _CONTROL:  # pushes at most its own value
            after = depths[pc + 1]
            if len(after) > len(stack):
                stack.append(pc)
                types[pc] = after[-1]
            continue

        pushed = pc
        if tag in (flat.T_BR, flat.T_BR_IF, flat.T_BR_TABLE):
            du.flows[pc] = branch((*op[2], op[3]) if tag == flat.T_BR_TABLE
                                  else (op[2],))
            if tag == flat.T_BR_IF:
                du.targets[pc] = frames[-1 - op[2]][0]
        elif tag == flat.T_RETURN:
            du.flows[pc] = hand((-1,))
        elif tag == flat.T_ELSE or tag == flat.T_END:
            du.flows[pc] = hand((frame[0],))
            del stack[frame[1]:]
            if tag == flat.T_END:
                frames.pop()
                pushed = frame[0]
        elif tag in _KIND:
            frames.append((pc, len(stack)))
        elif tag == flat.T_TEE_LOCAL and args[pc][0] is None:
            pushed = None  # dead code: a tee of no value yields none
        if tag in _DEAD_AFTER:
            del stack[frame[1]:]
        if pc + 1 < len(code) and len(depths[pc + 1]) > len(stack):
            stack.extend([pushed] * (len(depths[pc + 1]) - len(stack)))
            if pushed is not None:
                types[pushed] = depths[pc + 1][-1]
    return du


class _Rules:
    """The demotion rules, and the labels forced public outright."""

    def __init__(self, m: ast.Module):
        self.m = m
        self.rules: list[_Rule] = []
        self.forced: list[tuple[tuple, str, str]] = []

    def edge(self, a, b, why, loc) -> None:
        """a public implies b public; None stands for no producer."""
        if b is not None:
            self.rules.append(_Rule(a, b, why, loc))

    def force(self, node, why, loc) -> None:
        if node is not None:
            self.forced.append((node, why, loc))

    def build(self, flats: dict[int, tuple[FlatFunc, _DefUse]]) -> "_Rules":
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
        for fi, (ff, du) in flats.items():
            self.func(fi, ff, du)
        self._unify_table_signatures()
        return self

    def func(self, fi: int, ff: FlatFunc, du: _DefUse) -> None:
        m, edge, force = self.m, self.edge, self.force
        # producer -> the node of its value; a tee's value is its local's,
        # which is how the coercion pass reads it too
        node: dict = {}
        where = f"func {fi}"
        for pc, op in enumerate(ff.code):
            tag = op[0]
            if (tag == flat.T_END or tag == flat.T_ELSE) and not du.flows[pc]:
                continue
            val = node[pc] = ("val", fi, pc)
            span = ff.origins[pc].span
            loc = where if span is None else \
                f"{where} line {span.line}:{span.col}"
            args = du.args[pc]
            a = [node.get(p) for p in args] if args else ()  # None: no producer
            match tag:
                case flat.T_GET_LOCAL:
                    edge(val, ("local", fi, op[2]), "read of local", loc)
                case flat.T_CONST:
                    if not op[2].is_int:
                        force(val, "float constant", loc)
                case flat.T_SET_LOCAL:
                    edge(("local", fi, op[2]), a[0], "write to local", loc)
                case flat.T_TEE_LOCAL:
                    edge(("local", fi, op[2]), a[0], "write to local", loc)
                    node[pc] = ("local", fi, op[2])
                case flat.T_GET_GLOBAL:
                    edge(val, ("global", op[2]), "read of global", loc)
                case flat.T_SET_GLOBAL:
                    edge(("global", op[2]), a[0], "write to global", loc)
                case flat.T_BINOP if op[3] in ast.UNSAFE_BINOPS and op[2].is_int:
                    for x, what in ((a[0], "left operand"),
                                    (a[1], "right operand"), (val, "result")):
                        force(x, f"{what} of {op[2].name}.{op[3]}", loc)
                case flat.T_UNOP | flat.T_BINOP | flat.T_TESTOP | flat.T_RELOP:
                    name = "eqz" if tag == flat.T_TESTOP else op[3]
                    for x in a:
                        edge(val, x, f"operand of {name}", loc)
                    if tag != flat.T_RELOP and not op[2].is_int:
                        force(val, "float arithmetic", loc)
                case flat.T_SELECT:
                    t = du.types[pc]
                    if t is not None and not t.is_int:
                        # a float select is never secret, so its result
                        # (and through it the condition) must be public
                        force(val, "float select", loc)
                    edge(val, a[0], "select operand", loc)
                    edge(val, a[1], "select operand", loc)
                    edge(val, a[2], "select condition under a public type",
                         loc)
                case flat.T_LOAD:
                    force(a[0], "memory address", loc)
                    if op[2].is_int:
                        edge(val, ("mem",), "value loaded from memory", loc)
                    else:
                        force(val, "float load", loc)
                        force(("mem",), "float load", loc)
                case flat.T_STORE:
                    force(a[0], "memory address", loc)
                    if op[2].is_int:
                        edge(("mem",), a[1], "value stored to memory", loc)
                    else:
                        force(("mem",), "float store", loc)
                case flat.T_MEMORY_SIZE:
                    force(val, "memory.size result", loc)
                case flat.T_MEMORY_GROW:
                    force(a[0], "memory.grow operand", loc)
                    force(val, "memory.grow result", loc)
                case flat.T_CONVERT:
                    if op[2].is_int and op[3].is_int:
                        edge(val, a[0], "width conversion", loc)
                    else:
                        force(a[0], "float conversion operand", loc)
                        force(val, "float conversion result", loc)
                case flat.T_REINTERPRET:
                    force(a[0], "reinterpret operand", loc)
                    force(val, "reinterpret result", loc)
                case flat.T_CALL:
                    k = op[2]
                    for i, x in enumerate(a):
                        edge(("local", k, i), x,
                             f"argument {i} of call to func {k}", loc)
                    if m.funcs[k].type.results:
                        edge(val, ("result", k), "call result", loc)
                case flat.T_CALL_INDIRECT:
                    force(a[-1], "call_indirect index", loc)
                    cands = _table_candidates(m, op[2])
                    for cand in cands:
                        for i, x in enumerate(a[:-1]):
                            edge(("local", cand, i), x,
                                 f"argument {i} of indirect call", loc)
                    if op[2].results:
                        for cand in cands:
                            edge(val, ("result", cand),
                                 "indirect call result", loc)
                case flat.T_BR_IF:
                    force(a[0], "br_if condition", loc)
                    node[pc] = _target(fi, du.targets[pc])
                case flat.T_BR_TABLE:
                    force(a[0], "br_table index", loc)
                case flat.T_IF:
                    force(a[0], "if condition", loc)
            if tag in _KIND and op[2] is not None and not op[2].is_int:
                force(val, f"float {_KIND[tag]} result", loc)
            for target, p in du.flows[pc]:
                dst = _target(fi, target)
                if tag == flat.T_RETURN:
                    why = "return value"
                elif tag != flat.T_ELSE and tag != flat.T_END:
                    why = "branch result"
                elif target < 0:
                    why, loc = "function result", where
                else:
                    why = f"{_KIND[ff.code[target][0]]} result"
                edge(dst, node[p], why, loc)

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


def _flags(m: ast.Module, fi: int, ff: FlatFunc, du: _DefUse, sec_of,
           mem_sec: Secrecy) -> tuple[list[Secrecy], dict[int, ast.Rep]]:
    """The secrecy variant of each op, and where classify must follow.

    An op's variant is the secrecy of the value it pushes (a store's is
    the memory's).  Where an operand or a handed-on value must be secret
    and its producer is public, a classify follows the producer.
    """
    sec = [PUBLIC] * len(ff.code)
    classify: dict[int, ast.Rep] = {}

    def demand(p, want: Secrecy) -> None:
        if p is None:
            return
        if want is SECRET and sec[p] is PUBLIC:
            t = du.types[p]  # None in dead code, where any width checks
            classify[p] = ast.Rep.I32 if t is None else t.rep
        elif want is PUBLIC and sec[p] is SECRET:
            raise AssertionError("solver let a secret reach a public slot")

    for pc, op in enumerate(ff.code):
        tag = op[0]
        args = du.args[pc]
        out = sec_of(("val", fi, pc))  # forced public where the type is float
        wants: tuple = ()
        match tag:
            case flat.T_GET_LOCAL:
                out = sec_of(("local", fi, op[2]))
            case flat.T_SET_LOCAL | flat.T_TEE_LOCAL:
                out = sec_of(("local", fi, op[2]))
                wants = (out,)
            case flat.T_GET_GLOBAL:
                out = sec_of(("global", op[2]))
            case flat.T_SET_GLOBAL:
                wants = (sec_of(("global", op[2])),)
            case flat.T_UNOP | flat.T_BINOP | flat.T_TESTOP | flat.T_SELECT:
                wants = (out,) * len(args)
            case flat.T_RELOP:
                out = out if op[2].is_int else PUBLIC
                wants = (out, out)
            case flat.T_LOAD:
                out, wants = mem_sec, (PUBLIC,)
            case flat.T_STORE:
                out, wants = mem_sec, (PUBLIC, mem_sec)
            case flat.T_CONVERT if op[2].is_int and op[3].is_int:
                out = PUBLIC if args[0] is None else sec[args[0]]
            case flat.T_BR_IF:
                out, wants = sec_of(_target(fi, du.targets[pc])), (PUBLIC,)
            case (flat.T_CONVERT | flat.T_REINTERPRET | flat.T_MEMORY_GROW
                  | flat.T_IF | flat.T_BR_TABLE):
                wants = (PUBLIC,)
            case flat.T_CALL:
                k = op[2]
                wants = tuple(sec_of(("local", k, i))
                              for i in range(len(args)))
                out = sec_of(("result", k))
            case flat.T_CALL_INDIRECT:
                cands = _table_candidates(m, op[2])
                wants = tuple(sec_of(("local", cands[0], i)) if cands
                              else PUBLIC for i in range(len(args) - 1))
                wants += (PUBLIC,)
                out = (sec_of(("result", cands[0]))
                       if cands and op[2].results else PUBLIC)
        for p, want in zip(args, wants):
            demand(p, want)
        for target, p in du.flows[pc]:
            demand(p, sec_of(_target(fi, target)))
        sec[pc] = out
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
        tm = validate_module(m, annotate=True)
    except Exception as e:
        raise InputInvalid(f"input fails base validation: {e}") from e

    flats = {fi: (ff, _def_use(m, ff))
             for fi, ff in enumerate(tm.funcs) if ff is not None}
    rs = _Rules(m).build(flats)

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
            funcs.append(ast.Func(ft, (), (), f.imported, f.exports,
                                  f.name, f.span))
            continue
        ff, du = flats[fi]
        sec, classify = _flags(m, fi, ff, du, sec_of, mem_sec)
        np = len(f.type.params)
        locals_ = tuple(ast.at_secrecy(t, sec_of(("local", fi, np + i)))
                        for i, t in enumerate(f.locals))
        funcs.append(ast.Func(ft, locals_,
                              _emit_body(m, f, ff, sec, classify, signature),
                              None, f.exports, f.name, f.span))

    globals_ = tuple(
        ast.GlobalVar(ast.at_secrecy(g.type, sec_of(("global", gi))),
                      g.mutable, g.init, g.imported, g.exports, g.name, g.span)
        for gi, g in enumerate(m.globals))
    memory = m.memory
    if memory is not None:
        memory = ast.Memory(memory.min, memory.max, mem_sec,
                            memory.imported, memory.exports)

    out = ast.Module(tuple(funcs), globals_, m.table, memory, m.data)
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
