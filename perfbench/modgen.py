"""Seeded module generator for the toolchain workload.

Produces valid ``.cwat`` modules, constant-time (secret memory, ``s32``/
``s64`` arithmetic, ``select secret``) or plain, and mutants of the
constant-time ones with exactly one injected type error whose error code
is known.  The test suite has its own generator; this one lives with the
benchmark so that an edit under ``tests/`` never changes benchmark inputs.

Every module has the same shape (function count, statements per function,
expression depth), so the mix of work in a batch of modules stays steady
from one seed to the next.  Plain modules never load from memory: label
inference pins the memory secret, and a loaded value reaching a branch or
an address would be a genuine conflict, not a toolchain failure.
"""

from __future__ import annotations

import random

FUNCS = 3
STMTS = 3
MAX_DEPTH = 2

# one statement each; the code every validator must report for it
MUTATIONS = (
    ("(drop (i32.add (i32.const 1) (i64.const 2)))", "TypeMismatch"),
    ("(if (s32.const 1) (then nop))", "SecretCondition"),
    ("(drop (s32.load (s32.const 8)))", "SecretMemoryIndex"),
    ("(drop (s32.div_u (s32.const 1) (s32.const 3)))", "UnsafeOpOnSecret"),
    ("(drop (i32.declassify/s32 (s32.const 1)))", "DeclassifyRequiresTrusted"),
    ("(drop (i32.load (i32.const 0)))", "MemorySecrecyMismatch"),
    ("(drop (f64.reinterpret/s64 (s64.const 1)))", "FloatSecrecy"),
)

_INT_BINOPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr_u", "rotl")
_INT_RELOPS = ("eq", "ne", "lt_u", "ge_s")


class _Gen:
    def __init__(self, rng: random.Random, ct: bool):
        self.rng = rng
        self.ct = ct
        self.types = ("i32", "i64", "s32", "s64") if ct else ("i32", "i64", "f64")
        self.glob = "s32" if ct else "i32"
        self.sigs: list[tuple[list[str], str]] = []

    def module(self, inject: tuple[int, str] | None = None) -> str:
        rng = self.rng
        for _ in range(FUNCS):
            params = [rng.choice(self.types) for _ in range(rng.randint(1, 3))]
            self.sigs.append((params, rng.choice(self.types)))
        sec = " secret" if self.ct else ""
        lines = ["(module", f"  (memory 1{sec})",
                 f"  (global (mut {self.glob}) ({self.glob}.const 7))"]
        lines += [self.func(i, inject) for i in range(FUNCS)]
        lines.append(")")
        return "\n".join(lines) + "\n"

    def func(self, idx: int, inject: tuple[int, str] | None) -> str:
        rng = self.rng
        params, result = self.sigs[idx]
        self.cur = idx
        extra = [rng.choice(self.types) for _ in range(2)]
        self.locals = params + extra
        self.counter = len(self.locals)  # loop counter, never assigned elsewhere
        head = f'  (func (export "f{idx}")'
        head += "".join(f" (param {p})" for p in params)
        head += f" (result {result})"
        body = [self.stmt(0) for _ in range(STMTS)]
        if inject is not None and inject[0] == idx:
            body.insert(rng.randrange(len(body) + 1), inject[1])
        body.append(self.expr(result, 0))
        locs = "    (local " + " ".join(extra + ["i32"]) + ")"
        return "\n".join([head, locs] + ["    " + b for b in body] + ["  )"])

    # -- statements (net stack effect zero)

    def stmt(self, depth: int) -> str:
        rng = self.rng
        kinds = ["set", "drop", "store"]
        if depth == 0:
            kinds += ["if", "loop"]
        kind = rng.choice(kinds)
        if kind == "set":
            k = rng.randrange(len(self.locals))
            return f"(local.set {k} {self.expr(self.locals[k], depth)})"
        if kind == "drop":
            return f"(drop {self.expr(rng.choice(self.types), depth)})"
        if kind == "store":
            t = rng.choice(("s32", "s64") if self.ct else ("i32", "i64"))
            return f"({t}.store {self.addr()} {self.expr(t, depth)})"
        if kind == "if":
            return (f"(if {self.expr('i32', depth + 1)} "
                    f"(then {self.stmt(depth + 1)}) (else {self.stmt(depth + 1)}))")
        c, n = self.counter, rng.randint(2, 4)
        return (f"(local.set {c} (i32.const 0)) (block (loop "
                f"(br_if 1 (i32.ge_u (local.get {c}) (i32.const {n}))) "
                f"{self.stmt(depth + 1)} "
                f"(local.set {c} (i32.add (local.get {c}) (i32.const 1))) (br 0)))")

    def addr(self) -> str:
        pubs = [k for k, t in enumerate(self.locals) if t == "i32"]
        if pubs and self.rng.random() < 0.5:
            return f"(i32.and (local.get {self.rng.choice(pubs)}) (i32.const 1016))"
        return f"(i32.const {self.rng.randrange(0, 1024, 8)})"

    # -- expressions of an exact type

    def const(self, t: str) -> str:
        if t == "f64":
            return f"(f64.const {self.rng.choice(('0.5', '-2.25', '42.0'))})"
        return f"({t}.const {self.rng.choice((0, 1, 7, -3, self.rng.getrandbits(31)))})"

    def expr(self, t: str, depth: int) -> str:
        rng = self.rng
        if depth >= MAX_DEPTH or rng.random() < 0.3:
            locs = [k for k, lt in enumerate(self.locals) if lt == t]
            pick = rng.random()
            if locs and pick < 0.6:
                return f"(local.get {rng.choice(locs)})"
            if t == self.glob and pick < 0.75:
                return "(global.get 0)"
            return self.const(t)
        secret = t.startswith("s")
        kinds = ["binop", "binop", "select"]
        if t != "f64":
            kinds += ["unop", "relop"] if t in ("i32", "s32") else ["unop"]
        if secret:
            kinds += ["classify", "load"]
        elif t in ("i32", "i64"):
            kinds.append("div")
        callees = [j for j in range(self.cur) if self.sigs[j][1] == t]
        if callees:
            kinds.append("call")
        kind = rng.choice(kinds)
        sub = depth + 1
        if kind == "binop":
            ops = ("add", "sub", "mul") if t == "f64" else _INT_BINOPS
            return f"({t}.{rng.choice(ops)} {self.expr(t, sub)} {self.expr(t, sub)})"
        if kind == "unop":
            return f"({t}.{rng.choice(('clz', 'ctz', 'popcnt'))} {self.expr(t, sub)})"
        if kind == "relop":
            src = rng.choice([x for x in self.types
                              if x != "f64" and x.startswith(t[0])])
            return (f"({src}.{rng.choice(_INT_RELOPS)} "
                    f"{self.expr(src, sub)} {self.expr(src, sub)})")
        if kind == "select":
            if secret:
                return (f"(select secret {self.expr(t, sub)} {self.expr(t, sub)} "
                        f"{self.expr('s32', sub)})")
            return f"(select {self.expr(t, sub)} {self.expr(t, sub)} {self.expr('i32', sub)})"
        if kind == "classify":
            pub = "i" + t[1:]
            return f"({t}.classify/{pub} {self.expr(pub, sub)})"
        if kind == "load":
            return f"({t}.load {self.addr()})"
        if kind == "div":
            return f"({t}.div_u {self.expr(t, sub)} ({t}.const {rng.randint(1, 99)}))"
        j = rng.choice(callees)
        args = " ".join(self.expr(p, sub) for p in self.sigs[j][0])
        return f"(call {j} {args})"


def generate(rng: random.Random, ct: bool) -> str:
    """One valid module; constant-time when ``ct``."""
    return _Gen(rng, ct).module()


def mutant(rng: random.Random) -> tuple[str, str]:
    """A constant-time module with one injected error, and that error's code."""
    stmt, code = rng.choice(MUTATIONS)
    return _Gen(rng, True).module((rng.randrange(FUNCS), stmt)), code
