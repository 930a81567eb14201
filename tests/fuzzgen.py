"""Seeded random module generator for round-trip and superset testing.

Generates text modules that are valid by construction (expressions are
built type-directed, labels and indices always resolve), optionally using
the secrecy/trust extensions.  Plain modules use only MVP constructs and
modern mnemonics, so an independent base-Wasm toolchain can parse the
same text.  ``mutate_invalid`` injects a single deliberate type error
whose rejection both validators must agree on.
"""

from __future__ import annotations

import random

PUB_INTS = ("i32", "i64")
FLOATS = ("f32", "f64")
INT_RELOPS = ("eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u",
              "ge_s", "ge_u")
FLOAT_RELOPS = ("eq", "ne", "lt", "gt", "le", "ge")


class ModuleGen:
    def __init__(self, seed: int, ct: bool = False):
        self.rng = random.Random(seed)
        self.ct = ct
        self.types: list[str] = list(PUB_INTS + FLOATS)
        if ct:
            self.types += ["s32", "s64"]

    # -- type helpers

    def is_secret(self, t: str) -> bool:
        return t.startswith("s")

    def width(self, t: str) -> int:
        return 64 if t.endswith("64") else 32

    def is_int(self, t: str) -> bool:
        return not t.startswith("f")

    def pick_type(self) -> str:
        return self.rng.choice(self.types)

    def pick_int_type(self) -> str:
        return self.rng.choice([t for t in self.types if self.is_int(t)])

    # -- module

    def module(self) -> str:
        rng = self.rng
        self.has_memory = rng.random() < 0.7
        self.mem_secret = self.ct and rng.random() < 0.5
        self.n_funcs = rng.randint(1, 4)
        self.sigs = []
        for _ in range(self.n_funcs):
            params = [self.pick_type() for _ in range(rng.randint(0, 3))]
            result = self.pick_type() if rng.random() < 0.7 else None
            trusted = self.ct and rng.random() < 0.25
            self.sigs.append((params, result, trusted))
        self.globals = []
        for _ in range(rng.randint(0, 2)):
            t = self.pick_type()
            self.globals.append((t, rng.random() < 0.5))

        self.table_sig = None
        table_fields = []
        if rng.random() < 0.3:
            idx = rng.randrange(self.n_funcs)
            table_fields = [f"  (table {self.n_funcs} funcref)",
                            f"  (elem (i32.const 0) {idx})"]
            self.table_sig = self.sigs[idx]
            self.table_idx = idx
        fields = []
        for i in range(self.n_funcs):
            fields.append(self.func(i))
        fields.extend(table_fields)
        if self.has_memory:
            sec = " secret" if self.mem_secret else ""
            fields.append(f"  (memory 1{sec})")
            if rng.random() < 0.5:
                data = "".join(f"\\{rng.randrange(256):02x}"
                               for _ in range(rng.randint(1, 8)))
                fields.append(f'  (data (i32.const {rng.randrange(64)}) "{data}")')
        for t, mut in self.globals:
            init = self.const_text(t)
            gt = f"(mut {t})" if mut else t
            fields.append(f"  (global {gt} ({t}.const {init}))")
        return "(module\n" + "\n".join(fields) + "\n)\n"

    def const_text(self, t: str) -> str:
        rng = self.rng
        if self.is_int(t):
            lo = -(1 << 31) if self.width(t) == 32 else -(1 << 63)
            hi = (1 << 31) - 1 if self.width(t) == 32 else (1 << 63) - 1
            return str(rng.choice((0, 1, -1, 7, rng.randint(lo, hi))))
        return rng.choice(("0.5", "1.5", "-2.5", "0.25", "42.0"))

    # -- functions

    def func(self, idx: int) -> str:
        rng = self.rng
        params, result, trusted = self.sigs[idx]
        self.cur = idx
        self.locals = list(params) + [self.pick_type()
                                      for _ in range(rng.randint(0, 3))]
        self.n_params = len(params)
        self.depth = 0
        self.labels: list[str | None] = []  # result type per label, None=void
        head = f'  (func (export "f{idx}")'
        if trusted:
            head += " trusted"
        for p in params:
            head += f" (param {p})"
        if result:
            head += f" (result {result})"
        lines = [head]
        if len(self.locals) > self.n_params:
            lines.append("    (local " +
                         " ".join(self.locals[self.n_params:]) + ")")
        for _ in range(rng.randint(0, 3)):
            lines.append(self.stmt(2))
        if result:
            lines.append("    " + self.expr(result, 0))
        lines.append("  )")
        return "\n".join(lines)

    # -- statements (net stack effect zero)

    def stmt(self, depth: int) -> str:
        rng = self.rng
        pad = "    "
        choices = ["drop", "set_local", "nop"]
        if any(mut for _, mut in self.globals):
            choices.append("set_global")
        if self.has_memory:
            choices.append("store")
        if depth < 4:
            choices += ["if", "block", "loop"]
        kind = rng.choice(choices)
        if kind == "drop":
            return f"{pad}(drop {self.expr(self.pick_type(), depth)})"
        if kind == "nop":
            return f"{pad}nop"
        if kind == "set_local":
            k = rng.randrange(len(self.locals)) if self.locals else None
            if k is None:
                return f"{pad}nop"
            return f"{pad}(local.set {k} {self.expr(self.locals[k], depth)})"
        if kind == "set_global":
            muts = [i for i, (_, mut) in enumerate(self.globals) if mut]
            gi = rng.choice(muts)
            return f"{pad}(global.set {gi} {self.expr(self.globals[gi][0], depth)})"
        if kind == "store":
            t = self.mem_type()
            addr = self.addr_expr(depth)
            return f"{pad}({t}.store {addr} {self.expr(t, depth)})"
        if kind == "if":
            cond = self.expr("i32", depth)
            a = self.stmt(depth + 1).strip()
            b = self.stmt(depth + 1).strip()
            return f"{pad}(if {cond} (then {a}) (else {b}))"
        if kind == "block":
            self.labels.append(None)
            inner = [self.stmt(depth + 1).strip()
                     for _ in range(rng.randint(1, 2))]
            if rng.random() < 0.6:
                inner.append(f"(br_if 0 {self.expr('i32', depth + 1)})")
            self.labels.pop()
            return f"{pad}(block " + " ".join(inner) + ")"
        self.labels.append(None)
        inner = [self.stmt(depth + 1).strip()]
        self.labels.pop()
        return f"{pad}(loop " + " ".join(inner) + ")"

    def mem_type(self) -> str:
        kinds = ("s32", "s64") if self.mem_secret else \
            ("i32", "i64", "f32", "f64")
        return self.rng.choice(kinds)

    def addr_expr(self, depth: int) -> str:
        return f"(i32.const {self.rng.randrange(0, 512)})"

    # -- expressions of an exact type

    def expr(self, t: str, depth: int) -> str:
        rng = self.rng
        leafy = depth >= 3 or rng.random() < 0.3
        locs = [i for i, lt in enumerate(self.locals) if lt == t]
        globs = [i for i, (gt, _) in enumerate(self.globals) if gt == t]
        if leafy:
            opts = ["const"]
            if locs:
                opts.append("local")
            if globs:
                opts.append("global")
            kind = rng.choice(opts)
            if kind == "local":
                return f"(local.get {rng.choice(locs)})"
            if kind == "global":
                return f"(global.get {rng.choice(globs)})"
            return f"({t}.const {self.const_text(t)})"
        opts = ["binop", "select"]
        if self.is_int(t):
            opts += ["unop", "relop_source"] if t in ("i32", "s32") else ["unop"]
            if self.ct and self.is_secret(t):
                opts.append("classify")
        if self.has_memory and self.mem_ok(t):
            opts.append("load")
        callees = [i for i, (p, r, tr) in enumerate(self.sigs)
                   if r == t and self.callable(i)]
        if callees:
            opts.append("call")
        if self.table_sig is not None and self.table_sig[1] == t and \
                not self.table_sig[2]:
            opts.append("call_indirect")
        kind = rng.choice(opts)
        if kind == "binop":
            op = rng.choice(self.safe_binops(t))
            return (f"({t}.{op} {self.expr(t, depth + 1)} "
                    f"{self.expr(t, depth + 1)})")
        if kind == "unop":
            ops = ("clz", "ctz", "popcnt") if self.is_int(t) else \
                ("neg", "abs", "sqrt")
            return f"({t}.{rng.choice(ops)} {self.expr(t, depth + 1)})"
        if kind == "select":
            sec = self.ct and self.is_secret(t)
            cond_t = "s32" if sec else "i32"
            ann = " secret" if sec else ""
            return (f"(select{ann} {self.expr(t, depth + 1)} "
                    f"{self.expr(t, depth + 1)} {self.expr(cond_t, depth + 1)})")
        if kind == "relop_source":
            src = rng.choice([x for x in self.types
                              if self.sec_name(x) == self.sec_name(t)])
            if self.is_int(src) and rng.random() < 0.3:  # the testop
                return f"({src}.eqz {self.expr(src, depth + 1)})"
            op = rng.choice(INT_RELOPS if self.is_int(src) else FLOAT_RELOPS)
            return (f"({src}.{op} {self.expr(src, depth + 1)} "
                    f"{self.expr(src, depth + 1)})")
        if kind == "classify":
            pub = "i32" if self.width(t) == 32 else "i64"
            return f"({t}.classify/{pub} {self.expr(pub, depth + 1)})"
        if kind == "load":
            return f"({t}.load {self.addr_expr(depth)})"
        if kind == "call":
            callee = rng.choice(callees)
            args = " ".join(self.expr(p, depth + 1)
                            for p in self.sigs[callee][0])
            return f"(call {callee} {args})".replace("  ", " ")
        params, result, _ = self.table_sig
        args = " ".join(self.expr(p, depth + 1) for p in params)
        sig = "".join(f" (param {p})" for p in params)
        sig += f" (result {result})" if result else ""
        return (f"(call_indirect{sig} {args} "
                f"(i32.const {self.table_idx}))").replace("  ", " ")

    def sec_name(self, t: str) -> str:
        return "secret" if self.is_secret(t) else "public"

    def mem_ok(self, t: str) -> bool:
        if not self.is_int(t) and self.mem_secret:
            return False
        return self.is_secret(t) == self.mem_secret

    def callable(self, callee: int) -> bool:
        # untrusted callers cannot call trusted functions
        caller_trusted = self.sigs[self.cur][2]
        return caller_trusted or not self.sigs[callee][2]

    def safe_binops(self, t: str) -> list[str]:
        if not self.is_int(t):
            return ["add", "sub", "mul", "min", "max"]
        ops = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr_u",
               "shr_s", "rotl", "rotr"]
        if not self.is_secret(t):
            pass  # div/rem excluded everywhere: they can trap at runtime
        return ops


def generate(seed: int, ct: bool = False) -> str:
    return ModuleGen(seed, ct).module()


# dead code: after each of these the operand stack is polymorphic
DEAD_CODE = ("(unreachable)", "(return)", "(br 0)", "(return) (br_if 0)")
_NOT_EXPR = ("(then", "(else", "(param", "(result")  # parts of a construct


def dead_code(seed: int) -> str | None:
    """``generate(seed)`` with one dead-code sequence inserted before an
    expression of a function body or at the body's end; None when the
    result does not validate."""
    from ctwasm import text, validate

    rng = random.Random(f"dead-code {seed}")
    src = generate(seed)
    spots, at = [], 0
    for line in src.split("\n"):
        if line == "  )":
            spots.append(at)
        elif line.startswith("    ") and not line.startswith("    (local "):
            spots += [at + i for i, ch in enumerate(line) if ch == "("
                      and not line.startswith(_NOT_EXPR, i)]
        at += len(line) + 1
    at = rng.choice(spots)
    src = src[:at] + rng.choice(DEAD_CODE) + " " + src[at:]
    try:
        validate.validate_module(text.parse_module(src))
    except validate.ValidationFailure:
        return None
    return src


class LoopGen(ModuleGen):
    """Modules of counted loops, ``block (loop (br_if 1 …) … (br 0))``,
    whose bodies are straight-line code: mid-body ``br_if 0`` continues,
    ``br_if`` exits to outer labels and to the function, loads, stores,
    globals and ``memory.grow``, and sometimes a ``div``/``rem`` or an
    out-of-bounds load that traps at a chosen iteration.  Some put such a
    loop inside an outer loop that holds it, a loop that is not
    straight-line.  Expressions make no calls, and every loop runs at
    most a few dozen iterations, so any arguments end the run."""

    def module(self) -> str:
        rng = self.rng
        self.has_memory = True
        self.mem_secret = self.ct and rng.random() < 0.5
        self.sigs, self.table_sig = [], None  # no calls
        self.globals = [("i32", True)] + [
            (self.pick_type(), rng.random() < 0.5)
            for _ in range(rng.randint(0, 1))]
        sec = " secret" if self.mem_secret else ""
        fields = [self.func(0)]
        fields.append(f"  (memory 1 {rng.randint(1, 3)}{sec})")
        for t, mut in self.globals:
            gt = f"(mut {t})" if mut else t
            fields.append(f"  (global {gt} ({t}.const {self.const_text(t)}))")
        return "(module\n" + "\n".join(fields) + "\n)\n"

    def func(self, idx: int) -> str:
        rng = self.rng
        params = [self.pick_type() for _ in range(rng.randint(0, 2))]
        extra = [self.pick_type() for _ in range(rng.randint(1, 3))]
        self.locals = params + ["i32", "i32"] + extra
        self.i, self.j = len(params), len(params) + 1  # the counters
        self.sets = [self.j + 1 + k for k in range(len(extra))] + \
            list(range(len(params)))
        head = f'  (func (export "f{idx}")' + "".join(
            f" (param {p})" for p in params) + " (result i32)"
        local = "    (local " + " ".join(self.locals[len(params):]) + ")"
        if rng.random() < 0.5:
            loop = self.counted(self.i, rng.randint(0, 12), ["i32"])
        else:  # the simple loop inside an outer loop that holds it
            inner = self.counted(self.i, rng.randint(0, 6), [None, None, "i32"])
            loop = (f"(block (loop (br_if 1 (i32.ge_u (local.get {self.j}) "
                    f"(i32.const {rng.randint(0, 4)}))) (local.set {self.j} "
                    f"(i32.add (local.get {self.j}) (i32.const 1))) "
                    f"(local.set {self.i} (i32.const 0)) {self.stmt_in([])} "
                    f"{inner} (br 0)))")
        body = f"    (block (result i32) {loop} {self.expr('i32', 2)})"
        return "\n".join((head, local, body, "  )"))

    def counted(self, counter: int, iterations: int, outer: list) -> str:
        """``block (loop …)`` running ``iterations`` times; ``outer`` holds
        the result type of each label outside the block, innermost
        first.  The function, which returns an i32, is outside them."""
        labels = [None, None] + outer  # the loop and its block
        stmts = [f"(br_if 1 (i32.ge_u (local.get {counter}) "
                 f"(i32.const {iterations})))",
                 f"(local.set {counter} (i32.add (local.get {counter}) "
                 "(i32.const 1)))"]
        stmts += [self.stmt_in(labels, iterations)
                  for _ in range(self.rng.randint(1, 3))]
        return f"(block (loop {' '.join(stmts)} (br 0)))"

    def cond(self) -> str:
        rng = self.rng
        i = f"(local.get {self.i})"
        return rng.choice((
            f"(i32.eq (i32.and {i} (i32.const {rng.choice((1, 3, 7))})) "
            f"(i32.const {rng.randint(0, 3)}))",
            f"(i32.gt_u {i} (i32.const {rng.randint(0, 12)}))",
            f"(i32.eqz (i32.and {i} (i32.const {rng.choice((1, 3, 7))})))",
            f"(i32.and {self.expr('i32', 2)} (i32.const 1))"))

    def stmt_in(self, labels: list, iterations: int = 0) -> str:
        """A straight-line statement; with ``labels``, those of a counted
        loop's body (the loop's first), branches may target them and the
        function beyond them."""
        rng = self.rng
        kinds = ["set", "set", "store", "global", "grow"]
        if labels:
            kinds += ["continue", "exit", "exit", "trap"]
        kind = rng.choice(kinds)
        if kind == "set":
            k = rng.choice(self.sets)
            return f"(local.set {k} {self.expr(self.locals[k], 2)})"
        if kind == "store":
            t = self.mem_type()
            return f"({t}.store {self.addr_expr(2)} {self.expr(t, 2)})"
        if kind == "global":
            return f"(global.set 0 {self.expr('i32', 2)})"
        if kind == "grow":
            return f"(drop (memory.grow (i32.const {rng.randint(0, 1)})))"
        if kind == "continue":
            return f"(br_if 0 {self.cond()})"
        if kind == "exit":
            depth = rng.randint(1, len(labels))
            t = labels[depth] if depth < len(labels) else "i32"
            if t is None:
                return f"(br_if {depth} {self.cond()})"
            return f"(drop (br_if {depth} {self.expr(t, 2)} {self.cond()}))"
        at = f"(i32.const {rng.randint(0, iterations + 1)})"
        hit = f"(i32.eq (local.get {self.i}) {at})"
        if rng.random() < 0.5:  # out of bounds at that iteration
            t = "s32" if self.mem_secret else "i32"
            return (f"(drop ({t}.load (i32.add (i32.const 65532) "
                    f"(i32.mul {hit} (i32.const 8)))))")
        op = rng.choice(("div_u", "div_s", "rem_u", "rem_s"))
        zero = f"(i32.sub (local.get {self.i}) {at})"
        if rng.random() < 0.5:
            return f"(drop (i32.{op} {self.expr('i32', 2)} {zero}))"
        return (f"(drop (i64.{op} {self.expr('i64', 2)} "
                f"(i64.extend_i32_u {zero})))")

    def addr_expr(self, depth: int) -> str:
        if self.rng.random() < 0.5:
            return super().addr_expr(depth)
        return (f"(i32.and (i32.add (local.get {self.i}) "
                f"(i32.const {self.rng.randrange(512)})) (i32.const 511))")


def counted_loops(seed: int, ct: bool = False) -> str:
    return LoopGen(seed, ct).module()


# deliberate single-error mutants; both validators must reject
_BAD_BODIES = [
    "(drop (i32.add (i64.const 0) (i32.const 1)))",   # operand type clash
    "(drop (local.get 99))",                          # unknown local
    "(br 9)",                                         # unknown label
    "(drop (call 99))",                               # unknown function
    "(drop (f32.add (f32.const 0.5) (i32.const 1)))",  # float/int clash
    "i32.add",                                        # stack underflow
    "(global.set 99 (i32.const 0))",                  # unknown global
    "(drop (i32.load (i32.const 0)))",                # no memory declared
]


def mutate_invalid(seed: int) -> str:
    rng = random.Random(seed)
    bad = rng.choice(_BAD_BODIES)
    return f'(module\n  (func (export "bad")\n    {bad}\n  )\n)\n'
