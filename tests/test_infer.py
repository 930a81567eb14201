import itertools

import pytest

from ctwasm import ast, infer, strip, text, validate
from ctwasm.ast import Secrecy, Trust
from ctwasm.infer import Hints, InputInvalid, fixpoint_stats, infer_labels

SECRET, PUBLIC = Secrecy.SECRET, Secrecy.PUBLIC


def count_instrs(body) -> int:
    n = 0
    for ins in body:
        n += 1
        match ins:
            case ast.Block(body=b) | ast.Loop(body=b):
                n += count_instrs(b)
            case ast.If(then=t, else_=e):
                n += count_instrs(t) + count_instrs(e)
    return n


def scan_ops(m: ast.Module, cls) -> int:
    total = 0

    def walk(body):
        nonlocal total
        for ins in body:
            if isinstance(ins, cls):
                total += 1
            match ins:
                case ast.Block(body=b) | ast.Loop(body=b):
                    walk(b)
                case ast.If(then=t, else_=e):
                    walk(t)
                    walk(e)
    for f in m.funcs:
        walk(f.body)
    return total


def test_branch_condition_demotes_its_dependency_cone():
    src = """(module (func (export "f") (param i32 i32) (result i32)
      (if (i32.lt_u (local.get 0) (i32.const 10)) (then nop))
      (local.get 1)))"""
    res = infer_labels(text.parse_module(src))
    assert res.ok
    ft = res.module.module.funcs[0].type
    assert ft.params[0].sec is PUBLIC  # flowed into the branch
    assert ft.params[1].sec is SECRET  # untouched, stays secret
    assert ft.results[0].sec is SECRET


def test_secret_load_into_branch_conflicts():
    src = """(module (memory 1) (func (export "g") (result i32)
      (if (result i32) (i32.load (i32.const 0))
        (then (i32.const 1)) (else (i32.const 0)))))"""
    res = infer_labels(text.parse_module(src))
    assert not res.ok
    assert len(res.conflicts) == 1
    chain = " ".join(res.conflicts[0].chain)
    assert "loaded from memory" in chain and "condition" in chain
    assert "declassify" in res.conflicts[0].suggestion


def test_memory_hint_resolves_the_conflict():
    src = """(module (memory 1) (func (export "g") (result i32)
      (if (result i32) (i32.load (i32.const 0))
        (then (i32.const 1)) (else (i32.const 0)))))"""
    res = infer_labels(text.parse_module(src), Hints(public_memory=True))
    assert res.ok
    assert res.module.module.memory.sec is PUBLIC


@pytest.mark.parametrize("access", [
    "(f32.store (i32.const 0) (local.get 0))",
    "(drop (f32.load (i32.const 0)))",
])
def test_float_memory_access_conflicts_without_the_memory_hint(access):
    # a secret memory takes no float access, so without the hint the
    # memory stays secret and the access is a conflict
    src = f"""(module (memory 1)
      (func (export "f") (param f32) {access}))"""
    res = infer_labels(text.parse_module(src))
    assert not res.ok
    assert len(res.conflicts) == 1
    assert "float" in " ".join(res.conflicts[0].chain)
    res = infer_labels(text.parse_module(src), Hints(public_memory=True))
    assert res.ok, res.conflicts
    assert res.module.module.memory.sec is PUBLIC


def test_tee_into_a_branch_condition_makes_its_local_public():
    # the value a tee leaves is the local's, so the condition demotes the
    # local; inference had let the local stay secret and then failed its
    # own coercion check
    src = """(module (func (export "f") (param i32) (result i32) (local i32)
      (block (br_if 0 (local.tee 1 (i32.const 5)))) (local.get 0)))"""
    res = infer_labels(text.parse_module(src))
    assert res.ok, res.conflicts
    f = res.module.module.funcs[0]
    assert f.locals[0].sec is PUBLIC
    assert f.type.params[0].sec is SECRET
    assert f.type.results[0].sec is SECRET


def test_corpus_round_trip(typed_corpus):
    for name, (entry, tm) in typed_corpus.items():
        stripped = strip.strip_module(tm).module
        res = infer_labels(stripped)
        assert res.ok, (name, res.conflicts)
        out = res.module.module
        assert all(f.type.trust is Trust.UNTRUSTED for f in out.funcs), name
        assert scan_ops(out, ast.Declassify) == 0, name
        validate.validate_module(out)


def test_fixpoint_terminates_within_instruction_count(typed_corpus):
    entry, tm = typed_corpus["tea"]
    stripped = strip.strip_module(tm).module
    res = infer_labels(stripped)
    iterations, demotions = fixpoint_stats(res)
    n = sum(count_instrs(f.body) for f in stripped.funcs)
    assert iterations <= n
    assert demotions > 0


def test_no_sinks_means_no_demotions():
    src = """(module (func (export "f") (param i32 i32) (result i32)
      (i32.add (local.get 0) (local.get 1))))"""
    res = infer_labels(text.parse_module(src))
    assert res.ok
    _, demotions = fixpoint_stats(res)
    assert demotions == 0
    ft = res.module.module.funcs[0].type
    assert all(t.sec is SECRET for t in ft.params + ft.results)


def test_infer_strip_idempotent_on_corpus(typed_corpus):
    for name, (entry, tm) in typed_corpus.items():
        once = infer_labels(strip.strip_module(tm).module)
        assert once.ok, name
        again = infer_labels(strip.strip_module(once.module).module)
        assert again.ok, name
        assert once.module.module == again.module.module, name


def test_soundness_on_fuzz_corpus():
    """Every conflict-free inference output validates (the tool checks its
    own output; this confirms it across generated shapes)."""
    import fuzzgen

    inferred = conflicted = 0
    for seed in range(120):
        m = text.parse_module(fuzzgen.generate(seed))
        try:
            res = infer_labels(m)
        except InputInvalid:
            continue  # generator can build div-free modules only; keep all
        if res.ok:
            inferred += 1
            validate.validate_module(res.module.module)
        else:
            conflicted += 1
            assert res.conflicts
    assert inferred >= 40  # most generated modules infer cleanly


def test_rejects_annotated_input():
    with pytest.raises(InputInvalid):
        infer_labels(text.parse_module(
            "(module (func (param s32) (drop (local.get 0))))"))
    with pytest.raises(InputInvalid):
        infer_labels(text.parse_module("(module (func trusted))"))
    with pytest.raises(InputInvalid):
        infer_labels(text.parse_module("(module (memory 1 secret))"))


def test_rejects_base_invalid_input():
    with pytest.raises(InputInvalid):
        infer_labels(text.parse_module(
            "(module (func (result i32) (i64.const 1)))"))


def test_classify_inserted_where_public_feeds_secret():
    src = """(module (func (export "f") (param i32 i32) (result i32)
      (if (i32.eqz (local.get 0)) (then nop))
      (i32.add (local.get 0) (local.get 1))))"""
    res = infer_labels(text.parse_module(src))
    assert res.ok
    out = res.module.module
    # param 0 is public (branch), param 1 secret; the add is secret, so the
    # public operand is classified up
    assert scan_ops(out, ast.Classify) == 1
    assert out.funcs[0].type.results[0].sec is SECRET


def test_cross_function_demotion():
    src = """(module
      (func $callee (param i32) (result i32)
        (if (i32.eqz (local.get 0)) (then nop))
        (i32.const 0))
      (func (export "f") (param i32)
        (drop (call $callee (local.get 0)))))"""
    res = infer_labels(text.parse_module(src))
    assert res.ok
    m = res.module.module
    assert m.funcs[0].type.params[0].sec is PUBLIC  # callee's own branch
    assert m.funcs[1].type.params[0].sec is PUBLIC  # demoted through the call


def test_hints_force_public_param_and_result():
    src = """(module (func (export "f") (param i32) (result i32)
      (local.get 0)))"""
    res = infer_labels(text.parse_module(src))
    ft = res.module.module.funcs[0].type
    assert ft.params[0].sec is SECRET and ft.results[0].sec is SECRET
    hints = Hints(public_params={"f": {0}}, public_results={"f"})
    res = infer_labels(text.parse_module(src), hints)
    ft = res.module.module.funcs[0].type
    assert ft.params[0].sec is PUBLIC and ft.results[0].sec is PUBLIC


def test_trusted_hint_propagates_to_callers():
    src = """(module
      (func $a (export "a") (result i32) (i32.const 1))
      (func (export "b") (result i32) (call $a)))"""
    res = infer_labels(text.parse_module(src), Hints(trusted={"a"}))
    assert res.ok
    trusts = [f.type.trust for f in res.module.module.funcs]
    assert trusts == [Trust.TRUSTED, Trust.TRUSTED]


def test_select_secretized_when_operands_stay_secret():
    src = """(module (func (export "f") (param i32 i32 i32) (result i32)
      (if (i32.eqz (local.get 2)) (then nop))
      (select (local.get 0) (local.get 1) (local.get 2))))"""
    res = infer_labels(text.parse_module(src))
    assert res.ok
    out = res.module.module
    selects = []

    def walk(body):
        for ins in body:
            if isinstance(ins, ast.Select):
                selects.append(ins)
            match ins:
                case ast.Block(body=b) | ast.Loop(body=b):
                    walk(b)
                case ast.If(then=t, else_=e):
                    walk(t)
                    walk(e)
    for f in out.funcs:
        walk(f.body)
    # operands secret at fixpoint -> select secret; the public condition
    # gets classified up to the secret condition type
    assert selects[0].sec is SECRET
    assert scan_ops(out, ast.Classify) >= 1
    validate.validate_module(out)


# --- brute-force maximality oracle -----------------------------------------

def _slots(m: ast.Module):
    """Enumerable integer slots: (kind, func, index) plus memory."""
    slots = []
    for fi, f in enumerate(m.funcs):
        for li, t in enumerate(f.type.params + f.locals):
            if t.is_int:
                slots.append(("local", fi, li))
        if f.type.results and f.type.results[0].is_int:
            slots.append(("result", fi))
    for gi, g in enumerate(m.globals):
        if g.type.is_int:
            slots.append(("global", gi))
    if m.memory is not None:
        slots.append(("mem",))
    return slots


def _assignment_valid(m: ast.Module, secret: set) -> bool:
    """Forward check of the typing side conditions for one labeling.

    A labeling is achievable iff no secret value reaches a position the
    rules force public (classify repairs the public-to-secret direction
    only).  Straight-line constructs cover the synthetic modules below.
    """
    mem_secret = ("mem",) in secret

    for fi, f in enumerate(m.funcs):
        types = f.type.params + f.locals

        def local_sec(k):
            return ("local", fi, k) in secret

        def run(body, stack):
            for ins in body:
                match ins:
                    case ast.Const():
                        stack.append(False)
                    case ast.GetLocal(local=k):
                        stack.append(local_sec(k))
                    case ast.SetLocal(local=k) | ast.TeeLocal(local=k):
                        v = stack[-1]
                        if not isinstance(ins, ast.TeeLocal):
                            stack.pop()
                        if v and not local_sec(k):
                            return None
                    case ast.GetGlobal(glob=k):
                        stack.append(("global", k) in secret)
                    case ast.SetGlobal(glob=k):
                        if stack.pop() and ("global", k) not in secret:
                            return None
                    case ast.Binop(type=t, op=op):
                        b, a = stack.pop(), stack.pop()
                        if op in ast.UNSAFE_BINOPS and (a or b):
                            return None
                        stack.append(a or b)
                    case ast.Unop() | ast.Testop():
                        stack.append(stack.pop())
                    case ast.Relop():
                        b, a = stack.pop(), stack.pop()
                        stack.append(a or b)
                    case ast.Load():
                        if stack.pop():
                            return None  # secret address
                        stack.append(mem_secret)
                    case ast.Store():
                        v, addr = stack.pop(), stack.pop()
                        if addr or (v and not mem_secret):
                            return None
                    case ast.Drop():
                        stack.pop()
                    case ast.BrIf():
                        if stack.pop():
                            return None
                    case ast.If(then=t, else_=e):
                        if stack.pop():
                            return None
                        if run(t, stack) is None or run(e, stack) is None:
                            return None
                    case ast.Block(body=b) | ast.Loop(body=b):
                        if run(b, stack) is None:
                            return None
                    case ast.Call(func=k):
                        ft = m.funcs[k].type
                        for i in reversed(range(len(ft.params))):
                            if stack.pop() and ("local", k, i) not in secret:
                                return None
                        if ft.results:
                            stack.append(("result", k) in secret)
                    case ast.Nop():
                        pass
                    case _:
                        raise AssertionError(f"oracle can't handle {ins!r}")
            return stack

        stack = run(f.body, [])
        if stack is None:
            return False
        if f.type.results:
            if stack and stack[-1] and ("result", fi) not in secret:
                return False
    return True


def _inferred_secret_set(m: ast.Module, out: ast.Module) -> set:
    secret = set()
    for fi, f in enumerate(out.funcs):
        for li, t in enumerate(f.type.params + f.locals):
            if t.sec is SECRET:
                secret.add(("local", fi, li))
        if f.type.results and f.type.results[0].sec is SECRET:
            secret.add(("result", fi))
    for gi, g in enumerate(out.globals):
        if g.type.sec is SECRET:
            secret.add(("global", gi))
    if out.memory is not None and out.memory.sec is SECRET:
        secret.add(("mem",))
    return secret


SYNTHETIC = [
    """(module (func (export "f") (param i32 i32) (result i32)
        (if (i32.eqz (local.get 0)) (then nop))
        (i32.add (local.get 0) (local.get 1))))""",
    """(module (memory 1) (func (export "f") (param i32 i32)
        (i32.store (local.get 0) (local.get 1))
        (if (i32.eqz (i32.const 3)) (then nop))))""",
    """(module
        (func $g (param i32) (result i32)
          (if (i32.eqz (local.get 0)) (then nop)) (i32.const 1))
        (func (export "f") (param i32 i32) (result i32)
          (drop (call $g (local.get 0)))
          (local.get 1)))""",
    """(module (memory 1)
        (global $a (mut i32) (i32.const 0))
        (func (export "f") (param i32 i32) (result i32)
          (global.set $a (i32.load (local.get 0)))
          (i32.add (global.get $a) (local.get 1))))""",
    """(module (func (export "f") (param i32 i32 i32) (result i32)
        (local i32)
        (local.set 3 (i32.div_u (local.get 0) (i32.const 3)))
        (i32.add (local.get 3) (i32.add (local.get 1) (local.get 2)))))""",
]


@pytest.mark.parametrize("src", SYNTHETIC)
def test_inference_matches_bruteforce_maximal_secrecy(src):
    m = text.parse_module(src)
    slots = _slots(m)
    assert len(slots) <= 12
    res = infer_labels(m)
    assert res.ok, res.conflicts

    # memory stays pinned secret in the tool; the oracle enumerates with
    # the same constraint
    best: set | None = None
    valid_count = 0
    for bits in itertools.product((False, True), repeat=len(slots)):
        secret = {s for s, b in zip(slots, bits) if b}
        if m.memory is not None and ("mem",) not in secret:
            continue  # tool contract: memory is secret unless hinted
        if not _assignment_valid(m, secret):
            continue
        valid_count += 1
        if best is None or len(secret) > len(best):
            best = secret
    assert best is not None and valid_count > 0

    got = _inferred_secret_set(m, res.module.module)
    assert _assignment_valid(m, got)
    assert len(got) == len(best), (sorted(got), sorted(best))
    assert got == best  # the maximum is unique: the least-public labeling
