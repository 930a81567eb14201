import random
import tracemalloc

import pytest
import relgen
from ctwasm import ast, interp, leakage, text, validate
from ctwasm.ast import I32, I64, S32, Secrecy
from ctwasm.interp import Store, Value
from ctwasm.leakage import (
    TrialSpec, actions_indist, configs_indist, lockstep_check, project_config,
    randomized_ct_trial, values_indist,
)


# --- value indistinguishability ---------------------------------------------

def test_values_indist_examples():
    assert values_indist(Value(S32, 1), Value(S32, 2))  # both secret
    assert not values_indist(Value(I32, 1), Value(I32, 2))  # public payloads
    assert not values_indist(Value(I32, 7), Value(I64, 7))  # type mismatch
    assert values_indist(Value(I32, 7), Value(I32, 7))


# --- action indistinguishability --------------------------------------------

def test_actions_indist_examples():
    assert actions_indist(("op", "s32.add"), ("op", "s32.add"))
    assert not actions_indist(("unsafe-binop", "div_u", 7, 2),
                              ("unsafe-binop", "div_u", 9, 2))
    assert not actions_indist(("mem", "load", 16, 4, None),
                              ("mem", "load", 20, 4, None))
    assert actions_indist(("secret-select",), ("secret-select",))
    assert not actions_indist(("op", "s32.add"), ("op", "s32.sub"))
    assert not actions_indist(("branch", "if", 0), ("branch", "if", 1))


def test_action_equality_realizes_the_relation():
    rng = random.Random(3)
    for _ in range(2000):
        a, b, _ = relgen.action_triple(rng)
        assert actions_indist(a, b) == (a == b)


# --- configuration indistinguishability --------------------------------------

def test_config_reflexive_on_same_object():
    cfg = relgen.make_config(random.Random(0))
    assert configs_indist(cfg, cfg)


def test_configs_differing_in_secret_memory_are_related():
    rng = random.Random(1)
    fam = (2, 9, 0)
    a = relgen.make_config(rng, fam)
    b = relgen.make_config(rng, fam)
    assert configs_indist(a, b)  # secret memory bytes and args differ only
    assert project_config(a) == project_config(b)


def test_configs_differing_in_public_global_are_unrelated():
    rng = random.Random(2)
    fam = (2, 9, 0)
    a = relgen.make_config(rng, fam)
    b = relgen.make_config(rng, fam)
    ga = a.store.globals[a.store.insts[a.inst_idx].global_addrs[1]]
    ga.bits = (ga.bits + 1) & 0xFFFFFFFF  # the public counter global
    assert not configs_indist(a, b)
    assert project_config(a) != project_config(b)


def test_projection_idempotent_and_characterizes_relation():
    rng = random.Random(4)
    for _ in range(60):
        a, b, _ = relgen.config_triple(rng)
        assert configs_indist(a, b) == (project_config(a) == project_config(b))


def test_relations_are_equivalences_sampled():
    rng = random.Random(5)
    for _ in range(800):
        v1, v2, v3 = relgen.value_triple(rng)
        assert values_indist(v1, v1)
        assert values_indist(v1, v2) == values_indist(v2, v1)
        if values_indist(v1, v2) and values_indist(v2, v3):
            assert values_indist(v1, v3)
    for _ in range(800):
        a1, a2, a3 = relgen.action_triple(rng)
        assert actions_indist(a1, a1)
        assert actions_indist(a1, a2) == actions_indist(a2, a1)
        if actions_indist(a1, a2) and actions_indist(a2, a3):
            assert actions_indist(a1, a3)
    for _ in range(40):
        c1, c2, c3 = relgen.config_triple(rng)
        assert configs_indist(c1, c1)
        assert configs_indist(c1, c2) == configs_indist(c2, c1)
        if configs_indist(c1, c2) and configs_indist(c2, c3):
            assert configs_indist(c1, c3)


# --- typeability invariance ---------------------------------------------------

def _randomize_secret_consts(ins, rng):
    if isinstance(ins, ast.Const) and ins.type.sec is Secrecy.SECRET:
        return ast.Const(ins.type, rng.getrandbits(ins.type.bits))
    match ins:
        case ast.Block(result=r, body=b):
            return ast.Block(r, tuple(_randomize_secret_consts(i, rng)
                                      for i in b))
        case ast.Loop(result=r, body=b):
            return ast.Loop(r, tuple(_randomize_secret_consts(i, rng)
                                     for i in b))
        case ast.If(result=r, then=t, else_=e):
            return ast.If(r, tuple(_randomize_secret_consts(i, rng) for i in t),
                          tuple(_randomize_secret_consts(i, rng) for i in e))
    return ins


def test_typeability_invariant_under_secret_payload_mutation(positive_entries):
    rng = random.Random(6)
    for entry in positive_entries:
        m = entry.module
        for _ in range(3):
            funcs = tuple(
                ast.Func(f.type, f.locals,
                         tuple(_randomize_secret_consts(i, rng)
                               for i in f.body),
                         f.imported, f.exports, f.name, f.span)
                for f in m.funcs)
            mutated = ast.Module(funcs, m.globals, m.table, m.memory, m.data)
            validate.validate_module(mutated)  # same verdict: accepted


# --- lockstep ------------------------------------------------------------------

def test_lockstep_salsa20_random_keys_same_nonce(typed_corpus):
    entry, tm = typed_corpus["salsa20"]
    rng = random.Random(7)
    key_a = bytes(rng.getrandbits(8) for _ in range(32))
    key_b = bytes(rng.getrandbits(8) for _ in range(32))
    args = entry.trial.args
    v = lockstep_check(tm, "stream_xor", args, args,
                       {0: key_a}, {0: key_b}, fuel=2_000_000)
    assert v.ok, v


def test_lockstep_flags_secret_branch_at_first_branch_action():
    src = """(module (memory 1 secret)
      (func (export "leaky") (result i32)
        (s32.store (i32.const 8) (s32.load (i32.const 0)))
        (if (result i32) (s32.load (i32.const 8))
          (then (i32.const 1)) (else (i32.const 0)))))"""
    bad = validate.flatten_unchecked(text.parse_module(src))
    v = lockstep_check(bad, "leaky", [], [],
                       {0: bytes(4)}, {0: (42).to_bytes(4, "little")},
                       require_untrusted=False)
    assert v.kind == "diverged"
    # actions: store, load, mem-store, load-addr-const... first branch is the if
    assert v.action_a[0] == "branch" and v.action_b[0] == "branch"
    assert v.action_a[2] == 0 and v.action_b[2] == 42
    assert "if" in (v.location or "")


def test_lockstep_flags_br_if_on_secret():
    src = """(module (memory 1 secret)
      (func (export "leaky") (result i32)
        (block $out
          (br_if $out (s32.load (i32.const 0)))
        )
        (i32.const 0)))"""
    bad = validate.flatten_unchecked(text.parse_module(src))
    v = lockstep_check(bad, "leaky", [], [],
                       {0: bytes(4)}, {0: (7).to_bytes(4, "little")},
                       require_untrusted=False)
    assert v.kind == "diverged"
    assert v.action_a == ("branch", "br_if", 0)
    assert v.action_b == ("branch", "br_if", 7)


def test_lockstep_identical_secrets_identical_traces(typed_corpus):
    entry, tm = typed_corpus["tea"]
    args = entry.trial.args
    image = {0: bytes(range(24))}
    v = lockstep_check(tm, "tea_encrypt", args, args, image, image)
    assert v.ok
    # determinism: the traces must be identical, not merely related
    s1, i1 = interp.instantiate(Store(), tm)
    s2, i2 = interp.instantiate(Store(), tm)
    for s, i in ((s1, i1), (s2, i2)):
        s.mems[s.insts[i].mem_addr].data[0:24] = bytes(range(24))
    t1 = interp.invoke(s1, i1, "tea_encrypt", args).trace
    t2 = interp.invoke(s2, i2, "tea_encrypt", args).trace
    assert t1 == t2


def test_lockstep_public_results_must_match():
    src = """(module (func (export "f") trusted (param s32) (result i32)
      local.get 0 i32.declassify))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    v = lockstep_check(tm, "f", [Value(S32, 1)], [Value(S32, 2)],
                       require_untrusted=False)
    assert v.kind == "diverged"


def test_lockstep_refuses_trusted_exports():
    src = """(module (func (export "f") trusted (param s32) (result i32)
      local.get 0 i32.declassify))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    v = lockstep_check(tm, "f", [Value(S32, 1)], [Value(S32, 2)])
    assert v.kind == "incomparable"


def test_lockstep_fuel_exhaustion_on_both_sides_agrees():
    src = """(module (func (export "spin") (param s32)
      (loop (br 0))))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    v = lockstep_check(tm, "spin", [Value(S32, 0)], [Value(S32, 5)], fuel=999)
    assert v.ok  # both exhausted at the same step: prefix equivalence


def test_lockstep_initial_distinguishability_is_incomparable():
    src = "(module (memory 1) (func (export \"f\") nop))"
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    v = lockstep_check(tm, "f", [], [], {0: b"a"}, {0: b"b"})
    assert v.kind == "incomparable"  # public memories differ


def test_lockstep_completeness_stepwise_on_tea(typed_corpus):
    # one action per barrier, residual instruction pointers and full state
    # compared at every single step
    entry, tm = typed_corpus["tea"]
    rng = random.Random(8)
    image_b = {0: bytes(rng.getrandbits(8) for _ in range(24))}
    v = lockstep_check(tm, "tea_encrypt", entry.trial.args, entry.trial.args,
                       {0: bytes(24)}, image_b, batch=1,
                       config_check_every=1)
    assert v.ok


def test_randomized_trial_reports():
    src = """(module (memory 1 secret)
      (func (export "f") (param s32) (result s32)
        (s32.add (s32.load (i32.const 0)) (local.get 0))))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    spec = TrialSpec("f", [Value(S32, 0)],
                     [leakage.SecretInput("key", offset=0, length=4),
                      leakage.SecretInput("x", param=0)], {}, None)
    rep = randomized_ct_trial(tm, spec, trials=20, seed=1)
    assert rep.ok and rep.passed == 20
    assert rep.to_json()["ok"] is True
    rep = randomized_ct_trial(tm, spec, trials=5, seed=1, vary=["key"])
    assert rep.ok and rep.varied == ["key"]
    try:
        randomized_ct_trial(tm, spec, trials=1, seed=1, vary=["nope"])
        assert False
    except ValueError:
        pass


def test_every_typed_untrusted_fuzz_function_is_constant_time():
    """Desk-scale check of the headline guarantee: no well-typed untrusted
    function ever produces diverging leakage under secret-varied twins."""
    import fuzzgen

    rng = random.Random(99)
    checked = 0
    for seed in range(120):
        m = text.parse_module(fuzzgen.generate(seed, ct=True))
        tm = validate.validate_module(m, annotate=True)
        sec_mem = m.memory is not None and \
            m.memory.sec is ast.Secrecy.SECRET
        for f in m.funcs:
            if not f.exports or f.type.trust is not ast.Trust.UNTRUSTED:
                continue
            if not any(t.sec is ast.Secrecy.SECRET for t in f.type.params) \
                    and not sec_mem:
                continue
            args_a, args_b = [], []
            for t in f.type.params:
                if t.sec is ast.Secrecy.SECRET:
                    args_a.append(Value(t, 0))
                    args_b.append(Value(t, rng.getrandbits(t.bits)))
                else:
                    v = Value(t, rng.getrandbits(t.bits) if t.is_int else 0)
                    args_a.append(v)
                    args_b.append(v)
            image_a = image_b = None
            if sec_mem:  # secret memories may differ freely between twins
                image_a = {0: bytes(64)}
                image_b = {0: bytes(rng.getrandbits(8) for _ in range(64))}
            v = lockstep_check(tm, f.exports[0], args_a, args_b,
                               image_a, image_b, fuel=200_000)
            assert v.kind != "diverged", (seed, f.exports[0], v)
            if v.ok:
                checked += 1
    assert checked > 80


def test_host_actions_compare_by_projection():
    src = """(module (memory 1 secret)
      (func (import "env" "note") (param s32 i32))
      (func (export "go") (param s32)
        (call 0 (local.get 0) (i32.const 3))))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)

    def imports():
        host = interp.HostFunc(
            "env", "note",
            ast.FuncType(ast.Trust.UNTRUSTED, (S32, I32), ()),
            lambda call: [])
        return {("env", "note"): host}

    v = lockstep_check(tm, "go", [Value(S32, 1)], [Value(S32, 2)],
                       imports_factory=imports)
    assert v.ok, v


# --- pinned lockstep verdicts ----------------------------------------------------

_SECRET_IF = """(module
  (func (export "f") (param s32) (result i32)
    (if (result i32) (local.get 0)
      (then (i32.const 1)) (else (i32.const 0)))))"""

# the loop's exit is a division by the secret counter, so its iteration
# count depends on the secret while every action stays the same
_SECRET_LOOP_COUNT = """(module
  (func (export "f") (param s32)
    (loop
      (local.set 0 (s32.sub (local.get 0) (s32.const 1)))
      (drop (s32.div_u (s32.const 1) (local.get 0)))
      (br 0))))"""

_SECRET_TRAP = """(module
  (func (export "f") (param s32) (result s32)
    (s32.div_u (s32.const 1) (local.get 0))))"""

_SPIN = """(module (func (export "f") (param s32) (loop (br 0))))"""


def test_lockstep_verdicts_are_pinned():
    cases = [
        (_SECRET_IF, 0, 1, None,
         {"verdict": "diverged", "step": 1,
          "action_a": {"step": 0, "action": "branch", "op": "if",
                       "condition": 0},
          "action_b": {"step": 0, "action": "branch", "op": "if",
                       "condition": 1},
          "explanation": "leakage actions differ",
          "location": "func 0 instr 1 (if) at line 3:5"},
         "func 0 instr 1 (if) at line 3:5"),
        (_SECRET_LOOP_COUNT, 3, 5, None,
         {"verdict": "diverged", "step": 28, "action_a": None,
          "action_b": {"step": 0, "action": "op", "op": "drop"},
          "explanation": "one run continues where the other stopped",
          "location": "func 0 instr 8 (drop) at line 5:8"},
         "func 0 instr 8 (drop) at line 5:8"),
        # twin a runs out of fuel on the step where twin b traps
        (_SECRET_TRAP, 1, 0, 3,
         {"verdict": "diverged", "step": 3, "action_a": None,
          "action_b": None,
          "explanation": "termination differs: fuel/None vs "
                         "trap/integer divide by zero"},
         None),
        (_SPIN, 0, 5, 999, {"verdict": "indistinguishable"}, None),
    ]
    for src, a, b, fuel, verdict, location in cases:
        tm = validate.flatten_unchecked(text.parse_module(src))
        v = lockstep_check(tm, "f", [Value(S32, a)], [Value(S32, b)],
                           fuel=fuel, require_untrusted=False)
        assert v.to_json() == verdict, src
        assert v.location == location, src


_COUNT = """(module
  (func $count (result i32) (local i32)
    (loop
      (local.set 0 (i32.add (local.get 0) (i32.const 1)))
      (br_if 0 (i32.lt_u (local.get 0) (i32.const 10000))))
    (local.get 0))
  (func (export "count") (param s32) (result i32)
    (call $count))
  (func (export "count_then_if") (param s32) (result i32)
    (drop (call $count))
    (if (result i32) (local.get 0)
      (then (i32.const 1)) (else (i32.const 0)))))"""


def test_lockstep_memory_does_not_grow_with_run_length():
    """About 90,000 steps in 4096-step batches: each batch is dropped once
    compared, so the peak stays far below what two whole traces take."""
    tm = validate.flatten_unchecked(text.parse_module(_COUNT))
    for export, verdict, location in [
            ("count", {"verdict": "indistinguishable"}, None),
            ("count_then_if",
             {"verdict": "diverged", "step": 90006,
              "action_a": {"step": 0, "action": "branch", "op": "if",
                           "condition": 0},
              "action_b": {"step": 0, "action": "branch", "op": "if",
                           "condition": 1},
              "explanation": "leakage actions differ",
              "location": "func 2 instr 3 (if) at line 11:5"},
             "func 2 instr 3 (if) at line 11:5")]:
        tracemalloc.start()
        try:
            v = lockstep_check(tm, export, [Value(S32, 0)], [Value(S32, 1)],
                               require_untrusted=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.to_json() == verdict and v.location == location, v
        assert peak < 1_000_000, peak


# --- randomized trials against per-trial lockstep checks ----------------------

def _reference_verdicts(tm, spec, trials, seed, **kw):
    """Each trial's ``lockstep_check(zero, trial_t)`` verdict, drawing the
    random assignments from ``random.Random(seed)`` in trial order."""
    def draw(rng):
        args, image = list(spec.args), dict(spec.image)
        for s in spec.secrets:
            if s.param is not None:
                t = args[s.param].type
                args[s.param] = Value(t, rng.getrandbits(t.bits) if rng else 0)
            else:
                image[s.offset] = (
                    bytes(rng.getrandbits(8) for _ in range(s.length))
                    if rng else bytes(s.length))
        return args, image

    rng = random.Random(seed)
    args_zero, image_zero = draw(None)
    return [lockstep_check(tm, spec.export, args_zero, args, image_zero, image,
                           spec.fuel, **kw)
            for args, image in (draw(rng) for _ in range(trials))]


def _assert_trial_matches_reference(tm, spec, trials, seed, **kw):
    verdicts = _reference_verdicts(tm, spec, trials, seed, **kw)
    failed = next((t for t, v in enumerate(verdicts) if not v.ok), None)
    rep = randomized_ct_trial(tm, spec, trials, seed, **kw)
    names = [s.name for s in spec.secrets]
    want = leakage.TrialReport(spec.export, trials, trials, names)
    if failed is not None:
        want = leakage.TrialReport(spec.export, trials, failed, names,
                                   verdicts[failed], failed)
    assert rep.to_json() == want.to_json(), (spec.export, seed, kw)
    assert (rep.failure and rep.failure.location) == \
        (want.failure and want.failure.location), (spec.export, seed, kw)
    return verdicts


# a secret branch on bit 0 early and on bit 1 after 1,000 public loop turns
_TWO_LEAKS = """(module
  (func (export "f") (param s32) (result i32) (local i32)
    (if (s32.and (local.get 0) (s32.const 1)) (then (nop)))
    (loop
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br_if 0 (i32.lt_u (local.get 1) (i32.const 1000))))
    (if (result i32) (s32.and (local.get 0) (s32.const 2))
      (then (i32.const 1)) (else (i32.const 0)))))"""


def test_randomized_trial_equals_per_trial_lockstep_checks(typed_corpus):
    for name, (entry, tm) in sorted(typed_corpus.items()):
        if entry.trial is not None:
            _assert_trial_matches_reference(tm, entry.trial, 3, 5)

    spec = TrialSpec("f", [Value(S32, 0)], [leakage.SecretInput("x", param=0)])
    tm = validate.flatten_unchecked(text.parse_module(_TWO_LEAKS))
    for batch in (7, 4096):
        # seed 7: trials 0 and 1 pass, trial 2 leaks at the early branch
        v = _assert_trial_matches_reference(tm, spec, 6, 7, batch=batch,
                                            require_untrusted=False)
        assert [x.ok for x in v[:3]] == [True, True, False]
        # seed 6: trial 0 leaks only at the late branch, trial 3 earlier
        v = _assert_trial_matches_reference(tm, spec, 6, 6, batch=batch,
                                            require_untrusted=False)
        assert v[3].step < v[0].step > 4096
        for src, fuel in ((_SECRET_IF, None), (_SECRET_LOOP_COUNT, 300),
                          (_SECRET_TRAP, 3), (_SPIN, 999)):
            unchecked = validate.flatten_unchecked(text.parse_module(src))
            fspec = TrialSpec("f", [Value(S32, 0)],
                              [leakage.SecretInput("x", param=0)], fuel=fuel)
            for seed in range(3):
                _assert_trial_matches_reference(unchecked, fspec, 8, seed,
                                                batch=batch,
                                                require_untrusted=False)
        # the untrusted-export precheck fails on trial 0
        _assert_trial_matches_reference(tm, spec, 4, 0, batch=batch)


def test_randomized_trial_with_host_imports_equals_per_trial_checks():
    src = """(module (memory 1 secret)
      (func (import "env" "note") (param s32 i32))
      (func (export "go") (param s32)
        (call 0 (local.get 0) (i32.const 3))))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)

    def imports():
        host = interp.HostFunc(
            "env", "note",
            ast.FuncType(ast.Trust.UNTRUSTED, (S32, I32), ()),
            lambda call: [])
        return {("env", "note"): host}

    spec = TrialSpec("go", [Value(S32, 0)],
                     [leakage.SecretInput("x", param=0),
                      leakage.SecretInput("pad", offset=8, length=16)])
    for seed in range(3):
        _assert_trial_matches_reference(tm, spec, 5, seed,
                                        imports_factory=imports)


@pytest.mark.parametrize("pages, grow", [
    (64, ""),
    # one page at instantiation, grown to the 64-page default limit
    (1, "(drop (memory.grow (i32.const 63)))"),
])
def test_randomized_trial_bounds_the_twins_alive_at_once(pages, grow):
    """Every twin holds a 4 MiB secret memory.  16 trials run in cohorts of
    at most ``COHORT_BYTES`` of twin memory beside one baseline, so the peak
    stays near one cohort plus a baseline, far below 16 live twins."""
    src = f"""(module (memory {pages} secret)
      (func (export "f") (param s32) (result s32)
        {grow}
        (s32.add (s32.load (i32.const 0)) (local.get 0))))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    spec = TrialSpec("f", [Value(S32, 0)],
                     [leakage.SecretInput("key", offset=0, length=4),
                      leakage.SecretInput("x", param=0)])
    size = 64 * 65536
    tracemalloc.start()
    try:
        rep = randomized_ct_trial(tm, spec, trials=16, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.passed == 16, rep.to_json()
    assert peak < leakage.COHORT_BYTES + 2 * size + size // 2, peak
