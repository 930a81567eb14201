import json
import random
import re
import tracemalloc

import fuzzgen
import lockstep_sweep
import pytest
import relgen
from ctwasm import ast, corpus, interp, leakage, text, validate
from ctwasm.ast import I32, I64, S32, Secrecy
from ctwasm.interp import Store, Value
from ctwasm.leakage import (
    TrialSpec, actions_indist, configs_indist, lockstep_check, project_config,
    randomized_ct_trial, values_indist,
)
from test_loops import _LEAK


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


def test_a_fault_in_the_replay_that_locates_a_divergence_propagates(
        monkeypatch):
    src = """(module (memory 1 secret)
      (func (export "leaky") (result i32)
        (if (result i32) (s32.load (i32.const 0))
          (then (i32.const 1)) (else (i32.const 0)))))"""
    bad = validate.flatten_unchecked(text.parse_module(src))
    twins = ([], [], {0: bytes(4)}, {0: (42).to_bytes(4, "little")})
    v = lockstep_check(bad, "leaky", *twins, batch=100,
                       require_untrusted=False)
    assert (v.kind, v.location) == (
        "diverged", "func 0 instr 2 (if) at line 3:9")
    run = interp.run

    def faulty(cfg, max_steps=None, *, to_block_end=False):
        if not cfg.leaks_only:  # only the replay records every action
            raise RuntimeError("fault in the replay")
        run(cfg, max_steps, to_block_end=to_block_end)

    monkeypatch.setattr(interp, "run", faulty)
    with pytest.raises(RuntimeError, match="fault in the replay"):
        lockstep_check(bad, "leaky", *twins, batch=100,
                       require_untrusted=False)


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


@pytest.mark.parametrize("fuel, env", [(0, None), (-1, None), (None, "0")])
def test_a_check_with_no_fuel_to_run_a_step_is_refused(fuel, env,
                                                       monkeypatch):
    """Twins that run no step compare nothing, so neither a check nor a
    trial reports them indistinguishable, whether the fuel is given or
    comes from CTWASM_FUEL."""
    if env is not None:
        monkeypatch.setenv("CTWASM_FUEL", env)
    tm = validate.validate_module(text.parse_module(
        '(module (func (export "g") (param s32) (result s32) (local.get 0)))'))
    given = interp.default_fuel() if fuel is None else fuel
    refused = f"fuel must be at least 1, got {given}"
    with pytest.raises(ValueError, match=refused):
        lockstep_check(tm, "g", [Value(S32, 1)], [Value(S32, 2)], fuel=fuel)
    spec = TrialSpec("g", [Value(S32, 0)], [leakage.SecretInput("0", param=0)],
                     {}, fuel)
    with pytest.raises(ValueError, match=refused):
        randomized_ct_trial(tm, spec, trials=5)
    assert lockstep_check(tm, "g", [Value(S32, 1)], [Value(S32, 2)],
                          fuel=1).ok


def test_lockstep_initial_distinguishability_is_incomparable():
    src = "(module (memory 1) (func (export \"f\") nop))"
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    v = lockstep_check(tm, "f", [], [], {0: b"a"}, {0: b"b"})
    assert v.kind == "incomparable"  # public memories differ


def test_lockstep_completeness_stepwise_on_tea(typed_corpus):
    # records and step counts compared after every single step
    entry, tm = typed_corpus["tea"]
    rng = random.Random(8)
    image_b = {0: bytes(rng.getrandbits(8) for _ in range(24))}
    v = lockstep_check(tm, "tea_encrypt", entry.trial.args, entry.trial.args,
                       {0: bytes(24)}, image_b, batch=1)
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

# the loop's exit is a trap converting the secret counter's bits once they
# read as a NaN (at -1), so its iteration count depends on the secret while
# every action stays the same
_SECRET_LOOP_COUNT = """(module
  (func (export "f") (param s32)
    (loop
      (local.set 0 (s32.sub (local.get 0) (s32.const 1)))
      (drop (i32.trunc_f32_u (f32.reinterpret_s32 (local.get 0))))
      (br 0))))"""

_SECRET_TRAP = """(module
  (func (export "f") (param s32) (result i32)
    (i32.trunc_f32_u (f32.reinterpret_s32 (local.get 0)))))"""

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
         {"verdict": "diverged", "step": 38, "action_a": None,
          "action_b": {"step": 0, "action": "op", "op": "drop"},
          "explanation": "one run continues where the other stopped",
          "location": "func 0 instr 8 (drop) at line 5:8"},
         "func 0 instr 8 (drop) at line 5:8"),
        # twin a runs out of fuel on the step where twin b traps
        (_SECRET_TRAP, 0, 0x7FC00000, 3,
         {"verdict": "diverged", "step": 3, "action_a": None,
          "action_b": None,
          "explanation": "termination differs: fuel/None vs "
                         "trap/invalid conversion to integer"},
         None),
        (_SPIN, 0, 5, 999, {"verdict": "indistinguishable"}, None),
    ]
    for src, a, b, fuel, verdict, location in cases:
        tm = validate.flatten_unchecked(text.parse_module(src))
        v = lockstep_check(tm, "f", [Value(S32, a)], [Value(S32, b)],
                           fuel=fuel, require_untrusted=False)
        assert v.to_json() == verdict, src
        assert v.location == location, src


# the trunc converts the secret's bits after 50 public loop turns: a NaN
# traps there, and only the other twin goes on, to the drop
_NAN_AFTER_A_LOOP = """(module
  (func (export "f") (param s32) (local i32)
    (nop)
    (block
      (loop
        (br_if 1 (i32.eq (local.get 1) (i32.const 50)))
        (local.set 1 (i32.add (local.get 1) (i32.const 1)))
        (br 0)))
    (drop (i32.trunc_f32_s (f32.reinterpret_s32 (local.get 0))))))"""


@pytest.mark.parametrize("batch", [1, 3, 7, 61, 4096])
def test_a_static_op_that_traps_on_one_twin_only_is_pinned(batch):
    """Both twins leak the same actions; only their step counts part."""
    tm = validate.flatten_unchecked(text.parse_module(_NAN_AFTER_A_LOOP))
    drop = {"step": 0, "action": "op", "op": "drop"}
    for a, b, want_a, want_b in ((0, 0x7FC00000, drop, None),
                                 (0x7FC00000, 0, None, drop)):
        v = lockstep_check(tm, "f", [Value(S32, a)], [Value(S32, b)],
                           batch=batch, require_untrusted=False)
        assert v.to_json() == {
            "verdict": "diverged", "step": 510, "action_a": want_a,
            "action_b": want_b,
            "explanation": "one run continues where the other stopped",
            "location": "func 0 instr 17 (drop) at line 9:6"}, (a, batch)


_NOTE_AFTER_A_LOOP = """(module
  (func (import "env" "note") (param s32 i32))
  (func (export "go") (param s32) (local i32)
    (block
      (loop
        (br_if 1 (i32.eq (local.get 1) (i32.const 20)))
        (local.set 1 (i32.add (local.get 1) (i32.const 1)))
        (br 0)))
    (call 0 (local.get 0) (i32.const 3))))"""


@pytest.mark.parametrize("batch", [1, 7, 4096])
@pytest.mark.parametrize("trapping", [0, 1])
def test_a_host_that_traps_in_one_twin_only_is_pinned(batch, trapping):
    """The host decides the trap, so it is a leaked action: the twins part
    at the host call, the first twin (0) or the second (1) trapping."""
    tm = validate.validate_module(text.parse_module(_NOTE_AFTER_A_LOOP),
                                  annotate=True)
    built = iter(range(2))

    def imports():
        traps = next(built) == trapping

        def note(call):
            if traps:
                raise interp.Trap("host refused")
            return []
        return {("env", "note"): interp.HostFunc(
            "env", "note", ast.FuncType(ast.Trust.UNTRUSTED, (S32, I32), ()),
            note)}

    v = lockstep_check(tm, "go", [Value(S32, 1)], [Value(S32, 2)],
                       batch=batch, imports_factory=imports)
    assert (v.kind, v.step, v.explanation, v.location) == (
        "diverged", 209, "leakage actions differ", None)
    actions = [v.action_a, v.action_b]
    assert actions.pop(trapping) == interp.HOST_TRAP
    assert actions[0][:2] == ("host", ("env", "note"))


def _whole_trace(tm, export, twin, fuel):
    cfg = leakage._twin_config(tm, export, *twin, fuel)
    cfg.leaks_only = False
    interp.run(cfg)
    return cfg.trace


def test_a_divergence_is_the_first_difference_of_the_whole_traces(
        corpus_root, typed_corpus):
    """The twins record only leaked actions; the step and actions a verdict
    names are still those where the two whole traces first part."""
    seen = 0
    for name, tm, export, twin_a, twin_b, fuel in _divergence_cases(
            corpus_root, typed_corpus):
        fuel = interp.default_fuel() if fuel is None else fuel
        for batch in (1, 61, 4096):
            v = lockstep_check(tm, export, twin_a[0], twin_b[0], twin_a[1],
                               twin_b[1], fuel, batch,
                               require_untrusted=False)
            if v.kind != "diverged" or v.action_a is v.action_b is None:
                continue
            ta = _whole_trace(tm, export, twin_a, fuel)
            tb = _whole_trace(tm, export, twin_b, fuel)
            k = next((k for k, (x, y) in enumerate(zip(ta, tb)) if x != y),
                     min(len(ta), len(tb)))
            want = (k, ta[k] if k < len(ta) else None,
                    tb[k] if k < len(tb) else None)
            assert (v.step, v.action_a, v.action_b) == want, (name, batch)
            seen += 1
    assert seen > 120, seen


# --- witnesses: what a secrecy rule rejects leaks when run unchecked --------

@pytest.mark.parametrize("a, b", [(0, 1), (3, 65_536), (5, 2**31 - 1)])
def test_a_rejected_secret_division_leaks_its_operands(corpus_root, a, b):
    entry = corpus.load_entry(corpus_root / "neg-secret-div")
    assert entry.expect["error"] == "UnsafeOpOnSecret"
    tm = validate.flatten_unchecked(entry.module)
    v = lockstep_check(tm, "f", [Value(S32, a)] * 2, [Value(S32, b)] * 2,
                       require_untrusted=False)
    got = v.to_json()
    assert (got["verdict"], got["step"]) == ("diverged", 2)
    assert got["action_a"]["action"] == got["action_b"]["action"] \
        == "unsafe-binop"
    assert v.location.endswith("at line 3:6")


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
    """About 90,000 steps in batches of the default size: each batch is
    dropped once compared, so the peak stays far below what two whole
    traces take."""
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


def test_image_region_past_the_end_of_memory_is_incomparable():
    src = """(module (memory 1 secret)
      (func (export "f") (result s32) (s32.load (i32.const 0))))"""
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    spec = TrialSpec("f", [], [leakage.SecretInput("m", offset=70000,
                                                   length=8)], {}, None)
    rep = randomized_ct_trial(tm, spec, trials=2, seed=0)
    assert not rep.ok and rep.failed_trial == 0
    assert rep.to_json()["failure"] == {
        "verdict": "incomparable",
        "reason": "memory image region at offset 70000 (8 bytes) runs past "
                  "the 65536-byte memory"}
    v = lockstep_check(tm, "f", [], [], image_b={65530: bytes(64)})
    assert v.kind == "incomparable" and "offset 65530" in v.explanation


@pytest.mark.parametrize("batch", [0, -1])
def test_lockstep_rejects_a_batch_below_one(batch):
    """A batch of 0 steps never ends."""
    tm = validate.validate_module(text.parse_module(_SPIN), annotate=True)
    with pytest.raises(ValueError, match="batch"):
        lockstep_check(tm, "f", [Value(S32, 0)], [Value(S32, 5)],
                       fuel=10_000, batch=batch)


@pytest.mark.parametrize("kw,name", [
    ({"trials": -3}, "trials"), ({"trials": 0}, "trials"),
    ({"batch": 0}, "batch")])
def test_randomized_trial_rejects_no_trials_or_an_empty_batch(kw, name):
    """-3 trials reported ``ok`` with ``passed`` -3, and 0 trials ``ok``
    with nothing checked; the CLI asks for a positive count too."""
    tm = validate.validate_module(text.parse_module(_SPIN), annotate=True)
    spec = TrialSpec("f", [Value(S32, 0)],
                     [leakage.SecretInput("x", param=0)], {}, 10_000)
    with pytest.raises(ValueError, match=name):
        randomized_ct_trial(tm, spec, **kw)


# --- locating a divergence from the batch it is in ----------------------------

def _located_from_the_start(tm, export, v, twin_a, twin_b, fuel):
    """The instruction at step ``v.step`` of the twin that continues (b
    when a has stopped), replayed from its first step: the location found
    before batches kept a copy of their start."""
    args, image = twin_b if v.action_a is None else twin_a
    cfg = leakage._twin_config(tm, export, args, image, fuel)
    interp.run(cfg, max_steps=v.step)
    fr = cfg.frames[-1] if cfg.frames else None
    if not isinstance(fr, interp.Frame):
        return None
    origin = fr.ff.origins[fr.pc]
    loc = f"func {fr.ff.index} instr {fr.pc} ({ast.mnemonic(origin)})"
    if origin.span is not None:
        loc += f" at line {origin.span.line}:{origin.span.col}"
    return loc


def _secret_params(src: str) -> str:
    """A plain module whose integer parameters are all secret: unchecked,
    its branches and addresses read them."""
    return re.sub(r"\(param i(32|64)\)", r"(param s\1)", src)


def _divergence_cases(corpus_root, typed_corpus):
    """(name, module, export, twin a, twin b, fuel): twins that diverge, or
    may, each twin an (args, image) pair."""
    for name, src, a, b in (("if", _SECRET_IF, 0, 1),
                            ("loop", _SECRET_LOOP_COUNT, 3, 5),
                            ("early", _TWO_LEAKS, 0, 1),
                            ("late", _TWO_LEAKS, 0, 2)):
        tm = validate.flatten_unchecked(text.parse_module(src))
        twin_a, twin_b = ([Value(S32, a)], None), ([Value(S32, b)], None)
        yield name, tm, "f", twin_a, twin_b, None
    spec = typed_corpus["tea"][0].trial
    src = (corpus_root / "tea" / "impl.cwat").read_text()
    leaky = validate.flatten_unchecked(text.parse_module(
        src.replace(_LEAK.split("\n")[0], _LEAK, 1)))
    yield ("tea", leaky, spec.export,
           leakage._assignment(spec, spec.secrets, None),
           leakage._assignment(spec, spec.secrets, random.Random(5)),
           spec.fuel)
    rng = random.Random(23)
    for seed in range(200):
        tm = validate.flatten_unchecked(text.parse_module(
            _secret_params(fuzzgen.generate(seed))))
        for f in tm.module.funcs:
            if not f.exports:
                continue
            args_a, args_b = [], []
            for t in f.type.params:
                bits = rng.getrandbits(t.bits) if t.is_int else 0
                args_a.append(Value(t, 0 if t.sec is Secrecy.SECRET else bits))
                args_b.append(Value(t, bits))
            yield seed, tm, f.exports[0], (args_a, None), (args_b, None), 100


def test_the_batch_replay_names_what_a_replay_from_the_start_names(
        corpus_root, typed_corpus):
    located = {"a": 0, "b": 0}
    for name, tm, export, twin_a, twin_b, fuel in _divergence_cases(
            corpus_root, typed_corpus):
        for batch in (1, 7, 61, 4096):
            v = lockstep_check(tm, export, twin_a[0], twin_b[0], twin_a[1],
                               twin_b[1], fuel, batch,
                               require_untrusted=False)
            if name == "loop" and batch == 7:
                # the divergence lies in batch 6, and twin b, which runs on
                # where a has stopped, is the one replayed
                assert (v.step, v.action_a) == (38, None), v
                assert v.location == "func 0 instr 8 (drop) at line 5:8"
            if v.kind != "diverged" or v.action_a is v.action_b is None:
                continue  # a state check, which names no instruction
            want = _located_from_the_start(
                tm, export, v, twin_a, twin_b,
                interp.default_fuel() if fuel is None else fuel)
            assert v.location == want, (name, export, batch, v)
            located["b" if v.action_a is None else "a"] += 1
    assert located["a"] > 150 and located["b"] >= 4, located


def test_the_replay_that_locates_a_divergence_runs_at_most_one_batch(
        monkeypatch):
    """Secrets 0 and 2 part at the late branch, after 1,000 loop turns.
    No run asks for more than a batch.  The replay, which records every
    action, runs one compiled function at a time from the start of the
    divergent batch, and stops in the one that holds the divergence."""
    tm = validate.flatten_unchecked(text.parse_module(_TWO_LEAKS))
    asked, replayed = [], []
    run = interp.run

    def recording(cfg, max_steps=None, *, to_block_end=False):
        fuel = cfg.fuel
        run(cfg, max_steps, to_block_end=to_block_end)
        if cfg.leaks_only:
            asked.append(max_steps)
        else:
            replayed.append((max_steps, to_block_end, fuel, fuel - cfg.fuel))

    monkeypatch.setattr(interp, "run", recording)
    v = lockstep_check(tm, "f", [Value(S32, 0)], [Value(S32, 2)], batch=61,
                       require_untrusted=False)
    assert (v.kind, v.step, v.location) == (
        "diverged", 9008, "func 0 instr 19 (if) at line 7:5")
    # a batch ends at the first block end at or past 61 steps, so it is
    # at most 61 plus the longest compiled function (11 ops) minus 1
    longest = max(tm.flat(0).compiled.lens)
    assert max(asked) == 67 <= 61 + longest - 1, asked
    assert {r[:2] for r in replayed} == {(1, True)}, replayed
    first = interp.default_fuel() - replayed[0][2]  # the batch's first step
    last = first + sum(r[3] for r in replayed)
    assert last - replayed[-1][3] <= v.step < last <= first + 67, replayed


def test_lockstep_batches_end_on_block_ends(corpus_root, monkeypatch):
    """A trial of SHA-256 on a 4 KiB message, with batches of 4,096 steps.
    A batch ends at a block end, so no block is cut into one-op functions:
    the only one-op function that runs is at a loop op, where a twin
    enters the last, partial turn of a loop with fewer steps left than a
    whole turn, and runs the loop's blocks from there.  From a cold cache
    the trial compiles at most 4 functions more than a plain run."""
    src = (corpus_root / "sha256" / "impl.cwat").read_text()
    msg_off, msg_len, digest_off = 0x8000, 4096, 2048
    args = [Value(I32, msg_off), Value(I32, msg_len), Value(I32, digest_off)]
    compiled = []
    compile_ = interp._Code.compile

    def recording(code, ff, pc, n):
        compiled.append((n, code.lens[pc], code.iters[pc]))
        return compile_(code, ff, pc, n)

    monkeypatch.setattr(interp._Code, "compile", recording)
    counts = []
    for trial in (False, True):
        interp._code_of.cache_clear()
        compiled.clear()
        tm = validate.validate_module(text.parse_module(src), annotate=True)
        if trial:
            spec = TrialSpec("hash", args, [leakage.SecretInput(
                "message", offset=msg_off, length=msg_len)])
            assert randomized_ct_trial(tm, spec, trials=1, seed=1,
                                       batch=4096).ok
        else:
            store, idx = interp.instantiate(Store(), tm)
            interp.write_image(store, idx, {msg_off: bytes(msg_len)})
            out = interp.invoke(store, idx, "hash", args, trace=None)
            assert out.status == "done"
        counts.append(len(compiled))
    singles = [(m, it) for n, m, it in compiled if n == 1 and m > 1]
    assert all(it for m, it in singles), singles
    assert counts[0] < counts[1] <= counts[0] + 4, counts


# --- verdicts are a function of the run, not of the batch ---------------------

def test_verdicts_do_not_depend_on_the_batch():
    """A part of ``lockstep_sweep``'s seeded sweep of unchecked fuzz
    modules: every case gives one verdict (kind, step, actions,
    explanation and location) at every batch.  Seeds 39 and 60 copy a
    secret into a public local, and gave "intermediate states are
    distinguishable" at some batches only, when states were compared
    between batches."""
    seen = set()
    for case in lockstep_sweep.cases((*range(20), 39, 60)):
        for fuel in lockstep_sweep.FUELS:
            verdicts = {json.dumps(lockstep_sweep.verdict(case, fuel, batch),
                                   sort_keys=True)
                        for batch in (1, 7, 61, 4096, leakage.BATCH)}
            assert len(verdicts) == 1, (case[0], fuel, verdicts)
            seen.add(json.loads(verdicts.pop()).get("explanation"))
    assert {"leakage actions differ", "final states are distinguishable",
            None} <= seen, seen


@pytest.mark.parametrize("seed", [0, 1, 5, 26001])
def test_secret_bytes_are_drawn_as_one_byte_per_getrandbits(seed):
    """``_assignment`` draws a secret region's bytes one ``getrandbits(8)``
    at a time, as the ct-sha256-long benchmark's ``_trial_message`` does,
    whatever the expression that draws them."""
    for length in (0, 1, 7, 64, 4096):
        spec = TrialSpec("f", [Value(S32, 0)], [
            leakage.SecretInput("x", param=0),
            leakage.SecretInput("m", offset=16, length=length)])
        rng = random.Random(seed)
        args, image = leakage._assignment(spec, spec.secrets, rng)
        want = random.Random(seed)
        assert args == [Value(S32, want.getrandbits(32))]
        assert image == {16: bytes(want.getrandbits(8)
                                   for _ in range(length))}, length
        assert rng.getstate() == want.getstate()
