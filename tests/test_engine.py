"""Invariants of the interpreter's execution engine.

Fuel, step budgets and single steps must cut a run at exactly the same
instruction, whatever unit the engine executes at a time: a run with
fuel k records the first k actions of the full run, ``run`` with
``max_steps`` k leaves the state that k single steps leave, and a trap
in the middle of a straight-line run charges exactly the steps up to and
including the trapping instruction.
"""

import random
import re

import pytest

import fuzzgen
import stepping
from ctwasm import ast, flat, interp, leakage, text, validate
from ctwasm.ast import F32, I32
from ctwasm.interp import Frame, Store, Value

FUEL = 20_000
FUZZ_SEEDS = range(40)


def _instance(tm, image):
    store, idx = interp.instantiate(Store(), tm)
    if image:
        data = store.mems[store.insts[idx].mem_addr].data
        for off, chunk in image.items():
            data[off:off + len(chunk)] = chunk
    return store, idx


def _start(tm, export, args, image, fuel=FUEL):
    store, idx = _instance(tm, image)
    return interp.make_config(store, idx, export, args, fuel)


def _invoke(case):
    _, tm, export, args, image = case
    cfg = _start(tm, export, args, image)
    interp.run(cfg)
    return cfg, FUEL - cfg.fuel


def _fuel_cut(case, k):
    _, tm, export, args, image = case
    store, idx = _instance(tm, image)
    return interp.invoke(store, idx, export, args, fuel=k)


def _frames(cfg):
    """Every frame's exact state, secret payloads included."""
    return [(f.ff.index, f.pc, list(f.stack), list(f.locals), list(f.labels))
            if isinstance(f, Frame) else ("host", f.cl.key)
            for f in cfg.frames]


def _final(cfg):
    store = cfg.store
    return (cfg.status, cfg.trap_kind, list(cfg.results),
            [bytes(m.data) for m in store.mems],
            [g.bits for g in store.globals])


def _fuzz_args(rng, params):
    return [Value(t, rng.getrandbits(t.bits)) for t in params]


# ops that neither the corpus nor the fuzz seeds run: br_table to each
# target and past them, return from nested blocks with a value, local.tee,
# memory.size, every reinterpret, declassify, memory.grow and unreachable
_RARE_OPS = """(module (memory 3)
  (func (export "pick") (param i32) (result i32) (local i32)
    block
      block
        block
          local.get 0
          br_table 0 1 2
        end
        i32.const 10
        local.tee 1
        return
      end
      local.get 1
      i32.eqz
      return
    end
    memory.size)
  (func (export "bits") (param f32 f64) (result i64)
    local.get 0 i32.reinterpret_f32 f32.reinterpret_i32 i32.reinterpret_f32
    i64.extend_i32_u
    local.get 1 i64.reinterpret_f64 f64.reinterpret_i64 i64.reinterpret_f64
    i64.xor)
  (func (export "grow") trusted (param s32) (result i32)
    local.get 0
    i32.declassify/s32
    memory.grow
    i32.const -1
    i32.eq
    if
      unreachable
    end
    memory.size))"""
_PICKS = (0, 1, 2, 5, 0xFFFFFFFF)
_BITS_ARGS = [Value(F32, 0x3F800000), Value(ast.F64, 0xC000000000000000)]


def _rare_cases():
    tm = validate.validate_module(text.parse_module(_RARE_OPS), annotate=True)
    return [*((f"rare/pick {k}", tm, "pick", [Value(I32, k)], None)
              for k in _PICKS),
            ("rare/bits", tm, "bits", _BITS_ARGS, None),
            *((f"rare/grow {k}", tm, "grow", [Value(ast.S32, k)], None)
              for k in (1, 100))]


@pytest.fixture(scope="module")
def cases(typed_corpus):
    """(name, typed module, export, args, memory image) for every corpus
    vector, the hand-written module of rare ops and every exported function
    of the fuzz seeds."""
    out = []
    for name, (entry, tm) in sorted(typed_corpus.items()):
        for vec in entry.vectors:
            out.append((f"{name}/{vec.name}", tm, vec.invoke, vec.args,
                        vec.memory_in))
    out += _rare_cases()
    rng = random.Random(5)
    for seed in FUZZ_SEEDS:
        m = text.parse_module(fuzzgen.generate(seed, ct=seed % 2 == 0))
        tm = validate.validate_module(m, annotate=True)
        for f in m.funcs:
            for export in f.exports:
                out.append((f"seed {seed}/{export}", tm, export,
                            _fuzz_args(rng, f.type.params), None))
    return out


def _cuts(steps):
    return sorted({k for k in (0, 1, 2, 3, 5, 8, steps // 3, steps // 2,
                               steps - 2, steps - 1, steps) if 0 <= k <= steps})


def test_fuel_cut_gives_a_prefix_of_the_full_trace(cases):
    for case in cases:
        full, steps = _invoke(case)
        assert len(full.trace) == steps, case[0]
        for k in _cuts(steps):
            cut = _fuel_cut(case, k)
            assert cut.steps == k, (case[0], k)
            assert cut.trace == full.trace[:k], (case[0], k)
            assert cut.status == (full.status if k == steps else "fuel"), \
                (case[0], k)


def _assert_leaks_only_records_the_leaks(name, start, steps, most=FUEL,
                                         cuts=_cuts):
    """A run that records only leaks, from ``start(fuel)``, takes as many
    steps to the same state as a full run, at every fuel and step-budget
    cut of ``cuts(steps)`` of a run of ``steps`` with fuel ``most``, and
    records the ``leak_record`` of each data-dependent action of the full
    trace, from which the action is rebuilt."""
    for k in cuts(steps):
        for fuel, max_steps in ((k, None), (most, k)):
            leaky = start(fuel)
            leaky.leaks_only = True
            interp.run(leaky, max_steps)
            whole = start(fuel)
            interp.run(whole, max_steps)
            assert fuel - leaky.fuel == fuel - whole.fuel == k, (name, k)
            leaked = [a for a in whole.trace if interp.leaks(a)]
            assert leaky.trace == [interp.leak_record(a) for a in leaked], \
                (name, k)
            assert all(leakage._with_record(a, interp.leak_record(a)) == a
                       for a in leaked), (name, k)
            assert _frames(leaky) == _frames(whole), (name, k)
            assert _final(leaky) == _final(whole), (name, k)


def test_a_leaks_only_run_records_the_full_trace_filtered_to_leaks(cases):
    for case in cases:
        name, tm, export, args, image = case
        _, steps = _invoke(case)
        _assert_leaks_only_records_the_leaks(
            name, lambda fuel: _start(tm, export, args, image, fuel), steps)
        out = interp.invoke(*_instance(tm, image), export, args, FUEL,
                            trace=None)
        assert out.steps == steps, name


def test_leak_records_of_every_fuzz_seed_are_its_leaks():
    """The same on every export of ``fuzzgen.generate`` and
    ``fuzzgen.counted_loops``, seeds 0-299, plain and with secrets:
    public and secret memory, ``memory.grow``, div and rem.  Fuel 1,000
    cuts the deep recursions short, and each run is cut once, halfway."""
    rng, fuel = random.Random(11), 1000
    kinds = set()
    for gen in (fuzzgen.generate, fuzzgen.counted_loops):
        for seed in range(300):
            for ct in (False, True):
                m = text.parse_module(gen(seed, ct=ct))
                tm = validate.validate_module(m, annotate=True)
                for f in m.funcs:
                    for export in f.exports:
                        args = _fuzz_args(rng, f.type.params)
                        whole = _start(tm, export, args, None, fuel)
                        interp.run(whole)
                        kinds.update(a[0] for a in whole.trace
                                     if interp.leaks(a))
                        _assert_leaks_only_records_the_leaks(
                            (gen.__name__, seed, ct, export),
                            lambda f: _start(tm, export, args, None, f),
                            fuel - whole.fuel, fuel, lambda n: (n // 2, n))
    assert {"branch", "mem", "grow", "unsafe-binop"} <= kinds, kinds


# a host call in each turn of a loop, which traps when its argument is 7
_HOST_LOOP = """(module (memory 1)
  (func (import "env" "next") (param i32) (result i32))
  (func (export "f") (param i32) (result i32) (local i32)
    (loop
      (local.set 1 (i32.add (local.get 1) (call 0 (local.get 1))))
      (i32.store (local.get 1) (local.get 1))
      (br_if 0 (i32.lt_u (local.get 1) (local.get 0))))
    (local.get 1)))"""


@pytest.mark.parametrize("limit, status", [(3, "done"), (10, "trap")])
def test_host_calls_and_traps_record_themselves(limit, status):
    tm = validate.validate_module(text.parse_module(_HOST_LOOP),
                                  annotate=True)

    def step(call):
        if call.args[0].bits == 7:
            raise interp.Trap("host refused")
        return call.args[0].bits + 1

    def start(fuel):
        host = interp.HostFunc("env", "next", ast.FuncType(
            ast.Trust.UNTRUSTED, (I32,), (I32,)), step)
        store, idx = interp.instantiate(Store(), tm, {("env", "next"): host})
        return interp.make_config(store, idx, "f", [Value(I32, limit)], fuel)

    whole = start(FUEL)
    interp.run(whole)
    assert whole.status == status
    assert interp.HOST_TRAP in whole.trace or status == "done"
    _assert_leaks_only_records_the_leaks(limit, start, FUEL - whole.fuel)


def test_single_steps_and_batches_match_one_run(cases):
    for case in cases:
        _, tm, export, args, image = case
        whole, _ = _invoke(case)
        stepped = _start(tm, export, args, image)
        while interp.step(stepped) is not None:
            pass
        batched = _start(tm, export, args, image)
        while not batched.terminal:
            interp.run(batched, max_steps=37)
        for other in (stepped, batched):
            assert other.trace == whole.trace, case[0]
            assert other.fuel == whole.fuel, case[0]
            assert _final(other) == _final(whole), case[0]
            assert leakage.project_config(other) == \
                leakage.project_config(whole), case[0]


def test_step_budget_stops_where_single_steps_stop(cases):
    rng = random.Random(11)
    for case in cases:
        _, tm, export, args, image = case
        _, steps = _invoke(case)
        stepped = _start(tm, export, args, image)
        taken = 0
        for k in sorted(rng.sample(range(steps + 1), min(steps + 1, 4))):
            ran = _start(tm, export, args, image)
            interp.run(ran, max_steps=k)
            for _ in range(k - taken):
                interp.step(stepped)
            taken = k
            assert ran.frame_pointers() == stepped.frame_pointers(), \
                (case[0], k)
            assert leakage.project_config(ran) == \
                leakage.project_config(stepped), (case[0], k)
            assert _frames(ran) == _frames(stepped), (case[0], k)
            assert ran.trace == stepped.trace, (case[0], k)


_BLOCKS = [("op", "block")] * 3 + [("op", "local.get")]


def test_rare_ops_give_pinned_results_and_traces():
    outs = [interp.invoke(*_instance(tm, None), export, args, fuel=FUEL)
            for _, tm, export, args, _ in _rare_cases()]
    assert [(o.status, o.trap_kind, [v.bits for v in o.results], o.steps)
            for o in outs] == [
        *(("done", None, [r], n) for r, n in ((10, 8), (1, 8), (3, 7),
                                               (3, 7), (3, 7))),
        ("done", None, [0xC00000003F800000], 11),
        ("done", None, [4], 8), ("trap", "unreachable", [], 7)]
    picks = [o.trace for o in outs[:5]]
    assert picks[0] == _BLOCKS + [("branch", "br_table", 0),
                                  ("op", "i32.const"), ("op", "local.tee"),
                                  ("op", "return")]
    assert picks[1] == _BLOCKS + [("branch", "br_table", 1),
                                  ("op", "local.get"), ("op", "i32.eqz"),
                                  ("op", "return")]
    for k, trace in zip(_PICKS[2:], picks[2:]):  # 2 and past it: the default
        assert trace == _BLOCKS + [("branch", "br_table", k),
                                   ("op", "memory.size"), ("op", "end")]
    assert outs[5].trace == [("op", name) for name in (
        "local.get", "i32.reinterpret_f32", "f32.reinterpret_i32",
        "i32.reinterpret_f32", "i64.extend_i32_u", "local.get",
        "i64.reinterpret_f64", "f64.reinterpret_i64", "i64.reinterpret_f64",
        "i64.xor", "end")]
    grow = [("op", "local.get"), ("op", "i32.declassify/s32")]
    assert outs[6].trace == grow + [
        ("grow", 3, 1, 3), ("op", "i32.const"), ("op", "i32.eq"),
        ("branch", "if", 0), ("op", "memory.size"), ("op", "end")]
    assert outs[7].trace == grow + [
        ("grow", 3, 100, 0xFFFFFFFF), ("op", "i32.const"), ("op", "i32.eq"),
        ("branch", "if", 1), ("op", "unreachable")]


def test_the_cases_run_every_op_the_compiler_has_a_template_for(cases):
    ran = set()
    for _, tm, export, args, image in cases:
        for site in _step_sites(_start(tm, export, args, image)):
            if site is not None:
                ran.add(tm.flat(site[0]).code[site[1]][0])
    names = {tag: name for name, tag in vars(flat).items()
             if name.startswith("T_")}
    assert sorted(names[t] for t in interp._TEMPLATES.keys() - ran) == []


def _step_sites(cfg):
    """(func, pc) of every step of a run, taken one step at a time."""
    sites = []
    while not cfg.terminal:
        f = cfg.frames[-1]
        sites.append((f.ff.index, f.pc) if isinstance(f, Frame) else None)
        interp.step(cfg)
    return sites


def _longest_straight_run(sites):
    """[i, j) of the longest run of steps at consecutive pcs of one frame."""
    best = (0, 0)
    i = 0
    for j in range(1, len(sites) + 1):
        if j == len(sites) or sites[j] is None or sites[j - 1] is None or \
                sites[j] != (sites[j - 1][0], sites[j - 1][1] + 1):
            if j - i > best[1] - best[0]:
                best = (i, j)
            i = j
    return best


def test_every_cut_inside_a_long_sha256_block(typed_corpus):
    entry, tm = typed_corpus["sha256"]
    vec = entry.vectors[0]
    case = ("sha256", tm, vec.invoke, vec.args, vec.memory_in)
    i, j = _longest_straight_run(
        _step_sites(_start(tm, vec.invoke, vec.args, vec.memory_in)))
    assert j - i >= 100
    full, steps = _invoke(case)
    stepped = _start(tm, vec.invoke, vec.args, vec.memory_in)
    for _ in range(i):
        interp.step(stepped)
    for k in range(i, j + 1):
        cut = _fuel_cut(case, k)
        assert cut.steps == k, k
        assert cut.status == (full.status if k == steps else "fuel"), k
        assert cut.trace == full.trace[:k], k
        ran = _start(tm, vec.invoke, vec.args, vec.memory_in)
        interp.run(ran, max_steps=k)
        assert ran.frame_pointers() == stepped.frame_pointers(), k
        assert leakage.project_config(ran) == \
            leakage.project_config(stepped), k
        assert _frames(ran) == _frames(stepped), k
        interp.step(stepped)


# each body traps after a prelude of five instructions, with more of the
# same straight-line run after the trapping one
_PRELUDE = "i32.const 1 i32.const 2 i32.add drop local.get 0"
_TRAPS = {
    "load": ("(memory 1)", "i32", "i32.load offset=4 drop",
             Value(I32, 65533), "out of bounds memory access",
             ("mem", "load", 65537, 4, None)),
    "store": ("(memory 1)", "i32", "i32.const 9 i32.store offset=2",
              Value(I32, 65534), "out of bounds memory access",
              ("mem", "store", 65536, 4, None)),
    "div_u": ("", "i32", "i32.const 7 local.get 0 i32.div_u drop drop",
              Value(I32, 0), "integer divide by zero",
              ("unsafe-binop", "div_u", 7, 0)),
    "trunc": ("", "f32", "i32.trunc_f32_s drop",
              Value(F32, 0x7F800000), "integer overflow",
              ("op", "i32.trunc_f32_s")),
}
_TRAP_STEPS = {"load": 6, "store": 7, "div_u": 8, "trunc": 6}


@pytest.mark.parametrize("name", sorted(_TRAPS))
def test_trap_in_the_middle_of_a_block_charges_exact_steps(name):
    mem, ptype, body, arg, kind, last = _TRAPS[name]
    src = (f'(module {mem} (func (export "f") (param {ptype}) (local i32)'
           f" {_PRELUDE} {body} i32.const 3 local.set 1 i32.const 4"
           " local.set 1 nop))")
    tm = validate.validate_module(text.parse_module(src), annotate=True)
    for run in (interp.run, stepping.run):
        cfg = _start(tm, "f", [arg], None, fuel=100)
        run(cfg)
        assert (cfg.status, cfg.trap_kind) == ("trap", kind)
        assert 100 - cfg.fuel == _TRAP_STEPS[name]
        assert len(cfg.trace) == _TRAP_STEPS[name]
        assert cfg.trace[-1] == last
        assert cfg.trace[:4] == [("op", "i32.const"), ("op", "i32.const"),
                                 ("op", "i32.add"), ("op", "drop")]
        assert cfg.frames == []


def _debug_module():
    src = """(module (func (export "f") (param i64) (result i64) (local i32)
      i32.const 1 local.set 1 local.get 0 i64.const 2 i64.add
      i64.const 3 i64.mul i64.const 4 i64.xor local.get 1 drop))"""
    return validate.validate_module(text.parse_module(src), annotate=True)


@pytest.mark.parametrize("corrupt", ["depth", "width"])
def test_debug_mode_checks_a_pc_in_the_middle_of_a_block(corrupt):
    tm = _debug_module()
    cfg = _start(tm, "f", [Value(ast.I64, 1 << 40)], None)
    stepping.run(cfg)
    assert cfg.status == "done"
    tm = _debug_module()
    ff = tm.flat(0)
    pc = 6  # i64.mul, with (i64, i64) on the stack
    assert ff.stack_types[pc] == (ast.I64, ast.I64)
    types = list(ff.stack_types)  # the record itself is read-only
    types[pc] = (ast.I64,) if corrupt == "depth" else (I32, ast.I64)
    ff.stack_types = types
    cfg = _start(tm, "f", [Value(ast.I64, 1 << 40)], None)
    with pytest.raises(AssertionError, match=f"pc {pc}"):
        stepping.run(cfg)
    assert len(cfg.trace) == pc
    plain = _start(tm, "f", [Value(ast.I64, 1 << 40)], None)
    interp.run(plain)
    assert plain.status == "done"


def test_a_run_to_a_block_end_stops_at_the_first_one_past_the_budget(cases):
    """With ``to_block_end`` no compiled function is cut by the budget, so
    a run stops at most the longest compiled function less one step past
    it, in the state that as many single steps leave; fuel still cuts
    exactly."""
    rng = random.Random(13)
    for case in cases:
        name, tm, export, args, image = case
        _, steps = _invoke(case)
        longest = max(max(ff.compiled.lens) for ff in tm.funcs
                      if ff is not None and ff.compiled is not None)
        for k in sorted(rng.sample(range(1, steps + 1), min(steps, 3))):
            ran = _start(tm, export, args, image)
            interp.run(ran, max_steps=k, to_block_end=True)
            taken = FUEL - ran.fuel
            assert k <= taken <= k + longest - 1 or ran.terminal, (name, k)
            exact = _start(tm, export, args, image)
            interp.run(exact, max_steps=taken)
            assert _frames(ran) == _frames(exact), (name, k)
            assert ran.trace == exact.trace, (name, k)
            assert _final(ran) == _final(exact), (name, k)
            short = _start(tm, export, args, image, fuel=k)
            interp.run(short, max_steps=1, to_block_end=True)
            interp.run(short, max_steps=steps, to_block_end=True)
            assert short.trace == exact.trace[:k], (name, k)
            assert short.status == ("fuel" if k < steps else exact.status)


# -- Wasm locals held in Python locals, and pure expressions computed once

_LOCALS = """(module (memory 1 4) (global (mut i32) (i32.const 4))
  (func (export "tee") (param i32) (result i32)
    (i32.sub (local.get 0) (local.tee 0 (i32.const 5))))
  (func (export "set") (param i32) (result i32)
    local.get 0
    (local.set 0 (i32.const 5))
    local.get 0
    i32.sub)
  (func (export "turns") (param i32) (result i32) (local i32 i32)
    (block $out
      (loop $turn
        (local.set 2 (i32.add (local.get 2) (i32.const 10)))
        (br_if $out (i32.ge_u (local.get 1) (local.get 0)))
        (local.set 1 (i32.add (local.get 1) (i32.const 1)))
        (br $turn)))
    (i32.add (i32.mul (local.get 1) (i32.const 1000)) (local.get 2)))
  (func (export "again") (param i32) (result i32)
    (i32.add (local.get 0) (i32.const 1))
    (local.set 0 (i32.add (local.get 0) (i32.const 1)))
    local.get 0
    i32.add)
  (func (export "local") (param i32) (result i32)
    (i32.add (local.get 0) (i32.const 1))
    (local.set 0 (i32.const 7))
    (i32.add (local.get 0) (i32.const 1))
    i32.sub)
  (func (export "size") (result i32)
    memory.size
    (drop (memory.grow (i32.const 1)))
    memory.size
    i32.sub)
  (func (export "global") (result i32)
    global.get 0
    (global.set 0 (i32.const 9))
    global.get 0
    i32.sub))"""
_M32 = 0xFFFFFFFF


@pytest.mark.parametrize("export, arg, result", [
    # the old value of the local is still on the operand stack when the
    # local is assigned
    ("tee", 12, 7), ("set", 12, 7),
    # leaves by the br_if after three turns, above the local.set of its
    # counter: the exit writes back the counter an earlier turn assigned
    ("turns", 3, 3040), ("turns", 0, 10),
    # the local is assigned a value whose temp, reused, is still on the
    # operand stack: the temp is kept
    ("again", 5, 12),
    # an expression repeated after a local it reads, the memory's size or
    # a global changed is computed anew
    ("local", 2, (3 - 8) & _M32), ("size", None, (1 - 2) & _M32),
    ("global", None, (4 - 9) & _M32),
])
def test_locals_and_reused_expressions_keep_each_value(export, arg, result):
    """Whole runs give the pinned result, and every fuel and step-budget
    cut leaves the state the stepping oracle leaves, which runs one op at
    a time."""
    tm = validate.validate_module(text.parse_module(_LOCALS), annotate=True)
    args = [] if arg is None else [Value(I32, arg)]
    whole = _start(tm, export, args, None)
    interp.run(whole)
    assert (whole.status, whole.results) == ("done", [result])
    steps = FUEL - whole.fuel
    stepped = _start(tm, export, args, None)
    for k in range(steps + 1):
        ran = _start(tm, export, args, None)
        interp.run(ran, max_steps=k)
        cut = _start(tm, export, args, None, fuel=k)
        interp.run(cut)
        for other in (ran, cut):
            assert _frames(other) == _frames(stepped), (export, k)
            assert other.trace == stepped.trace, (export, k)
            assert _final(other)[2:] == _final(stepped)[2:], (export, k)
        stepping.run(stepped, max_steps=1)
    assert _final(stepped) == _final(whole)


def test_sha256_loops_keep_locals_in_python_locals(typed_corpus,
                                                   monkeypatch):
    """In SHA-256's compiled code a Wasm local is read from the frame only
    when a function starts and written only when it leaves, and the
    message schedule computes ``i - 15`` once per turn, not three times."""
    entry, tm = typed_corpus["sha256"]
    sources = []

    def capture(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(interp, "compile", capture, raising=False)
    for ff in tm.funcs:
        code = interp._Code(tuple(ff.code))
        for pc in range(len(ff.code)):
            code.compile(ff, pc, code.lens[pc])
    frame_locals = re.compile(r"\bL\[(\d+)\]")
    for src in sources:
        for line in src.splitlines():
            for i in frame_locals.findall(line):
                assert line.strip() in (f"l{i} = L[{i}]", f"L[{i}] = l{i}"), \
                    line
    schedule = [src for src in sources
                if src.split("\n")[1].startswith("  def loop")
                and "- 15)" in src]
    assert len(schedule) == 1 and schedule[0].count("- 15)") == 1
