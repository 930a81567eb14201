"""Invariants of the interpreter's execution engine.

Fuel, step budgets and single steps must cut a run at exactly the same
instruction, whatever unit the engine executes at a time: a run with
fuel k records the first k actions of the full run, ``run`` with
``max_steps`` k leaves the state that k single steps leave, and a trap
in the middle of a straight-line run charges exactly the steps up to and
including the trapping instruction.
"""

import random

import pytest

import fuzzgen
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


def _start(tm, export, args, image, fuel=FUEL, debug=False):
    store, idx = _instance(tm, image)
    return interp.make_config(store, idx, export, args, fuel, debug=debug)


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
    for debug in (False, True):
        cfg = _start(tm, "f", [arg], None, fuel=100, debug=debug)
        interp.run(cfg)
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
    cfg = _start(tm, "f", [Value(ast.I64, 1 << 40)], None, debug=True)
    interp.run(cfg)
    assert cfg.status == "done"
    tm = _debug_module()
    ff = tm.flat(0)
    pc = 6  # i64.mul, with (i64, i64) on the stack
    assert ff.stack_types[pc] == (ast.I64, ast.I64)
    ff.stack_types[pc] = (ast.I64,) if corrupt == "depth" else (I32, ast.I64)
    cfg = _start(tm, "f", [Value(ast.I64, 1 << 40)], None, debug=True)
    with pytest.raises(AssertionError, match=f"pc {pc}"):
        interp.run(cfg)
    assert len(cfg.trace) == pc
    plain = _start(tm, "f", [Value(ast.I64, 1 << 40)], None)
    interp.run(plain)
    assert plain.status == "done"
