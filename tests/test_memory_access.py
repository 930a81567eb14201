"""Loads and stores of linear memory, at every width and at its edges.

The bounds pins run one load, one store, a grow followed by a store and a
load in one straight-line run, and the same grow and access in a counted
loop, at widths 1, 2, 4 and 8.  An access that ends at the memory's end
runs, one that ends a byte past it traps on that op, and a grow in the
middle of a straight-line run moves the end for the ops after it.  Each
runs compiled and under the stepping oracle, which runs one op at a time
and checks the validator's stack types, and both must agree with each
other and with the pinned steps and actions.

The reference check runs every load and store mnemonic of
``ast.CATALOGUE`` on a seeded random page at random in-bounds addresses
and values, and compares results, final memory and each ``mem`` action
with a reading of little-endian memory written here with
``int.from_bytes`` and ``int.to_bytes``.
"""

import random
import re

import pytest

import stepping
from ctwasm import ast, flat, interp, text, validate
from ctwasm.ast import VALTYPES_BY_NAME
from ctwasm.interp import PAGE, Store, Value

FUEL = 10_000

# (load, store, value type, width in bytes)
WIDTHS = [
    ("i32.load8_u", "i32.store8", "i32", 1),
    ("i64.load8_s", "i64.store8", "i64", 1),
    ("i32.load16_s", "i32.store16", "i32", 2),
    ("i64.load16_u", "i64.store16", "i64", 2),
    ("i32.load", "i32.store", "i32", 4),
    ("i64.load32_s", "i64.store32", "i64", 4),
    ("f32.load", "f32.store", "f32", 4),
    ("i64.load", "i64.store", "i64", 8),
    ("f64.load", "f64.store", "f64", 8),
]


def _pins_module(load, store, t):
    """Exports, each addressing ``local 0`` at offset 3:
    ``load`` and ``store`` one access; ``grow`` a one-page grow, then a
    store and a load in the same straight-line run; ``nogrow`` the two
    accesses alone; ``loop`` three iterations of a counted loop, each
    growing by ``local 2`` pages (1 in the first iteration), storing and
    loading at the old end and moving the address a page on."""
    return f"""(module (memory 1 4)
  (func (export "load") (param i32) (result {t}) (local {t})
    (local.set 1 ({load} offset=3 (local.get 0))) (local.get 1))
  (func (export "store") (param i32 {t})
    ({store} offset=3 (local.get 0) (local.get 1)) (nop))
  (func (export "grow") (param i32 {t}) (result {t})
    (drop (memory.grow (i32.const 1)))
    ({store} offset=3 (local.get 0) (local.get 1))
    ({load} offset=3 (local.get 0)))
  (func (export "nogrow") (param i32 {t}) (result {t})
    ({store} offset=3 (local.get 0) (local.get 1))
    ({load} offset=3 (local.get 0)))
  (func (export "loop") (param i32 {t} i32) (result {t})
    (local i32 i32 {t})
    (local.set 3 (i32.const 3))
    (local.set 4 (i32.const 1))
    (block (loop
      (br_if 1 (i32.eqz (local.get 3)))
      (local.set 3 (i32.sub (local.get 3) (i32.const 1)))
      (drop (memory.grow (local.get 4)))
      ({store} offset=3 (local.get 0) (local.get 1))
      (local.set 5 ({load} offset=3 (local.get 0)))
      (local.set 0 (i32.add (local.get 0) (i32.const {PAGE})))
      (local.set 4 (local.get 2))
      (br 0)))
    (local.get 5)))"""


def _run(tm, export, args, debug):
    """Status, trap kind, results, steps, trace and final memory."""
    store, idx = interp.instantiate(Store(), tm)
    cfg = interp.make_config(store, idx, export, args, FUEL)
    (stepping.run if debug else interp.run)(cfg)
    data = bytes(store.mems[store.insts[idx].mem_addr].data)
    return (cfg.status, cfg.trap_kind, cfg.typed_results(), FUEL - cfg.fuel,
            list(cfg.trace), data)


def _both(tm, export, args):
    """The compiled run, after checking that the stepping oracle agrees
    with it."""
    compiled = _run(tm, export, args, False)
    assert _run(tm, export, args, True) == compiled
    return compiled


def _loaded(t, width, load, bits):
    """What ``load`` reads back from the ``width`` low bytes of ``bits``."""
    ty = VALTYPES_BY_NAME[t]
    raw = bits & ((1 << (8 * width)) - 1)
    if load.endswith("_s") and raw >> (8 * width - 1):
        raw -= 1 << (8 * width)
    return Value(ty, raw & ((1 << ty.bits) - 1))


def _bits(t):
    """A value whose bytes all differ and all have their top bit set."""
    return 0xF8F7F6F5F4F3F2F1 & ((1 << VALTYPES_BY_NAME[t].bits) - 1)


@pytest.mark.parametrize("load,store,t,width", WIDTHS,
                         ids=[w[0] for w in WIDTHS])
def test_an_access_ending_at_the_end_runs_and_one_byte_further_traps(
        load, store, t, width):
    tm = validate.validate_module(text.parse_module(
        _pins_module(load, store, t)))
    ty = VALTYPES_BY_NAME[t]
    value = Value(ty, _bits(t))
    last = PAGE - width - 3  # the address whose access ends at the end

    status, kind, results, steps, trace, data = _both(
        tm, "store", [Value(ast.I32, last), value])
    assert (status, steps) == ("done", 5)
    assert trace[2] == ("mem", "store", PAGE - width, width,
                        value.bits & ((1 << 8 * width) - 1))
    assert data[-width:] == (value.bits & ((1 << 8 * width) - 1)).to_bytes(
        width, "little")
    status, kind, results, steps, trace, data = _both(
        tm, "load", [Value(ast.I32, last)])
    assert (status, results, steps) == ("done", [Value(ty, 0)], 5)
    assert trace[1] == ("mem", "load", PAGE - width, width, 0)

    status, kind, results, steps, trace, data = _both(
        tm, "load", [Value(ast.I32, last + 1)])
    assert (status, kind, steps) == ("trap", "out of bounds memory access", 2)
    assert trace == [("op", "local.get"),
                     ("mem", "load", PAGE - width + 1, width, None)]
    status, kind, results, steps, trace, data = _both(
        tm, "store", [Value(ast.I32, last + 1), value])
    assert (status, kind, steps) == ("trap", "out of bounds memory access", 3)
    assert trace == [("op", "local.get"), ("op", "local.get"),
                     ("mem", "store", PAGE - width + 1, width, None)]
    assert data == bytes(PAGE)


@pytest.mark.parametrize("load,store,t,width", WIDTHS,
                         ids=[w[0] for w in WIDTHS])
def test_a_grow_moves_the_end_for_the_ops_after_it_in_the_same_run(
        load, store, t, width):
    tm = validate.validate_module(text.parse_module(
        _pins_module(load, store, t)))
    value = Value(VALTYPES_BY_NAME[t], _bits(t))
    addr = Value(ast.I32, PAGE - width - 2)  # ends one byte past one page
    ea = PAGE - width + 1
    stored = value.bits & ((1 << 8 * width) - 1)

    status, kind, results, steps, trace, data = _both(tm, "grow",
                                                      [addr, value])
    assert (status, results, steps) == (
        "done", [_loaded(t, width, load, value.bits)], 9)
    assert trace[1] == ("grow", 1, 1, 1)
    assert trace[5] == ("mem", "store", ea, width, stored)
    assert trace[7] == ("mem", "load", ea, width, stored)
    assert len(data) == 2 * PAGE
    assert data[ea:ea + width] == stored.to_bytes(width, "little")

    status, kind, results, steps, trace, data = _both(tm, "nogrow",
                                                      [addr, value])
    assert (status, kind, steps) == ("trap", "out of bounds memory access", 3)
    assert trace[-1] == ("mem", "store", ea, width, None)
    assert data == bytes(PAGE)


@pytest.mark.parametrize("load,store,t,width", WIDTHS,
                         ids=[w[0] for w in WIDTHS])
def test_a_grow_moves_the_end_inside_a_counted_loop_function(
        load, store, t, width):
    tm = validate.validate_module(text.parse_module(
        _pins_module(load, store, t)))
    ff = tm.funcs[4]
    value = Value(VALTYPES_BY_NAME[t], _bits(t))
    addr = Value(ast.I32, PAGE - width - 2)
    stored = value.bits & ((1 << 8 * width) - 1)
    ends = [k * PAGE - width + 1 for k in (1, 2, 3)]  # each iteration's ea

    status, kind, results, steps, trace, data = _both(
        tm, "loop", [addr, value, Value(ast.I32, 1)])
    assert (status, results, steps) == (
        "done", [_loaded(t, width, load, value.bits)], 83)
    assert [a for a in trace if a[0] == "grow"] == [
        ("grow", 1, 1, 1), ("grow", 2, 1, 2), ("grow", 3, 1, 3)]
    assert [a for a in trace if a[0] == "mem"] == [
        ("mem", kind, ea, width, stored)
        for ea in ends for kind in ("store", "load")]
    assert len(data) == 4 * PAGE
    for ea in ends:
        assert data[ea:ea + width] == stored.to_bytes(width, "little")

    # iterations after the first grow by 0 pages: the second one traps
    status, kind, results, steps, trace, data = _both(
        tm, "loop", [addr, value, Value(ast.I32, 0)])
    assert (status, kind, steps) == ("trap", "out of bounds memory access",
                                     43)
    assert trace[-1] == ("mem", "store", ends[1], width, None)
    assert [a for a in trace if a[0] == "grow"] == [
        ("grow", 1, 1, 1), ("grow", 2, 0, 2)]
    assert len(data) == 2 * PAGE

    # the later iterations ran in the loop function, not block by block
    loop_pc = next(pc for pc, op in enumerate(ff.code)
                   if op[0] == flat.T_LOOP)
    assert ff.compiled.iters[loop_pc] > 0
    assert ff.compiled.blocks[loop_pc] is not None


# -- a repeated load reuses the earlier one's value, check and action

_RELOADS = """(module (memory 1 4)
  (data (i32.const 0) "\\81\\02\\03\\04\\05\\06\\07\\08")
  (func (export "twice") (param i32) (result i32)
    (i32.add (i32.load offset=1 (local.get 0))
             (i32.load offset=1 (local.get 0))))
  (func (export "widths") (param i32) (result i32)
    (i32.sub (i32.load8_u (local.get 0)) (i32.load8_s (local.get 0)))
    (f32.load (local.get 0))
    i32.reinterpret_f32
    (i32.load (local.get 0))
    i32.sub
    i32.add)
  (func (export "store") (param i32) (result i32)
    (i32.load (local.get 0))
    (i32.store (local.get 0) (i32.const 5))
    (i32.load (local.get 0))
    i32.sub)
  (func (export "grow") (param i32) (result i32)
    (i32.load (local.get 0))
    (drop (memory.grow (i32.const 1)))
    (i32.load (local.get 0))
    i32.sub)
  (func (export "set") (param i32) (result i32)
    (i32.load (local.get 0))
    (local.set 0 (i32.add (local.get 0) (i32.const 4)))
    (i32.load (local.get 0))
    i32.sub)
  (func (export "turns") (param i32) (result i32) (local i32)
    (block (loop
      (br_if 1 (i32.ge_u (local.get 1) (i32.const 3)))
      (i32.store (local.get 0)
        (i32.add (i32.load (local.get 0)) (i32.load (local.get 0))))
      (local.set 1 (i32.add (local.get 1) (i32.const 1)))
      (br 0)))
    (i32.load (local.get 0))))"""
_FIRST = 0x04030281  # the i32 at 0


_READ = re.compile(r"\(data, (\w+)\)\[0\]")  # a read's address


def _sources(monkeypatch):
    """The list that the source of every function compiled from here on
    goes to."""
    sources = []

    def capture(src, *args):
        sources.append(src)
        return compile(src, *args)

    monkeypatch.setattr(interp, "compile", capture, raising=False)
    return sources


@pytest.mark.parametrize("export, arg, result, reads", [
    # the same address and width: one read, however the value is typed
    ("twice", 0, (2 * 0x05040302) & 0xFFFFFFFF, 1),
    ("widths", 0, (0x81 - 0xFFFFFF81) & 0xFFFFFFFF, 2),
    # a store, a grow and a local.set of the address: read again
    ("store", 0, (_FIRST - 5) & 0xFFFFFFFF, 2),
    ("grow", 0, 0, 2),
    ("set", 0, (_FIRST - 0x08070605) & 0xFFFFFFFF, 2),
    # one read per turn, before its store: in the block the first turn
    # runs and in the loop function, and one after the loop
    ("turns", 4, (0x08070605 * 8) & 0xFFFFFFFF, 3),
    # the first read traps, and its action goes out with the trap
    ("twice", PAGE - 4, None, 1),
])
def test_a_repeated_load_reuses_the_earlier_one_until_memory_changes(
        monkeypatch, export, arg, result, reads):
    """Whole runs give the pinned result, each load leaves its action, and
    every fuel and step-budget cut leaves the state and trace that the
    stepping oracle leaves, which runs one op at a time."""
    tm = validate.validate_module(text.parse_module(_RELOADS), annotate=True)
    args = [Value(ast.I32, arg)]
    status, kind, results, steps, trace, data = _both(tm, export, args)
    if result is None:
        assert (status, kind) == ("trap", "out of bounds memory access")
        assert trace[-1] == ("mem", "load", PAGE - 3, 4, None)
    else:
        assert (status, results) == ("done", [Value(ast.I32, result)])
    # the reads in the functions a run from a cold cache compiles
    interp._code_of.cache_clear()
    sources = _sources(monkeypatch)
    _run(validate.validate_module(text.parse_module(_RELOADS)), export, args,
         False)
    monkeypatch.undo()
    assert sum(len(_READ.findall(src)) for src in sources) == reads

    for k in range(steps + 1):
        cuts = []
        for fuel, max_steps in ((FUEL, k), (k, None)):
            store, idx = interp.instantiate(Store(), tm)
            cfg = interp.make_config(store, idx, export, args, fuel)
            interp.run(cfg, max_steps)
            cuts.append(cfg)
        store, idx = interp.instantiate(Store(), tm)
        stepped = interp.make_config(store, idx, export, args, FUEL)
        stepping.run(stepped, k)
        for cfg in cuts:
            assert cfg.trace == stepped.trace, (export, k)
            assert [(f.pc, f.stack, f.locals, f.labels)
                    for f in cfg.frames] == \
                [(f.pc, f.stack, f.locals, f.labels)
                 for f in stepped.frames], (export, k)
            assert (cfg.status, cfg.results) == \
                (stepped.status, stepped.results) or cfg.status == "fuel", \
                (export, k)
            assert cfg.store.mems[0].data == stepped.store.mems[0].data


def test_the_sha256_schedule_reads_each_word_once_per_turn(typed_corpus,
                                                           monkeypatch):
    """The message schedule reads ``w[i-16]``, ``w[i-15]``, ``w[i-7]`` and
    ``w[i-2]`` once each per turn, though it loads ``w[i-15]`` and
    ``w[i-2]`` three times each."""
    entry, tm = typed_corpus["sha256"]
    ff = tm.funcs[0]
    sources = _sources(monkeypatch)
    code = interp._Code(tuple(ff.code))
    code.compile(ff, 63, code.lens[63])
    (src,) = sources
    assert "- 15)" in src and "- 2)" in src  # the schedule loop
    reads = _READ.findall(src)
    loads = [op for op in ff.code[63:63 + code.lens[63]]
             if op[0] == flat.T_LOAD]
    assert (len(reads), len(set(reads)), len(loads)) == (4, 4, 8)


# -- every load and store against a reference reading of memory

MEMORY_OPS = [m for m in ast.CATALOGUE
              if m.endswith((".store", "store8", "store16", "store32"))
              or ".load" in m]
_FORM = re.compile(r"([isf])(32|64)\.(load|store)(8|16|32)?(?:_([su]))?")


def test_the_reference_covers_every_load_and_store():
    assert len(MEMORY_OPS) == 42
    assert {m.split(".")[0] for m in MEMORY_OPS} == {
        "i32", "i64", "f32", "f64", "s32", "s64"}
    for m in MEMORY_OPS:
        assert _FORM.fullmatch(m), m


def _cases(rng, width, offset, tbits, n=40):
    """(address, value bits): both ends of the range, then random ones."""
    top = PAGE - width - offset
    addrs = [0, top, top - 1] + [rng.randrange(top + 1) for _ in range(n)]
    return [(a, rng.getrandbits(tbits)) for a in addrs]


@pytest.mark.parametrize("mnemonic", MEMORY_OPS)
def test_every_load_and_store_reads_and_writes_little_endian_memory(
        mnemonic):
    t, tbits, kind, pack, sign = _FORM.fullmatch(mnemonic).groups()
    t, tbits = t + tbits, int(tbits)
    width = int(pack or tbits) // 8
    secret = t.startswith("s")
    ty = VALTYPES_BY_NAME[t]
    offsets = (0, 5, 4093)
    if kind == "load":
        funcs = [f'(func (export "f{o}") (param i32) (result {t}) '
                 f"({mnemonic} offset={o} (local.get 0)))" for o in offsets]
    else:
        funcs = [f'(func (export "f{o}") (param i32 {t}) '
                 f"({mnemonic} offset={o} (local.get 0) (local.get 1)))"
                 for o in offsets]
    tm = validate.validate_module(text.parse_module(
        f"(module (memory 1{' secret' if secret else ''}) "
        + " ".join(funcs) + ")"))
    rng = random.Random(f"memory-access:{mnemonic}")
    image = rng.randbytes(PAGE)
    for debug in (False, True):
        ref = bytearray(image)
        store, idx = interp.instantiate(Store(), tm)
        interp.write_image(store, idx, {0: image})
        data = store.mems[store.insts[idx].mem_addr].data
        for i, o in enumerate(offsets):
            code = tm.funcs[i].code
            for addr, bits in _cases(rng, width, o, tbits):
                ea = addr + o
                if kind == "load":
                    raw = int.from_bytes(ref[ea:ea + width], "little")
                    v = raw - (1 << 8 * width) \
                        if sign == "s" and raw >> (8 * width - 1) else raw
                    want = [Value(ty, v & ((1 << tbits) - 1))]
                    args = [Value(ast.I32, addr)]
                else:
                    raw = bits & ((1 << 8 * width) - 1)
                    ref[ea:ea + width] = raw.to_bytes(width, "little")
                    want = []
                    args = [Value(ast.I32, addr), Value(ty, bits)]
                action = ("mem", kind, ea, width, None if secret else raw)
                out = (stepping.invoke if debug else interp.invoke)(
                    store, idx, f"f{o}", args)
                assert (out.status, out.results) == ("done", want), \
                    (mnemonic, debug, ea, bits)
                assert out.trace == [op[1] or action for op in code]
                assert out.steps == len(code)
                assert data == ref, (mnemonic, debug, ea)
