"""Loop functions against the stepping oracle, which runs one op at a time.

A counted loop, one whose body is straight-line code ending in ``br``,
runs whole iterations inside one generated ``while``.  The stepping
oracle (``stepping.run``) never enters it, so it is the oracle here:
whole runs, runs cut short by fuel or by a step budget, and runs in
batches must leave exactly the state that it leaves after the same
number of steps.
"""

import random

import fuzzgen
import stepping
from ctwasm import corpus, flat, interp, leakage, text, validate
from ctwasm.interp import Frame, Store, Value

FUEL = 20_000
SEEDS = range(300)
BATCHES = (1, 7, 61)
ITERATIONS = 3  # cut at every step of the first counted loop's first ones
SAMPLE = 4  # seeded cuts beyond them


def _cases():
    """(label, typed module, export, args) for every export of the seeds."""
    for seed in SEEDS:
        m = text.parse_module(fuzzgen.counted_loops(seed, ct=seed % 2 == 1))
        tm = validate.validate_module(m, annotate=True)
        rng = random.Random(seed)
        for f in m.funcs:
            for export in f.exports:
                yield (f"seed {seed}/{export}", tm, export,
                       [Value(t, rng.getrandbits(t.bits)) for t in f.type.params])


def _start(tm, export, args, fuel=FUEL):
    store, idx = interp.instantiate(Store(), tm)
    return interp.make_config(store, idx, export, args, fuel)


def _state(cfg, fuel):
    """Everything a run leaves behind, ``fuel`` being what it started with."""
    store = cfg.store
    frames = [(f.ff.index, f.pc, list(f.stack), list(f.locals), list(f.labels))
              if isinstance(f, Frame) else ("host", f.cl.key)
              for f in cfg.frames]
    return {"status": cfg.status, "trap": cfg.trap_kind,
            "results": list(cfg.results), "trace": list(cfg.trace),
            "steps": fuel - cfg.fuel, "pointers": cfg.frame_pointers(),
            "frames": frames, "memory": [bytes(m.data) for m in store.mems],
            "globals": [g.bits for g in store.globals]}


def _oracle(tm, export, args):
    """The whole run stepped by the oracle: its state, and the steps at
    which the first counted loop it enters starts its first iteration and
    ends its ITERATIONS-th (or the run ends)."""
    cfg = _start(tm, export, args)
    loop, starts = None, []
    while not cfg.terminal and len(starts) <= ITERATIONS:
        fr = cfg.frames[-1]
        if fr.code.iters[fr.pc] and loop in (None, (fr.ff.index, fr.pc)):
            loop = (fr.ff.index, fr.pc)
            starts.append(FUEL - cfg.fuel)
        stepping.run(cfg, max_steps=1)
    stepping.run(cfg)
    want = _state(cfg, FUEL)
    ends = starts + [want["steps"]] * (ITERATIONS + 1)
    return want, ends[0], ends[ITERATIONS]


def _check_cuts(label, tm, export, args, cuts):
    """Fuel and step-budget cuts at each of the sorted ``cuts`` against
    the stepping oracle stepped to the same count."""
    oracle, taken = _start(tm, export, args), 0
    for k in cuts:
        stepping.run(oracle, max_steps=k - taken)
        taken = k
        want = _state(oracle, FUEL)
        ran = _start(tm, export, args)
        interp.run(ran, max_steps=k)
        assert _state(ran, FUEL) == want, (label, "max_steps", k)
        cut = _start(tm, export, args, fuel=k)
        interp.run(cut)
        if want["status"] == interp.RUNNING:
            want["status"] = interp.OUT_OF_FUEL
        assert _state(cut, k) == want, (label, "fuel", k)


def test_loop_functions_match_debug_mode_on_counted_loops():
    entered = 0
    for label, tm, export, args in _cases():
        want, entry, horizon = _oracle(tm, export, args)
        total = want["steps"]
        whole = _start(tm, export, args)
        interp.run(whole)
        assert _state(whole, FUEL) == want, (label, "whole")
        for batch in BATCHES:
            batched = _start(tm, export, args)
            while not batched.terminal:
                interp.run(batched, max_steps=batch)
            assert _state(batched, FUEL) == want, (label, "batch", batch)
        rng = random.Random(label)
        beyond = range(horizon + 1, total + 1)
        cuts = sorted(set(range(entry, horizon + 1)) | set(
            rng.sample(beyond, min(SAMPLE, len(beyond)))))
        _check_cuts(label, tm, export, args, cuts)
        entered += any(ff.compiled.blocks[pc] is not None
                       for ff in tm.funcs if ff.compiled
                       for pc, m in enumerate(ff.compiled.iters) if m)
    assert entered > 200  # of the 300 exports


def test_counted_loops_cover_what_they_promise():
    """The generator's modules hold every shape the loop functions must
    get right, and validate."""
    seen = dict.fromkeys(("continue", "exit 2", "exit to function", "load",
                          "store", "global", "grow", "trap", "nested",
                          "secret"), 0)
    for seed in range(100):
        for ct in (False, True):
            src = fuzzgen.counted_loops(seed, ct)
            tm = validate.validate_module(text.parse_module(src))
            for ff in tm.funcs:
                code = interp._Code(tuple(ff.code))
                for pc, op in enumerate(ff.code):
                    if op[0] == flat.T_LOOP and not code.iters[pc]:
                        seen["nested"] += any(code.iters[pc:])
                    if op[0] == flat.T_BR_IF:
                        seen["continue"] += op[2] == 0
                        seen["exit 2"] += op[2] == 2
            seen["exit to function"] += "(br_if 3 " in src or "(br_if 5 " in src
            seen["load"] += ".load" in src
            seen["store"] += ".store" in src
            seen["global"] += "global.set" in src
            seen["grow"] += "memory.grow" in src
            seen["trap"] += "65532" in src or "div_" in src or "rem_" in src
            seen["secret"] += "s32" in src or "s64" in src
    assert min(seen.values()) > 10, seen


def test_the_corpus_hot_loops_run_as_loop_functions(typed_corpus):
    """After plain runs of the vectors, each loop named here has run in a
    loop function: SHA-256 compress's three, TEA's rounds and Salsa20's
    double round."""
    want = {("sha256", "$compress"): 3, ("tea", None): 2,
            ("salsa20", "$block"): 1}
    for name in ("sha256", "tea", "salsa20"):
        entry, tm = typed_corpus[name]
        for vec in entry.vectors:
            ok, message = corpus.run_vector(tm, vec)
            assert ok, (name, message)
        for (entry_name, func), count in want.items():
            if entry_name != name:
                continue
            loops = [(i, pc) for i, f in enumerate(entry.module.funcs)
                     if func is None or f.name == func
                     for pc, op in enumerate(tm.flat(i).code)
                     if op[0] == flat.T_LOOP]
            assert len(loops) == count, (name, loops)
            for i, pc in loops:
                code = tm.flat(i).compiled
                assert code.iters[pc] and code.blocks[pc] is not None, \
                    (name, i, pc)


def test_every_compiled_function_has_its_own_profile_label(typed_corpus):
    """Batches of 61 cut SHA-256's blocks, so a trial compiles blocks,
    one-op blocks at the same pcs and loop functions; a profiler keys each
    by its code's file, line and name, and no two may share one."""
    entry, tm = typed_corpus["sha256"]
    assert leakage.randomized_ct_trial(tm, entry.trial, trials=2, seed=3,
                                       batch=61).ok
    fns = {id(fn): fn for ff in tm.funcs if ff.compiled
           for fn in ff.compiled.blocks + ff.compiled.singles if fn}
    codes = [fn.__code__ for fn in fns.values()]
    assert {c.co_name for c in codes} == {"block", "loop"}
    assert any(fn is not None for ff in tm.funcs if ff.compiled
               for fn, m in zip(ff.compiled.singles, ff.compiled.lens)
               if m > 1)
    labels = {(c.co_filename, c.co_firstlineno, c.co_name) for c in codes}
    assert len(labels) == len(codes)


# from the 21st round on, a load whose address depends on the secret block
_LEAK = """(local.set $i (i32.add (local.get $i) (i32.const 1)))
        (drop (s32.load (select (s32.and (local.get $v0) (s32.const 0xfc))
          (s32.const 0) (i32.gt_u (local.get $i) (i32.const 20)))))"""


def test_trial_reports_do_not_depend_on_the_batch(typed_corpus, corpus_root):
    """Batches shorter than, equal to and longer than a round of TEA (50
    steps, 60 with the leak), and one that holds many rounds, give equal
    reports, when the trials pass and when a leak inside the round fails
    them."""
    entry, tm = typed_corpus["tea"]
    src = (corpus_root / "tea" / "impl.cwat").read_text()
    leaky = validate.flatten_unchecked(text.parse_module(
        src.replace(_LEAK.split("\n")[0], _LEAK, 1)))
    for module, ok in ((tm, True), (leaky, False)):
        reports = [leakage.randomized_ct_trial(
            module, entry.trial, trials=3, seed=5, batch=batch).to_json()
            for batch in (1, 49, 50, 51, 59, 60, 61, 4096)]
        assert reports[0]["ok"] is ok, reports[0]
        assert all(r == reports[0] for r in reports), reports
    failure = reports[0]["failure"]
    assert (reports[0]["failed_trial"], failure["step"]) == (0, 1278)
    assert failure["location"].endswith("(s32.load) at line 37:16")
