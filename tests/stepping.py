"""The stepping oracle: run one op at a time, checking each stack's types.

CT-Wasm's soundness rests on type preservation: every value a well-typed
program pushes has the type the validator gave its slot.  ``run`` drives
a configuration as ``interp.run`` does, but one ``interp.run(cfg,
max_steps=1)`` at a time, the one-op functions that single steps, fuel
cuts and step budgets take, and before each op compares the top frame's
operand stack with the validator's ``FlatFunc.stack_types``.  It never
enters a block of more than one op or a counted loop, so compiled runs
are checked against it.
"""

import sys

from ctwasm import interp


def _debug_check(fr: interp.Frame) -> None:
    """Compare the live stack against the validator's annotation of the
    op at the frame's pc."""
    ann = fr.ff.stack_types
    if ann is None:
        return
    pc = fr.pc
    expected = ann[pc]
    if len(expected) != len(fr.stack):
        raise AssertionError(
            f"stack depth {len(fr.stack)} != annotated {len(expected)} "
            f"at func {fr.ff.index} pc {pc}")
    for t, bits in zip(expected, fr.stack):
        if t is not None and not 0 <= bits < (1 << t.bits):
            raise AssertionError(
                f"value 0x{bits:x} out of range for annotated {t.name} "
                f"at func {fr.ff.index} pc {pc}")


def run(cfg: interp.Config, max_steps: int | None = None) -> None:
    """``interp.run(cfg, max_steps)`` one step at a time, checking the
    top frame's stack before each op (a host frame has none to check)."""
    budget = sys.maxsize if max_steps is None else max_steps
    while budget > 0 and not cfg.terminal and cfg.fuel > 0:
        fr = cfg.frames[-1]
        if isinstance(fr, interp.Frame):
            _debug_check(fr)
        interp.run(cfg, max_steps=1)
        budget -= 1
    interp.run(cfg, max_steps=0)  # marks spent fuel as ``run`` does


def invoke(store: interp.Store, inst_idx: int, export: str,
           args: list[interp.Value], fuel: int | None = None) -> interp.Outcome:
    """``interp.invoke``, stepped by ``run``."""
    cfg = interp.make_config(store, inst_idx, export, args, fuel)
    fuel0 = cfg.fuel
    run(cfg)
    return interp.Outcome(cfg.status, cfg.typed_results(), cfg.trap_kind,
                          cfg.trace, store, fuel0 - cfg.fuel)
