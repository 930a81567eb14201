"""Parsing time grows linearly with the input's shape.

Times are the best of three with the garbage collector off, and each
test compares two shapes of equal size, so that a shape which costs
more than linear time shows as a ratio far above a constant factor.
"""

import gc
import time

from ctwasm import text

N = 16_000


def _best_parse(src: str):
    """The best time of three parses of ``src``, and the module."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            m = text.parse_module(src)
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best, m


def _func(locals_: str) -> str:
    return f"(module (func {locals_} (nop)))"


def test_local_fields_parse_in_linear_time():
    """N one-local fields cost a constant factor of one field of N
    locals; consuming the fields by slicing made it about 20x at N."""
    fields, m = _best_parse(_func(" ".join(["(local i32)"] * N)))
    one, m1 = _best_parse(_func("(local" + " i32" * N + ")"))
    assert m.funcs[0].locals == m1.funcs[0].locals
    assert len(m.funcs[0].locals) == N
    assert fields / one < 10, (fields, one)
