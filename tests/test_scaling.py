"""Parsing, encoding and decoding time grow linearly with the input.

Times are the best of three with the garbage collector off, and each
test compares two shapes of equal size, so that a shape which costs
more than linear time shows as a ratio far above a constant factor.
"""

import gc
import time

from ctwasm import ast, binary, text

N = 16_000


def _best(fn, arg):
    """The best time of three calls ``fn(arg)``, and the result."""
    best = float("inf")
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn(arg)
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best, out


def _func(locals_: str) -> str:
    return f"(module (func {locals_} (nop)))"


def test_local_fields_parse_in_linear_time():
    """N one-local fields cost a constant factor of one field of N
    locals; consuming the fields by slicing made it about 20x at N."""
    fields, m = _best(text.parse_module, _func(" ".join(["(local i32)"] * N)))
    one, m1 = _best(text.parse_module, _func("(local" + " i32" * N + ")"))
    assert m.funcs[0].locals == m1.funcs[0].locals
    assert len(m.funcs[0].locals) == N
    assert fields / one < 10, (fields, one)


def _fields(n: int) -> ast.Module:
    """A module that imports n functions and n globals, and defines and
    exports n functions and n globals."""
    ft = ast.FuncType(ast.Trust.UNTRUSTED, (ast.I32,), (ast.I32,))
    get = (ast.GetLocal(0),)
    funcs = [ast.Func(ft, (), (), ("m", f"f{i}")) for i in range(n)]
    funcs += [ast.Func(ft, (), get, exports=(f"f{i}",)) for i in range(n)]
    globals_ = [ast.GlobalVar(ast.I32, False, imported=("m", f"g{i}"))
                for i in range(n)]
    globals_ += [ast.GlobalVar(ast.I64, True, (ast.Const(ast.I64, i),),
                               exports=(f"g{i}",)) for i in range(n)]
    return ast.Module(tuple(funcs), tuple(globals_))


def test_encoding_and_decoding_take_linear_time_in_the_fields():
    """4x the imports, fields and exports cost at most 8x the time."""
    small, large = _fields(250), _fields(1000)
    times = []
    for m in (small, large):
        enc, data = _best(binary.encode_module, m)
        dec, back = _best(binary.decode_module, data)
        assert back == m
        times.append(enc + dec)
    assert times[1] / times[0] < 8, times
