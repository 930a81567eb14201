"""``numerics.TRAPPING`` names exactly the functions that raise Trap.

Compiled blocks guard a numeric op with a trap handler only when its
function is in ``TRAPPING``, so the set is checked against behaviour:
every function of the five tables is applied to edge operands, and it
must raise Trap on some of them exactly when it is in the set.
"""

import itertools

from ctwasm import numerics
from ctwasm.numerics import Trap, f32_to_bits, f64_to_bits

from test_numerics_inline import _edges

_FLOATS = [0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), float("nan"),
           2.0 ** 31, -2.0 ** 31, 2.0 ** 63, -2.0 ** 63]
_F32_MAX, _F64_MAX = 0x7F7FFFFF, 0x7FEFFFFFFFFFFFFF  # largest finite


def _operands(t: str) -> list[int]:
    if t.startswith("i"):
        return _edges(int(t[1:]))
    to_bits, top, width = (f32_to_bits, _F32_MAX, 32) if t == "f32" else \
        (f64_to_bits, _F64_MAX, 64)
    return [to_bits(v) for v in _FLOATS] + [top, top | 1 << (width - 1)]


def _functions():
    """(table key, function, operand type, arity) of every numeric
    function."""
    for table, arity in ((numerics.BINOP_FNS, 2), (numerics.RELOP_FNS, 2),
                         (numerics.UNOP_FNS, 1), (numerics.TESTOP_FNS, 1)):
        for key, fn in table.items():
            yield key, fn, key[0], arity
    for key, fn in numerics.CONVERT_FNS.items():
        yield key, fn, key[1], 1  # (to, from, sign)


def _traps(fn, t: str, arity: int) -> bool:
    for args in itertools.product(_operands(t), repeat=arity):
        try:
            fn(*args)
        except Trap:
            return True
    return False


def test_trapping_is_the_set_of_functions_that_raise_trap():
    functions = list(_functions())
    assert numerics.TRAPPING <= {fn for _, fn, _, _ in functions}
    wrong = [key for key, fn, t, arity in functions
             if _traps(fn, t, arity) != (fn in numerics.TRAPPING)]
    assert wrong == []


def test_trapping_holds_integer_div_and_rem_and_truncations():
    keys = {key for key, fn, _, _ in _functions() if fn in numerics.TRAPPING}
    assert keys == {(t, op) for t in ("i32", "i64")
                    for op in ("div_s", "div_u", "rem_s", "rem_u")} | {
        (i, f, s) for i in ("i32", "i64") for f in ("f32", "f64")
        for s in "su"}
