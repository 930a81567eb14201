"""A fixed loop that measures how fast the machine runs Python right now.

On a shared host the same op takes from 1x to 2x its time, in phases that
last from seconds to minutes, as other tenants load the machine.  A loop
shaped like the interpreter's dispatch (decode a tuple, branch on its tag,
push and pop a list stack, read and write a bytearray, append to a trace)
slows down in step with the program: over five minutes that swung between
the two speeds, the time of a SHA-256 trial divided by this loop's time,
taken just before it, kept within 3% (quartile distance over median,
windows of 20 to 40 trials) while the raw trial time spread by 16 to 21%.

The run divides each op's time by the loop's time measured just before the
op's round and multiplies by ``NOMINAL_S``: times then read as they would
on a machine where this loop takes 10 ms.  The loop belongs to the
benchmark and must not change, or results stop being comparable.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.010
STEPS = 30_000

_rng = random.Random(5)
_CODE = tuple((_rng.randrange(4), ("op", f"x{_rng.randrange(8)}"), _rng.randrange(1, 100))
              for _ in range(64))


def reference_s() -> float:
    """Seconds the loop takes now."""
    t0 = time.perf_counter()
    stack, trace, mem = [1, 2], [], bytearray(65536)
    code, pc, n = _CODE, 0, len(_CODE)
    for _ in range(STEPS):
        tag, act, arg = code[pc]
        if tag == 0:
            stack.append(arg)
        elif tag == 1:
            b = stack.pop()
            a = stack.pop() if stack else 0
            stack.append((a + b) & 0xFFFFFFFF)
        elif tag == 2:
            a = stack[-1] & 0xFFF0
            mem[a:a + 4] = arg.to_bytes(4, "little")
            trace.append(("mem", "store", a, 4, None))
        else:
            stack.append(int.from_bytes(mem[arg * 4:arg * 4 + 4], "little"))
        trace.append(act)
        if len(stack) > 32:
            del stack[:16]
        pc = (pc + 1) % n
    return time.perf_counter() - t0
