"""Print a digest of the generated source of every compiled function.

For each module, every function's flat code is compiled at every pc as a
full block (or, at a counted loop, the loop function) and as a one-op
block, the two lengths ``run`` asks for.  Each compile prints one line:

    module  function  pc  length  sha256-of-source

The modules are the corpus modules (ill-typed ones flattened unchecked)
and ``fuzzgen.generate`` and ``fuzzgen.counted_loops`` for seeds 0-299,
plain and with the secrecy extensions.  The source is captured by
standing in for the ``compile`` builtin inside ``ctwasm.interp``, so
nothing under ``src/`` changes.

Two versions of the interpreter generate the same code when their outputs
are equal.  From the repository root:

    PYTHONPATH=src python tests/compiled_sources.py > new.txt
    PYTHONPATH=../old/src python tests/compiled_sources.py > old.txt
    diff old.txt new.txt

With ``--ops`` each line also ends with the sorted, comma-separated names
of the ``flat`` tags in the compiled range (``T_GET_LOCAL,T_LOAD`` ...),
so the lines of the functions that hold some op are one filter away:

    PYTHONPATH=src python tests/compiled_sources.py --ops \
        | grep -E 'T_(LOAD|STORE|MEMORY_SIZE|MEMORY_GROW)\b'

With ``--source MODULE FUNC PC`` it prints instead the generated source
of one compiled function: the full-length one at that pc of function
FUNC of MODULE, named as in the digest lines:

    PYTHONPATH=src python tests/compiled_sources.py --source sha256 0 63

Pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import fuzzgen  # noqa: E402
from ctwasm import corpus, flat, interp, text, validate  # noqa: E402

TAG_NAMES = {tag: name for name, tag in vars(flat).items()
             if name.startswith("T_")}


def modules(seeds: range):
    """(name, TypedModule) of every module to compile."""
    for e in corpus.entries():
        try:
            yield e.name, validate.validate_module(e.module)
        except validate.ValidationFailure:
            yield e.name, validate.flatten_unchecked(e.module)
    for gen in (fuzzgen.generate, fuzzgen.counted_loops):
        for seed in seeds:
            for ct in (False, True):
                m = text.parse_module(gen(seed, ct))
                yield (f"{gen.__name__}:{seed}:{'ct' if ct else 'plain'}",
                       validate.validate_module(m))


def module(name: str):
    """The TypedModule that ``modules`` names ``name``."""
    gen, _, rest = name.partition(":")
    if not rest:
        return dict(modules(range(0)))[name]
    seed, ct = rest.split(":")
    gens = {g.__name__: g for g in (fuzzgen.generate, fuzzgen.counted_loops)}
    return validate.validate_module(text.parse_module(
        gens[gen](int(seed), ct == "ct")))


@contextlib.contextmanager
def captured():
    """A list that gets the source of each function ``ctwasm.interp``
    compiles inside the ``with`` block."""
    sources: list[str] = []

    def capture(src, *args, **kwargs):
        sources.append(src)
        return builtins.compile(src, *args, **kwargs)

    interp.compile = capture
    try:
        yield sources
    finally:
        del interp.compile


def source(ff, pc: int) -> str:
    """The generated source of ``ff``'s full-length function at ``pc``."""
    code = interp._Code(tuple(ff.code))
    with captured() as sources:
        code.compile(ff, pc, code.lens[pc])
    return sources[0]


def digests(seeds: range, ops: bool = False):
    """One (module, function, pc, length, sha256) per compiled function,
    and with ``ops`` the names of the tags in its range."""
    with captured() as sources:
        for name, tm in modules(seeds):
            for ff in tm.funcs:
                if ff is None:
                    continue
                code = interp._Code(tuple(ff.code))
                for pc in range(len(ff.code)):
                    for n in sorted({code.lens[pc], 1}, reverse=True):
                        code.compile(ff, pc, n)
                        src = sources.pop()
                        row = (name, ff.index, pc, n,
                               hashlib.sha256(src.encode()).hexdigest())
                        if ops:
                            row += (",".join(sorted({
                                TAG_NAMES[op[0]]
                                for op in ff.code[pc:pc + n]})),)
                        yield row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=300,
                    help="fuzz seeds 0 .. SEEDS-1 (default 300)")
    ap.add_argument("--ops", action="store_true",
                    help="end each line with the flat tags of its range")
    ap.add_argument("--source", nargs=3, metavar=("MODULE", "FUNC", "PC"),
                    help="print the source of one compiled function")
    args = ap.parse_args(argv)
    if args.source:
        name, func, pc = args.source
        try:
            ff = module(name).funcs[int(func)]
            print(source(ff, int(pc)))
        except (KeyError, ValueError, IndexError, AttributeError) as e:
            ap.error(f"no compiled function {name} {func} {pc}: {e!r}")
        return 0
    count = 0
    for row in digests(range(args.seeds), args.ops):
        print(*row)
        count += 1
    print(f"{count} compiled functions", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
