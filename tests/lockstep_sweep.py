"""Print one line per lockstep verdict on a seeded sweep of fuzz modules.

The sweep takes every export of ``fuzzgen.generate`` and
``fuzzgen.counted_loops``, seeds 0-149, with every integer parameter made
secret and the module run unchecked, so that its branches and addresses
read the secrets.  Twin a passes 0 for each secret parameter, twin b a
seeded random value, and both the same random public values.  Each case
is checked at fuel 100 and 3,000 and at every batch of ``--batches``.
Each line is

    case  fuel  batch  verdict-json

with the verdict's kind, step, actions, explanation and location.

With ``--wide`` the sweep is the larger one: seeds 0-299, plain and with
the secrecy extensions, each module both checked as written and with its
integer parameters made secret and run unchecked, at fuel 3,000.

Two versions of the checker give the same verdicts when their outputs are
equal.  From the repository root:

    PYTHONPATH=src python tests/lockstep_sweep.py > new.txt
    PYTHONPATH=../old/src python tests/lockstep_sweep.py > old.txt
    diff old.txt new.txt

``tests/test_leakage.py`` runs a few seeds of the sweep and asks that
each case's verdict be the same at every batch.  Pytest does not collect
this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fuzzgen  # noqa: E402
from ctwasm import leakage, text, validate  # noqa: E402
from ctwasm.ast import Secrecy  # noqa: E402
from ctwasm.interp import Value  # noqa: E402

BATCHES = (1, 7, 61, 4096, 32768)
FUELS = (100, 3000)


def secret_params(src: str) -> str:
    """A plain module whose integer parameters are all secret."""
    return re.sub(r"\(param i(32|64)\)", r"(param s\1)", src)


def _modules(seeds, wide: bool):
    """(name, typed module) for every module of the sweep."""
    for gen in (fuzzgen.generate, fuzzgen.counted_loops):
        for seed in seeds:
            for ct in (False, True) if wide else (False,):
                src = gen(seed, ct=ct)
                tag = f"{gen.__name__}:{seed}:{'ct' if ct else 'plain'}"
                if wide:
                    tm = validate.validate_module(text.parse_module(src),
                                                  annotate=True)
                    yield f"{tag}:checked", tm
                yield f"{tag}:unchecked", validate.flatten_unchecked(
                    text.parse_module(secret_params(src)))


def cases(seeds=range(150), wide: bool = False):
    """(name, typed module, export, args a, args b) for every export of
    the sweep's modules."""
    for name, tm in _modules(seeds, wide):
        rng = random.Random(name)
        for f in tm.module.funcs:
            if not f.exports:
                continue
            args_a, args_b = [], []
            for t in f.type.params:
                bits = rng.getrandbits(t.bits) if t.is_int else 0
                args_a.append(Value(t, 0 if t.sec is Secrecy.SECRET else bits))
                args_b.append(Value(t, bits))
            yield f"{name}:{f.exports[0]}", tm, f.exports[0], args_a, args_b


def verdict(case, fuel: int, batch: int) -> dict:
    """The lockstep verdict of one case, as JSON."""
    _, tm, export, args_a, args_b = case
    v = leakage.lockstep_check(tm, export, args_a, args_b, fuel=fuel,
                               batch=batch, require_untrusted=False)
    return v.to_json()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--wide", action="store_true",
                    help="seeds 0-299, plain and ct, checked and unchecked")
    ap.add_argument("--batches", default=",".join(map(str, BATCHES)),
                    help="comma-separated batch sizes")
    args = ap.parse_args(argv)
    batches = [int(b) for b in args.batches.split(",")]
    seeds, fuels = (range(300), (3000,)) if args.wide else (range(150),
                                                            FUELS)
    for case in cases(seeds, args.wide):
        for fuel in fuels:
            for batch in batches:
                out = json.dumps(verdict(case, fuel, batch), sort_keys=True)
                print(case[0], fuel, batch, out)


if __name__ == "__main__":
    main()
