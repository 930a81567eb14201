"""Malformed module bytes fail with DecodeError and nothing else, and what
decodes and validates prints to text that parses back to the same module."""

import random

import fuzzgen
import pytest

from ctwasm import binary, cli, text, validate
from ctwasm.binary import DecodeError


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out) + 1)
        kind = rng.randrange(3)
        if kind == 0 and at < len(out):  # flip bits of a byte
            out[at] ^= rng.randrange(1, 256)
        elif kind == 1 and at < len(out):  # delete a byte
            del out[at]
        else:  # insert a byte
            out.insert(at, rng.randrange(256))
    return bytes(out)


@pytest.fixture(scope="module")
def mutants(positive_entries) -> list[tuple[bytes, bool]]:
    """3,000 seeded mutations of encoded valid modules, each with whether
    it decodes."""
    sources = [binary.encode_module(e.module) for e in positive_entries]
    sources += [binary.encode_module(text.parse_module(
        fuzzgen.generate(seed, ct=seed % 2 == 0))) for seed in range(200)]
    rng = random.Random(2018)
    out = []
    for n in range(3000):
        data = _mutate(rng, rng.choice(sources))
        try:
            binary.decode_module(data)
        except DecodeError:
            out.append((data, False))
        except Exception as e:  # pragma: no cover - the failure report
            pytest.fail(f"mutation {n}: {type(e).__name__}: {e}\n{data.hex()}")
        else:
            out.append((data, True))
    return out


def test_mutated_bytes_that_validate_print_back_to_the_same_module(mutants):
    valid = 0
    for n, (data, decodes) in enumerate(mutants):
        if not decodes:
            continue
        m = binary.decode_module(data)
        if validate.check_module(m)[1]:
            continue
        valid += 1
        assert text.parse_module(text.print_module(m)) == m, n
    assert valid >= 50


def test_cli_on_mutated_bytes_exits_with_a_code(mutants, tmp_path, capsys):
    decoding = [data for data, decodes in mutants if decodes]
    failing = [data for data, decodes in mutants if not decodes][:100]
    path, out = tmp_path / "mutant.cwasm", tmp_path / "stripped.cwat"
    for n, data in enumerate(decoding + failing):
        path.write_bytes(data)
        for argv in (["decode", str(path)], ["validate", str(path)],
                     ["strip", str(path), "-o", str(out)]):
            assert cli.main(argv) in (0, 1, 2), (n, argv)
        capsys.readouterr()
