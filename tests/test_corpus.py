import hashlib
import json
import random
import shutil

import oracles
import pytest
from ctwasm import corpus, interp, validate
from ctwasm.interp import Store, Value, parse_value


def fresh(tm):
    return interp.instantiate(Store(), tm)


def memory_of(store, idx):
    return store.mems[store.insts[idx].mem_addr].data


def test_layout_follows_the_expected_structure(corpus_root):
    for name in ("tea", "salsa20", "sha256"):
        d = corpus_root / name
        assert (d / "impl.cwat").exists()
        assert (d / "vectors.json").exists()
        assert (d / "secrets.json").exists()
        assert (d / "expect.json").exists()


def test_negative_suite_has_at_least_ten_exact_codes(corpus_entries):
    negatives = [e for e in corpus_entries if not e.positive]
    assert len(negatives) >= 10
    for entry in negatives:
        _, errs = validate.check_module(entry.module)
        codes = [e.code.value for e in errs]
        assert entry.expect["error"] in codes, (entry.name, codes)


def test_positive_entries_validate_untrusted(positive_entries):
    assert {e.name for e in positive_entries} == {"tea", "salsa20", "sha256"}
    for e in positive_entries:
        validate.validate_module(e.module)


def test_frozen_vectors_match_live_oracles(typed_corpus):
    """The expected outputs in vectors.json must equal what independent
    reference implementations produce for the same inputs."""
    _, tea_tm = typed_corpus["tea"]
    entry, _ = typed_corpus["tea"]
    for vec in entry.vectors:
        v_in = vec.memory_in.get(0, bytes(8))
        k_in = vec.memory_in.get(16, bytes(16))
        v = (int.from_bytes(v_in[:4], "little"),
             int.from_bytes(v_in[4:8], "little"))
        k = tuple(int.from_bytes(k_in[i:i + 4], "little")
                  for i in range(0, 16, 4))
        ref = oracles.tea_encrypt(v, k) if vec.invoke == "tea_encrypt" \
            else oracles.tea_decrypt(v, k)
        want = vec.expect_memory[0]
        assert want == ref[0].to_bytes(4, "little") + ref[1].to_bytes(4, "little")

    entry, _ = typed_corpus["salsa20"]
    for vec in entry.vectors:
        key = vec.memory_in.get(0, bytes(32))
        nonce = vec.memory_in.get(32, bytes(8))
        if vec.invoke == "keystream_block":
            want = oracles.salsa20_block(key, nonce, vec.args[2].bits)
        else:
            msg = vec.memory_in.get(64, bytes(vec.args[3].bits))
            want = oracles.salsa20_xor(key, nonce, msg)
        out_ptr = vec.args[-1].bits
        assert vec.expect_memory[out_ptr] == want[:len(vec.expect_memory[out_ptr])]

    entry, _ = typed_corpus["sha256"]
    for vec in entry.vectors:
        msg = vec.memory_in.get(0, b"")[:vec.args[1].bits]
        msg = msg.ljust(vec.args[1].bits, b"\0")
        assert vec.expect_memory[2048] == hashlib.sha256(msg).digest()


def test_published_salsa20_vector_anchor():
    key = bytes([0x80] + [0] * 31)
    assert oracles.salsa20_block(key, bytes(8), 0) == \
        oracles.PUBLISHED_SALSA20_VECTOR


def test_all_vectors_run_bit_exact(typed_corpus):
    for name, (entry, tm) in typed_corpus.items():
        for vec in entry.vectors:
            ok, detail = corpus.run_vector(tm, vec)
            assert ok, (name, detail)


def test_sha256_random_lengths_against_hashlib(typed_corpus):
    entry, tm = typed_corpus["sha256"]
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randrange(0, 200)
        msg = bytes(rng.getrandbits(8) for _ in range(n))
        store, idx = fresh(tm)
        memory_of(store, idx)[0:n] = msg
        out = interp.invoke(store, idx, "hash",
                            [parse_value("i32:0"), parse_value(f"i32:{n}"),
                             parse_value("i32:2048")])
        assert out.status == "done"
        got = bytes(memory_of(store, idx)[2048:2080])
        assert got == hashlib.sha256(msg).digest(), n


def test_tea_random_vectors_against_reference(typed_corpus):
    entry, tm = typed_corpus["tea"]
    rng = random.Random(12)
    for _ in range(25):
        v = (rng.getrandbits(32), rng.getrandbits(32))
        k = tuple(rng.getrandbits(32) for _ in range(4))
        store, idx = fresh(tm)
        data = memory_of(store, idx)
        data[0:8] = v[0].to_bytes(4, "little") + v[1].to_bytes(4, "little")
        data[16:32] = b"".join(x.to_bytes(4, "little") for x in k)
        out = interp.invoke(store, idx, "tea_encrypt",
                            [parse_value("i32:0"), parse_value("i32:16")])
        assert out.status == "done"
        got = (int.from_bytes(data[0:4], "little"),
               int.from_bytes(data[4:8], "little"))
        assert got == oracles.tea_encrypt(v, k)


def test_salsa20_random_vectors_against_reference(typed_corpus):
    entry, tm = typed_corpus["salsa20"]
    rng = random.Random(13)
    for _ in range(6):
        key = bytes(rng.getrandbits(8) for _ in range(32))
        nonce = bytes(rng.getrandbits(8) for _ in range(8))
        n = rng.choice((1, 63, 64, 65, 128))
        msg = bytes(rng.getrandbits(8) for _ in range(n))
        store, idx = fresh(tm)
        data = memory_of(store, idx)
        data[0:32] = key
        data[32:40] = nonce
        data[64:64 + n] = msg
        out = interp.invoke(store, idx, "stream_xor",
                            [parse_value("i32:0"), parse_value("i32:32"),
                             parse_value("i32:64"), parse_value(f"i32:{n}"),
                             parse_value("i32:4096")])
        assert out.status == "done"
        assert bytes(data[4096:4096 + n]) == oracles.salsa20_xor(key, nonce, msg)


def test_run_corpus_aggregate_report(corpus_root):
    report = corpus.run_corpus(corpus_root, trials=2, seed=7)
    assert report["ok"], report
    assert set(report["entries"]) >= {"tea", "salsa20", "sha256"}
    for name in ("tea", "salsa20", "sha256"):
        stages = report["entries"][name]
        assert stages["validate"] == "accepted"
        assert stages["strip"]["warnings"] == []
        assert stages["ct-check"]["ok"]


def test_vector_region_past_the_end_of_memory_is_an_error(typed_corpus):
    _, tm = typed_corpus["sha256"]
    vec = corpus.Vector("far", "hash", [], {65530: bytes(64)}, {}, [])
    with pytest.raises(ValueError, match="offset 65530"):
        corpus.run_vector(tm, vec)


def test_vector_region_past_the_end_of_memory_fails_its_stage(corpus_root,
                                                              tmp_path):
    shutil.copytree(corpus_root / "tea", tmp_path / "tea")
    vpath = tmp_path / "tea" / "vectors.json"
    doc = json.loads(vpath.read_text())
    doc["vectors"][0]["memory_in"]["70000"] = "00"
    vpath.write_text(json.dumps(doc))
    report = corpus.run_corpus(tmp_path, trials=2, seed=7)
    stages = report["entries"]["tea"]
    assert not report["ok"] and not stages["ok"]
    first = doc["vectors"][0]["name"]
    assert stages["vectors"][0].startswith(f"{first}: memory image region "
                                           "at offset 70000")
    assert "strip" not in stages and "ct-check" not in stages


def test_run_corpus_runs_each_vector_once_annotated_once_stripped(
        corpus_root, monkeypatch):
    runs = []
    run = corpus._run

    def counted(tm, vec, *args):
        runs.append(vec.name)
        return run(tm, vec, *args)

    monkeypatch.setattr(corpus, "_run", counted)
    assert corpus.run_corpus(corpus_root, trials=1)["ok"]
    names = [v.name for e in corpus.entries(corpus_root) if e.positive
             for v in e.vectors]
    assert sorted(runs) == sorted(names * 2)
