"""The four workloads: set-up, the timed op, and the check of each output.

Each workload is built from a seeded ``random.Random`` and the files of the
checkout (``corpus/`` and this directory); the program under test sees only
the generated inputs.  ``round()`` yields the inputs of one indivisible
batch of ops: the run loop only stops between rounds, so a workload whose
inputs differ in cost (toolchain) always measures the same mix.

``check`` returns None when an output is right and a message otherwise.
``corrupt`` turns a right expectation into a wrong one; the run loop feeds
it back to ``check`` once per run to show that a wrong output is caught.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import modgen

FUEL = 10_000_000
MSG_OFF = 0x8000  # clear of the scratch area (0x1000-0x12ff) and the digest
MSG_LEN = 4096
DIGEST_OFF = 2048
TAG_OFF = 0x3000


@dataclass(frozen=True)
class Input:
    name: str
    kind: str  # inputs of one kind are summarized together in traced runs
    data: object
    expect: object


def _message(rng: random.Random) -> bytes:
    return rng.randbytes(MSG_LEN)


def _sha256_source(root: Path) -> str:
    return (root / "corpus" / "sha256" / "impl.cwat").read_text()


class CtSha256Long:
    """One randomized ct-check of SHA-256 over a 4 KiB secret message."""

    name = "ct-sha256-long"
    TRIALS = 1

    def __init__(self, ctw, root: Path, rng: random.Random):
        self.ctw, self.rng = ctw, rng
        m = ctw.text.parse_module(_sha256_source(root), "sha256/impl.cwat")
        self.tm = ctw.validate.validate_module(m, annotate=True)
        v = ctw.interp.parse_value
        self.args = [v(f"i32:{MSG_OFF}"), v(f"i32:{MSG_LEN}"), v(f"i32:{DIGEST_OFF}")]
        self.spec = ctw.leakage.TrialSpec(
            export="hash", args=self.args,
            secrets=[ctw.leakage.SecretInput("message", offset=MSG_OFF,
                                             length=MSG_LEN)],
            fuel=FUEL)

    def round(self):
        seed = self.rng.getrandbits(31)
        msg = self._trial_message(seed)
        yield Input("trial", "trial", (seed, msg), hashlib.sha256(msg).digest())

    @staticmethod
    def _trial_message(seed: int) -> bytes:
        """The random message the trial with ``seed`` runs, drawn the way
        ``randomized_ct_trial`` draws a secret memory region."""
        rng = random.Random(seed)
        return bytes(rng.getrandbits(8) for _ in range(MSG_LEN))

    def op(self, inp):
        return self.ctw.leakage.randomized_ct_trial(
            self.tm, self.spec, trials=self.TRIALS, seed=inp.data[0])

    def check(self, inp, report):
        if not report.ok or report.passed != self.TRIALS:
            return f"ct-check failed: {report.to_json()}"
        # the lockstep run's own output is not returned: run the module again,
        # plainly, on the trial's random message and compare with hashlib
        interp = self.ctw.interp
        store, idx = interp.instantiate(interp.Store(), self.tm)
        data = store.mems[store.insts[idx].mem_addr].data
        data[MSG_OFF:MSG_OFF + MSG_LEN] = inp.data[1]
        out = interp.invoke(store, idx, "hash", self.args, fuel=FUEL)
        digest = bytes(data[DIGEST_OFF:DIGEST_OFF + 32])
        if out.status != "done" or digest != inp.expect:
            return f"digest {digest.hex()} != {inp.expect.hex()} ({out.status})"
        return None

    def corrupt(self, expect):
        return bytes([expect[0] ^ 1]) + expect[1:]


class CtCorpus:
    """One ``run_corpus(trials=20)`` over the bundled corpus."""

    name = "ct-corpus"
    TRIALS = 20

    def __init__(self, ctw, root: Path, rng: random.Random):
        self.ctw, self.rng = ctw, rng
        self.root = root / "corpus"
        entries = ctw.corpus.entries(self.root)
        for e in entries:
            ctw.validate.check_module(e.module, annotate=True)
        self.names = sorted(e.name for e in entries)

    def round(self):
        yield Input("run_corpus", "run_corpus", self.rng.getrandbits(31), self.names)

    def op(self, inp):
        return self.ctw.corpus.run_corpus(self.root, trials=self.TRIALS,
                                          seed=inp.data)

    def check(self, inp, report):
        bad = [n for n, st in report["entries"].items() if not st.get("ok")]
        if not report["ok"] or bad:
            return f"run_corpus not ok: {bad}"
        if sorted(report["entries"]) != inp.expect:
            return f"entries {sorted(report['entries'])} != {inp.expect}"
        return None

    def corrupt(self, expect):
        return expect + ["no-such-entry"]


class Toolchain:
    """parse -> validate -> encode -> decode -> print -> strip -> infer."""

    name = "toolchain"
    GENERATED = 32  # of each kind per round: ct, plain, mutant

    def __init__(self, ctw, root: Path, rng: random.Random):
        self.ctw = ctw
        inputs = []
        for d in sorted((root / "corpus").iterdir()):
            if not (d / "impl.cwat").exists():
                continue
            expect = json.loads((d / "expect.json").read_text())
            src = (d / "impl.cwat").read_text()
            if expect["validates"]:
                inputs.append(Input(d.name, "crypto", src, None))
            else:
                inputs.append(Input(d.name, "negative", src, expect["error"]))
        for i in range(self.GENERATED):
            inputs.append(Input(f"gen-ct-{i}", "gen-ct", modgen.generate(rng, True), None))
            inputs.append(Input(f"gen-plain-{i}", "gen-plain",
                                modgen.generate(rng, False), None))
            src, code = modgen.mutant(rng)
            inputs.append(Input(f"mutant-{i}", "mutant", src, code))
        self.inputs = inputs

    def round(self):
        return self.inputs

    def op(self, inp):
        c = self.ctw
        m = c.text.parse_module(inp.data, inp.name)
        tm, errs = c.validate.check_module(m, annotate=True)
        if errs:
            return [e.code.value for e in errs]
        data = c.binary.encode_module(m)
        decoded = c.binary.decode_module(data)
        c.text.print_module(decoded)
        report = c.strip.strip_module(tm)
        return data, decoded, report, c.infer.infer_labels(report.module)

    def check(self, inp, out):
        if isinstance(out, list):
            if inp.expect not in out:
                return f"{inp.name}: rejected with {out}, expected {inp.expect}"
            return None
        if inp.expect is not None:
            return f"{inp.name}: accepted, expected {inp.expect}"
        data, decoded, report, inferred = out
        if self.ctw.binary.encode_module(decoded) != data:
            return f"{inp.name}: encode -> decode -> encode is not byte-stable"
        self.ctw.validate.validate_module(report.module)  # raises if invalid
        if not inferred.ok:
            return f"{inp.name}: inference conflicts {inferred.conflicts}"
        return None

    def corrupt(self, expect):
        return "TypeMismatch" if expect is None else "NoSuchCode"


# the SHA-256 module plus an export that hashes the message and compares the
# digest to a tag word by word, leaving early on the first mismatch: a
# branch on a secret, so it runs only through flatten_unchecked
_VERIFY = """\
  (func (export "verify") (param $msg i32) (param $len i32) (param $tag i32) (result i32)
    (local $i i32)
    (call 1 (local.get $msg) (local.get $len) (i32.const {digest}))
    (block $done
      (loop $cmp
        (br_if $done (i32.ge_u (local.get $i) (i32.const 32)))
        (if (s32.ne (s32.load (i32.add (i32.const {digest}) (local.get $i)))
                    (s32.load (i32.add (local.get $tag) (local.get $i))))
          (then (return (i32.const 0))))
        (local.set $i (i32.add (local.get $i) (i32.const 4)))
        (br $cmp)))
    (i32.const 1))
)
"""


class CtLeakLate:
    """One lockstep check that diverges late, at an early-exit tag compare."""

    name = "ct-leak-late"

    def __init__(self, ctw, root: Path, rng: random.Random):
        self.ctw, self.rng = ctw, rng
        base = _sha256_source(root).rstrip()
        if not base.endswith(")"):
            raise ValueError("sha256/impl.cwat does not end with its module's ')'")
        src = base[:-1] + _VERIFY.format(digest=DIGEST_OFF)
        self.if_line = next(n for n, line in enumerate(src.splitlines(), 1)
                            if "(if (s32.ne" in line)
        m = ctw.text.parse_module(src, "sha256-verify.cwat")
        self.tm = ctw.validate.flatten_unchecked(m)
        v = ctw.interp.parse_value
        self.args = [v(f"i32:{MSG_OFF}"), v(f"i32:{MSG_LEN}"), v(f"i32:{TAG_OFF}")]
        self.tag = hashlib.sha256(bytes(MSG_LEN)).digest()
        self.step = None  # every verdict must diverge at the same step

    def round(self):
        msg = _message(self.rng)
        while hashlib.sha256(msg).digest()[:4] == self.tag[:4]:
            msg = _message(self.rng)  # first word must differ from the tag
        yield Input("verify", "verify", msg, self.if_line)

    def op(self, inp):
        return self.ctw.leakage.lockstep_check(
            self.tm, "verify", self.args, self.args,
            {MSG_OFF: bytes(MSG_LEN), TAG_OFF: self.tag},
            {MSG_OFF: inp.data, TAG_OFF: self.tag},
            fuel=FUEL, require_untrusted=False)

    def check(self, inp, v):
        if v.kind != "diverged" or not v.action_a or v.action_a[0] != "branch":
            return f"verdict {v.to_json()}"
        if f"at line {inp.expect}:" not in (v.location or ""):
            return f"diverged at {v.location}, expected line {inp.expect}"
        if self.step is None:
            self.step = v.step
        if v.step != self.step:
            return f"diverged at step {v.step}, earlier verdicts at {self.step}"
        return None

    def corrupt(self, expect):
        return expect + 1


WORKLOADS = {w.name: w for w in (CtSha256Long, CtCorpus, Toolchain, CtLeakLate)}
