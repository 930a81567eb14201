"""Secrecy-typed WebAssembly toolchain.

A strict superset of WebAssembly MVP in which integer values, linear
memories, and functions carry security annotations: values are public or
secret, functions are trusted or untrusted.  The type system rejects any
program whose observable behavior (branch targets, memory addresses,
div/rem operand values) could depend on a secret, and the runtime can
demonstrate that guarantee by running two secret-varied twins in lockstep
and diffing their leakage traces.

Submodules:

- ``ast``      core types and instruction grammar
- ``text``     s-expression parser / printer (``.cwat``, superset of ``.wat``)
- ``binary``   bytecode encoder / decoder (``.cwasm``, superset of ``.wasm``)
- ``validate`` single-pass type checker over a constraint stack
- ``flat``     flat op arrays (``(tag, static action, *fields, *extras)``)
               shared by the validator, inference and the interpreter
- ``numerics`` bit-exact numeric functions, inlined integer expressions
               and ``TRAPPING``, the functions that may trap
- ``interp``   deterministic interpreter with per-step leakage actions
- ``leakage``  indistinguishability relations and the lockstep twin checker
- ``strip``    annotation eraser emitting plain Wasm (branchless select)
- ``infer``    secrecy-label inference for plain Wasm input
- ``corpus``   bundled crypto modules (TEA, Salsa20, SHA-256) and harness
- ``cli``      command-line front end
"""

__version__ = "0.1.0"
