"""Exact output of label inference on constructs the fuzz generators never
produce.  Each case pins the printed module and, except where noted, the
solver's (rounds, demotions)."""

import pytest

from ctwasm import text
from ctwasm.infer import infer_labels

# name -> (source, (rounds, demotions) or None, printed output)
CASES = {
    # br_table into two blocks with an i32 result and the function label
    "br_table_result": (
        """(module
  (func (export "f") (param i32 i32) (result i32)
    (block (result i32)
      (block (result i32)
        (br_table 0 1 2 (local.get 1) (local.get 0)))
      (i32.const 7)
      (i32.add))))""",
        (3, 2),
        """\
(module
  (func (export "f") (param i32) (param s32) (result s32)
    block (result s32)
      block (result s32)
        local.get 1
        local.get 0
        br_table 0 1 2
      end
      s32.const 7
      s32.add
    end
  )
)
"""),
    # code after br pops operands from the polymorphic stack
    "dead_code": (
        """(module
  (func (export "f") (param i32 i32) (result i32)
    (block (result i32)
      (br 0 (local.get 0))
      (i32.add)
      (local.set 1)
      (local.get 1))))""",
        (2, 0),
        """\
(module
  (func (export "f") (param s32) (param s32) (result s32)
    block (result s32)
      local.get 0
      br 0
      s32.add
      local.set 1
      local.get 1
    end
  )
)
"""),
    # dead-code operands that the rules force public; the demotion count is
    # not pinned, because an operand popped from the polymorphic stack has
    # no producer and demoting it changes no label
    "dead_code_forced": (
        """(module
  (func (export "f") (param i32) (result i32)
    (block (result i32)
      (local.get 0)
      (return)
      (i32.div_u)
      (if (then nop))
      (if (then nop))
      (i32.const 3))))""",
        None,
        """\
(module
  (func (export "f") (param s32) (result s32)
    block (result s32)
      local.get 0
      return
      i32.div_u
      if
        nop
      end
      if
        nop
      end
      s32.const 3
    end
  )
)
"""),
    # local.tee of a public local feeding a secret add: classify after the tee
    "tee": (
        """(module
  (func (export "f") (param i32 i32) (result i32) (local i32)
    (if (i32.eqz (local.get 2)) (then nop))
    (i32.add (local.tee 2 (local.get 0)) (local.get 1))))""",
        (5, 5),
        """\
(module
  (func (export "f") (param i32) (param s32) (result s32)
    (local i32)
    local.get 2
    i32.eqz
    if
      nop
    end
    local.get 0
    local.tee 2
    s32.classify/i32
    local.get 1
    s32.add
  )
)
"""),
    # int->int extend of a public value into a secret local: classify after the convert
    "extend_public_to_secret": (
        """(module
  (func (export "f") (param i32) (result i64) (local i64)
    (if (i32.eqz (local.get 0)) (then nop))
    (local.set 1 (i64.extend_i32_u (local.get 0)))
    (local.get 1)))""",
        (4, 3),
        """\
(module
  (func (export "f") (param i32) (result s64)
    (local s64)
    local.get 0
    i32.eqz
    if
      nop
    end
    local.get 0
    i64.extend_i32_u
    s64.classify/i64
    local.set 1
    local.get 1
  )
)
"""),
    # call_indirect through a table of two functions of one signature
    "call_indirect_two": (
        """(module
  (table 2 funcref)
  (elem (i32.const 0) 0 1)
  (func (param i32 i32) (result i32) (i32.add (local.get 0) (local.get 1)))
  (func (param i32 i32) (result i32)
    (if (i32.eqz (local.get 1)) (then nop))
    (local.get 0))
  (func (export "f") (param i32 i32 i32) (result i32)
    (call_indirect (param i32 i32) (result i32)
      (local.get 0) (local.get 1) (local.get 2))))""",
        (5, 8),
        """\
(module
  (func (param s32) (param i32) (result s32)
    local.get 0
    local.get 1
    s32.classify/i32
    s32.add
  )
  (func (param s32) (param i32) (result s32)
    local.get 1
    i32.eqz
    if
      nop
    end
    local.get 0
  )
  (func (export "f") (param s32) (param i32) (param i32) (result s32)
    local.get 0
    local.get 1
    local.get 2
    call_indirect (param s32) (param i32) (result s32)
  )
  (table 2 funcref)
  (elem (i32.const 0) 0 1)
)
"""),
    # memory.grow operand and result, memory.size beside a secret load
    "memory_grow": (
        """(module (memory 1)
  (func (export "f") (param i32 i32) (result i32)
    (drop (memory.grow (local.get 0)))
    (i32.store (i32.const 0) (local.get 1))
    (i32.add (memory.size) (i32.load (i32.const 4)))))""",
        (3, 6),
        """\
(module
  (func (export "f") (param i32) (param s32) (result s32)
    local.get 0
    memory.grow
    drop
    i32.const 0
    local.get 1
    s32.store
    memory.size
    s32.classify/i32
    i32.const 4
    s32.load
    s32.add
  )
  (memory 1 secret)
)
"""),
    # a float select forces its condition public; the int one goes secret
    "float_select": (
        """(module
  (func (export "f") (param f32 f32 i32 i32) (result i32)
    (drop (select (local.get 0) (local.get 1) (local.get 2)))
    (select (local.get 3) (i32.const 1) (local.get 3))))""",
        (4, 7),
        """\
(module
  (func (export "f") (param f32) (param f32) (param i32) (param s32) (result s32)
    local.get 0
    local.get 1
    local.get 2
    select
    drop
    local.get 3
    s32.const 1
    local.get 3
    select secret
  )
)
"""),
}


@pytest.mark.parametrize("name", list(CASES))
def test_inference_output_is_pinned(name):
    src, stats, printed = CASES[name]
    res = infer_labels(text.parse_module(src))
    assert res.ok, res.conflicts
    assert text.print_module(res.module.module) == printed
    if stats is not None:
        assert (res.iterations, res.demotions) == stats

