"""The flat op layout: every instruction is flattened by one rule,
``(tag, static action, *fields, *extras)``."""

import dataclasses
import re

from ctwasm import ast, flat, numerics
from ctwasm.ast import I32, S32, FuncType, Trust

_LEAKY = (ast.BrIf, ast.BrTable, ast.CallIndirect, ast.Load, ast.Store,
          ast.MemoryGrow)
_PUBLIC_DIVS = {f"{t}.{op}" for t in ("i32", "i64")
                for op in ("div_s", "div_u", "rem_s", "rem_u")}


def _action(ins):
    name = ast.mnemonic(ins)
    if isinstance(ins, _LEAKY) or name == "select" or name in _PUBLIC_DIVS:
        return None
    if name == "select secret":
        return ("secret-select",)
    return ("call", ins.func) if name == "call" else ("op", name)


def _extras(ins):
    match ins:
        case ast.Load(type=t, pack=p) | ast.Store(type=t, pack=p):
            return ((p or t.bits) // 8,)
        case ast.Unop(type=t, op=op):
            return (numerics.UNOP_FNS[t.rep.value, op],)
        case ast.Binop(type=t, op=op):
            return (numerics.BINOP_FNS[t.rep.value, op],)
        case ast.Testop(type=t, op=op):
            return (numerics.TESTOP_FNS[t.rep.value, op],)
        case ast.Relop(type=t, op=op):
            return (numerics.RELOP_FNS[t.rep.value, op],)
        case ast.Convert(to=to, frm=frm, sign=sign):
            return (numerics.CONVERT_FNS[to.rep.value, frm.rep.value, sign],)
    return ()


def _flat_op(ins):
    ft = FuncType(Trust.TRUSTED, (), ())
    code = flat.flatten_func(0, ast.Func(ft, (), (ins,))).code
    assert code[1:] == [(flat.T_END, ("op", "end"))]
    return code[0]


def test_tags_follow_the_instruction_class_list():
    n = len(ast.INSTRUCTION_VARIANTS)
    for tag, cls in enumerate(ast.INSTRUCTION_VARIANTS):
        name = "T_" + re.sub(r"(?<!^)(?=[A-Z])", "_", cls.__name__).upper()
        assert flat.TAGS[cls] == getattr(flat, name) == tag, name
    assert (flat.T_ELSE, flat.T_END) == (n, n + 1)


def test_every_op_is_its_tag_action_fields_and_extras():
    ft = FuncType(Trust.UNTRUSTED, (I32, S32), (S32,))
    protos = [*ast.CATALOGUE.values(), ast.Br(3), ast.BrIf(2),
              ast.BrTable((1, 2), 0), ast.Call(4), ast.CallIndirect(ft),
              ast.GetLocal(5), ast.SetLocal(6), ast.TeeLocal(7),
              ast.GetGlobal(8), ast.SetGlobal(9)]
    wrong = []
    for ins in protos:
        fields = tuple(getattr(ins, f.name) for f in dataclasses.fields(ins)
                       if f.name != "span")
        want = (flat.TAGS[type(ins)], _action(ins), *fields, *_extras(ins))
        if _flat_op(ins) != want:
            wrong.append(ast.mnemonic(ins))
    assert wrong == []


def test_structured_ops_hold_their_partners_offsets_for_bodies():
    nop, drop = ast.Nop(), ast.Drop()
    body = (ast.Block(I32, (nop,)), ast.Loop(None, (nop,)),
            ast.If(None, (nop,), (drop,)), ast.If(I32, (nop,), ()))
    code = flat.flatten_func(0, ast.Func(FuncType(Trust.TRUSTED, (), ()),
                                         (), body)).code
    op, end, els = ("op", "nop"), ("op", "end"), ("op", "else")
    assert code == [
        (flat.T_BLOCK, ("op", "block"), I32, 2), (flat.T_NOP, op),
        (flat.T_END, end),
        (flat.T_LOOP, ("op", "loop"), None), (flat.T_NOP, op),
        (flat.T_END, end),
        (flat.T_IF, None, None, 8, 10), (flat.T_NOP, op),
        (flat.T_ELSE, els, 10), (flat.T_DROP, ("op", "drop")),
        (flat.T_END, end),
        (flat.T_IF, None, I32, -1, 13), (flat.T_NOP, op), (flat.T_END, end),
        (flat.T_END, end)]
