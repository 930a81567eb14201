"""The flat op layout: every instruction is flattened by one rule,
``(tag, static action, *fields, *extras)``."""

import dataclasses
import re

import fuzzgen
from ctwasm import ast, flat, interp, numerics, text
from ctwasm.ast import I32, S32, FuncType, Trust

_LEAKY = (ast.BrIf, ast.BrTable, ast.CallIndirect, ast.Load, ast.Store,
          ast.MemoryGrow)
_INT_DIVS = {f"{t}.{op}" for t in ("i32", "i64", "s32", "s64")
             for op in ("div_s", "div_u", "rem_s", "rem_u")}


def _action(ins):
    name = ast.mnemonic(ins)
    if isinstance(ins, _LEAKY) or name == "select" or name in _INT_DIVS:
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


def _prototypes():
    """One instruction of every mnemonic, and of every op with an index."""
    ft = FuncType(Trust.UNTRUSTED, (I32, S32), (S32,))
    return [*ast.CATALOGUE.values(), ast.Br(3), ast.BrIf(2),
            ast.BrTable((1, 2), 0), ast.Call(4), ast.CallIndirect(ft),
            ast.GetLocal(5), ast.SetLocal(6), ast.TeeLocal(7),
            ast.GetGlobal(8), ast.SetGlobal(9)]


def test_every_op_is_its_tag_action_fields_and_extras():
    wrong = []
    for ins in _prototypes():
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


def test_interp_classes_every_static_action_as_static_and_no_other():
    """A run that records only leaks skips exactly the static actions; a
    host trap is not static, since the host decides it."""
    static = {flat.static_action(ins) for ins in _prototypes()} - {None}
    static |= {("op", "else"), ("op", "end")}
    assert {a[0] for a in static} == {"op", "call", "secret-select"}
    assert not any(interp.leaks(a) for a in static)
    assert interp.leaks(interp.HOST_TRAP)
    for leaked in (("branch", "if", 0), ("mem", "load", 0, 4, None),
                   ("unsafe-binop", "i32.div_u", 1, 0), ("grow", 1, 1, 1),
                   ("call-indirect", 0), ("host", ("m", "f"), (), (), (), ())):
        assert interp.leaks(leaked), leaked


def test_rebuild_hands_each_instruction_the_pc_of_its_op(positive_entries):
    modules = [e.module for e in positive_entries] + [
        text.parse_module(fuzzgen.generate(seed, ct))
        for seed in range(100) for ct in (False, True)]
    funcs = [(i, f) for m in modules for i, f in enumerate(m.funcs)
             if f.imported is None]
    for i, f in funcs:
        ff = flat.flatten_func(i, f)
        seen = []

        def same(pc, ins):
            assert ff.origins[pc] is ins, (pc, ins)
            seen.append(pc)
            return (ins,)

        assert ast.rebuild(f.body, same) == f.body
        assert seen == [pc for pc, op in enumerate(ff.code)
                        if op[0] not in (flat.T_ELSE, flat.T_END)]
