"""Round-trip tests for the RTL text format."""

import pytest

from repro.errors import ParseError
from repro.ir import format_instr, format_module, parse_module, verify_module
from repro.ir.rtl import (
    BinOp,
    Call,
    CondJump,
    Const,
    Extract,
    FrameAddr,
    GlobalAddr,
    Insert,
    Jump,
    Load,
    Mov,
    Reg,
    Ret,
    Store,
    UnOp,
)

EXAMPLE = """
module demo

global image[1024] align 16

func kernel(r0, r1) {
    frame buf[64] align 8
entry:
    r2 = 0
    r3 = add r0, 8
    r4 = load.2s [r3 + 4]
    r5 = load.1u [r0]
    r6 = uload.8u [r0 + 16]
    r7 = ext.2s r6, pos=r3
    r8 = ins.1 r7, r5, pos=2
    r9 = neg r8
    r10 = sext2 r9
    store.4 [r1 - 4], r10
    ustore.8 [r1], r7
    r11 = frameaddr buf
    r12 = globaladdr image
    r13 = call helper(r11, 5)
    call helper(r12, r13)
    br ltu r3, r12, entry, out
out:
    ret r2
}

func helper(r0, r1) {
entry:
    ret r1
}
"""


class TestRoundTrip:
    def test_parse_then_format_then_parse_is_stable(self):
        first = parse_module(EXAMPLE)
        text = format_module(first)
        second = parse_module(text)
        assert format_module(second) == text

    def test_parsed_module_verifies(self):
        module = parse_module(EXAMPLE)
        verify_module(module)

    def test_global_metadata_survives(self):
        module = parse_module(EXAMPLE)
        var = module.globals["image"]
        assert (var.size, var.align) == (1024, 16)

    def test_frame_slot_survives(self):
        module = parse_module(EXAMPLE)
        assert module.function("kernel").frame_slots["buf"] == (64, 8)

    def test_params_parsed(self):
        module = parse_module(EXAMPLE)
        assert [p.index for p in module.function("kernel").params] == [0, 1]

    def test_new_regs_do_not_collide_after_parse(self):
        module = parse_module(EXAMPLE)
        func = module.function("kernel")
        fresh = func.new_reg()
        assert fresh.index > func.max_reg_index() - 1

    def test_each_operand_mnemonic_and_label_is_held_once(self):
        # The compile cache keeps revived programs for the process's
        # lifetime: one object per register index, constant value,
        # mnemonic and label, however often the text mentions it.
        module = parse_module(
            "func f(r0) {\ntop:\n    r1 = add r0, 8\n    r2 = add r1, 8\n"
            "    br lt r2, 8, top, done\ndone:\n    ret r2\n}\n"
        )
        func = module.function("f")
        top, done = func.blocks
        first, second, branch = top.instrs
        assert func.params[0] is first.a
        assert first.dst is second.a
        assert second.dst is branch.a is done.instrs[0].value
        assert first.b is second.b is branch.b
        assert first.op is second.op
        assert branch.iftrue is top.label and branch.iffalse is done.label


INSTR_CASES = [
    Mov(Reg(1), Const(-7)),
    Mov(Reg(1), Reg(2)),
    BinOp("add", Reg(3), Reg(1), Const(4)),
    BinOp("shra", Reg(3), Reg(1), Const(63)),
    BinOp("remu", Reg(3), Reg(1), Reg(2)),
    UnOp("not", Reg(2), Reg(1)),
    UnOp("zext4", Reg(2), Reg(1)),
    Load(Reg(1), Reg(2), 0, 1, signed=False),
    Load(Reg(1), Reg(2), -12, 4, signed=True),
    Load(Reg(1), Reg(2), 0, 8, signed=False, unaligned=True),
    Store(Reg(2), 6, Const(255), 2),
    Store(Reg(2), 0, Reg(3), 8, unaligned=True),
    Extract(Reg(1), Reg(2), Const(6), 2, True),
    Extract(Reg(1), Reg(2), Reg(3), 1, False),
    Insert(Reg(1), Const(0), Reg(2), Const(0), 2),
    FrameAddr(Reg(1), "slot"),
    GlobalAddr(Reg(1), "g"),
    Call(Reg(1), "f", [Reg(2), Const(-1)]),
    Call(None, "f", []),
    Jump("somewhere"),
    CondJump("geu", Reg(1), Const(8), "a", "b"),
    Ret(None),
    Ret(Const(3)),
]


@pytest.mark.parametrize(
    "instr", INSTR_CASES, ids=lambda i: type(i).__name__ + "/" +
    format_instr(i)[:25]
)
def test_each_instruction_round_trips(instr):
    from repro.ir.parser import _parse_instr

    text = format_instr(instr)
    parsed = _parse_instr(text, 1)
    assert format_instr(parsed) == text


class TestParseErrors:
    @pytest.mark.parametrize(
        "snippet",
        [
            "func f() {\nentry:\n    bogus r1, r2\n}",
            "func f() {\n    r1 = 0\n}",          # instr before label
            "func f() {\nentry:\n    r1 = load.3s [r0]\n}",
            "func f() {\nentry:\n    br zz r0, r1, a, b\n}",
            "func f() {",                           # unclosed
            "}",                                    # unmatched
            "func f() {\nentry:\n    r1 = add r0\n}",  # arity
        ],
    )
    def test_bad_input_raises(self, snippet):
        with pytest.raises(ParseError):
            parse_module(snippet)

    def test_error_carries_line_number(self):
        try:
            parse_module("func f() {\nentry:\n    r1 = wat r2, r3\n}")
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected ParseError")
