"""Natural loop discovery, preheaders, liveness, reaching defs, IVs,
trip counts."""

import pytest

from repro.analysis import (
    analyze_trip_count,
    ensure_preheader,
    find_basic_ivs,
    find_loops,
    liveness,
    reaching_definitions,
)
from repro.ir import Const, Reg, parse_module, verify_function

SIMPLE_LOOP = """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    br lt r1, r0, body, out
body:
    r1 = add r1, 1
    jump head
out:
    ret r1
}
"""

NESTED = """
func f(r0) {
entry:
    r1 = 0
    jump outer
outer:
    r2 = 0
    jump inner
inner:
    r2 = add r2, 1
    br lt r2, r0, inner, latch
latch:
    r1 = add r1, 1
    br lt r1, r0, outer, done
done:
    ret r1
}
"""

SINGLE_BLOCK = """
func f(r0, r1) {
entry:
    br le r1, 0, done, loop
loop:
    r2 = load.2s [r0]
    r0 = add r0, 2
    r1 = sub r1, 1
    br gt r1, 0, loop, done
done:
    ret r1
}
"""


def func_of(text):
    return next(iter(parse_module(text)))


class TestFindLoops:
    def test_simple_loop_found(self):
        loops = find_loops(func_of(SIMPLE_LOOP))
        assert len(loops) == 1
        assert loops[0].header == "head"
        assert loops[0].blocks == {"head", "body"}
        assert loops[0].latches == {"body"}

    def test_nested_loops_innermost_first(self):
        loops = find_loops(func_of(NESTED))
        assert len(loops) == 2
        assert loops[0].header == "inner"
        assert loops[1].header == "outer"
        assert loops[0].blocks < loops[1].blocks

    def test_single_block_self_loop(self):
        loops = find_loops(func_of(SINGLE_BLOCK))
        assert len(loops) == 1
        assert loops[0].blocks == {"loop"}
        assert loops[0].header in loops[0].latches

    def test_exits(self):
        func = func_of(SIMPLE_LOOP)
        loop = find_loops(func)[0]
        assert loop.exits(func) == {"out"}

    def test_no_loops_in_straight_line(self):
        func = func_of("func f(r0) {\nentry:\n    ret r0\n}")
        assert find_loops(func) == ()


class TestPreheader:
    def test_jump_only_predecessor_reused_as_preheader(self):
        # entry ends in an unconditional jump to the header, so it already
        # is a preheader.
        func = func_of(SIMPLE_LOOP)
        loop = find_loops(func)[0]
        preheader = ensure_preheader(func, loop)
        assert preheader.label == "entry"

    def test_created_when_entry_branches(self):
        func = func_of(SINGLE_BLOCK)
        loop = find_loops(func)[0]
        preheader = ensure_preheader(func, loop)
        verify_function(func)
        assert preheader.label != "entry"
        assert preheader.successors() == ["loop"]
        # Entry now reaches the loop only through the preheader.
        term = func.block("entry").terminator
        assert preheader.label in (term.iftrue, term.iffalse)

    def test_existing_preheader_reused(self):
        func = func_of(SINGLE_BLOCK)
        loop = find_loops(func)[0]
        first = ensure_preheader(func, loop)
        second = ensure_preheader(func, loop)
        assert first is second


class TestLiveness:
    def test_loop_variable_live_around_loop(self):
        func = func_of(SIMPLE_LOOP)
        info = liveness(func)
        assert 1 in info.live_in["head"]
        assert 0 in info.live_in["head"]  # the bound

    def test_dead_after_last_use(self):
        func = func_of(SIMPLE_LOOP)
        info = liveness(func)
        assert 0 not in info.live_in["out"]

    def test_live_after_per_instruction(self):
        func = func_of(SIMPLE_LOOP)
        info = liveness(func)
        after = info.live_after(func, "entry")
        assert 1 in after[0]  # r1 live after "r1 = 0"


class TestReachingDefs:
    def test_two_defs_reach_head(self):
        func = func_of(SIMPLE_LOOP)
        reaching = reaching_definitions(func)
        sites = reaching.reaching_at("head", 0, 1)
        assert sites == {("entry", 0), ("body", 0)}

    def test_unique_def(self):
        func = func_of(SIMPLE_LOOP)
        reaching = reaching_definitions(func)
        assert reaching.unique_def_at("body", 0, 0) is None  # param: no def
        assert reaching.unique_def_at("out", 0, 1) is None   # two defs


class TestInductionVariables:
    def test_counter_is_iv(self):
        func = func_of(SIMPLE_LOOP)
        loop = find_loops(func)[0]
        ivs = find_basic_ivs(func, loop)
        assert list(ivs) == [1]
        assert ivs[1].step == 1

    def test_pointer_and_counter_ivs(self):
        func = func_of(SINGLE_BLOCK)
        loop = find_loops(func)[0]
        ivs = find_basic_ivs(func, loop)
        assert ivs[0].step == 2
        assert ivs[1].step == -1

    def test_non_iv_excluded(self):
        func = func_of(
            """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    r1 = mul r1, 2
    br lt r1, r0, head, out
out:
    ret r1
}
"""
        )
        loop = find_loops(func)[0]
        assert find_basic_ivs(func, loop) == {}


class TestTripCount:
    def test_top_tested_loop_not_counted(self):
        # Trip counting targets rotated (bottom-tested) loops; the latch of
        # a top-tested loop ends in a plain jump.
        func = func_of(SIMPLE_LOOP)
        loop = find_loops(func)[0]
        assert analyze_trip_count(func, loop) is None

    def test_up_counting_lt(self):
        func = func_of(
            """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    r1 = add r1, 1
    br lt r1, r0, head, out
out:
    ret r1
}
"""
        )
        loop = find_loops(func)[0]
        trip = analyze_trip_count(func, loop)
        assert trip is not None
        assert trip.iv.reg == Reg(1)
        assert trip.rel == "lt"
        assert trip.bound == Reg(0)
        assert trip.exit_label == "out"

    def test_down_counting_gt(self):
        func = func_of(SINGLE_BLOCK)
        loop = find_loops(func)[0]
        trip = analyze_trip_count(func, loop)
        assert trip is not None
        assert trip.step == -1
        assert trip.rel == "gt"
        assert trip.bound == Const(0)

    def test_swapped_operands_normalized(self):
        func = func_of(
            """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    r1 = add r1, 1
    br gt r0, r1, head, out
out:
    ret r1
}
"""
        )
        loop = find_loops(func)[0]
        trip = analyze_trip_count(func, loop)
        assert trip is not None
        assert trip.rel == "lt"  # r1 < r0 after orientation

    def test_wrong_direction_rejected(self):
        func = func_of(
            """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    r1 = sub r1, 1
    br lt r1, r0, head, out
out:
    ret r1
}
"""
        )
        loop = find_loops(func)[0]
        assert analyze_trip_count(func, loop) is None

    def test_variant_bound_rejected(self):
        func = func_of(
            """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    r1 = add r1, 1
    r0 = add r0, 2
    br lt r1, r0, head, out
out:
    ret r1
}
"""
        )
        loop = find_loops(func)[0]
        assert analyze_trip_count(func, loop) is None

    def test_ne_with_unit_step_accepted(self):
        func = func_of(
            """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    r1 = add r1, 1
    br ne r1, r0, head, out
out:
    ret r1
}
"""
        )
        loop = find_loops(func)[0]
        trip = analyze_trip_count(func, loop)
        assert trip is not None and trip.rel == "ne"

    def test_ne_with_wide_step_rejected(self):
        func = func_of(
            """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    r1 = add r1, 2
    br ne r1, r0, head, out
out:
    ret r1
}
"""
        )
        loop = find_loops(func)[0]
        assert analyze_trip_count(func, loop) is None
