"""Loop optimizations: LICM, strength reduction + LFTR, unrolling."""

import pytest

from repro.ir import BinOp, Const, Load, Reg, Store, parse_module, verify_function
from repro.machine import get_machine
from repro.opt import (
    loop_invariant_code_motion,
    strength_reduce,
    unroll_counted_loop,
    unroll_function,
)
from repro.opt.pass_manager import PassContext, cleanup
from repro.opt.unroll import choose_unroll_factor, compact_ivs
from repro.analysis import find_loops
from repro.sim import Simulator
from repro.pipeline import compile_and_run


@pytest.fixture
def ctx():
    return PassContext(get_machine("alpha"))


def func_of(text):
    return next(iter(parse_module(text)))


SUM_LOOP_SRC = """
int f(short *a, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i];
    return s;
}
"""


class TestLICM:
    def test_invariant_hoisted(self, ctx):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = 0\n    jump loop\n"
            "loop:\n    r3 = mul r1, 8\n    r2 = add r2, r3\n"
            "    r0 = sub r0, 1\n    br gt r0, 0, loop, out\n"
            "out:\n    ret r2\n}"
        )
        loop_invariant_code_motion(func, ctx)
        verify_function(func)
        loop_instrs = func.block("loop").instrs
        assert not any(
            isinstance(i, BinOp) and i.op == "mul" for i in loop_instrs
        )

    def test_variant_not_hoisted(self, ctx):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = 0\n    jump loop\n"
            "loop:\n    r3 = mul r2, 8\n    r2 = add r2, r3\n"
            "    r0 = sub r0, 1\n    br gt r0, 0, loop, out\n"
            "out:\n    ret r2\n}"
        )
        loop_invariant_code_motion(func, ctx)
        assert any(
            isinstance(i, BinOp) and i.op == "mul"
            for i in func.block("loop").instrs
        )

    def test_division_not_hoisted(self, ctx):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    r2 = 0\n    jump loop\n"
            "loop:\n    r3 = div r1, 4\n    r2 = add r2, r3\n"
            "    r0 = sub r0, 1\n    br gt r0, 0, loop, out\n"
            "out:\n    ret r2\n}"
        )
        loop_invariant_code_motion(func, ctx)
        assert any(
            isinstance(i, BinOp) and i.op == "div"
            for i in func.block("loop").instrs
        )


class TestStrengthReduction:
    def _reduced_loop(self, source, machine="alpha"):
        from repro.frontend import compile_source

        mach = get_machine(machine)
        module = compile_source(source, word_bytes=mach.word_bytes)
        ctx = PassContext(mach)
        func = next(iter(module))
        cleanup(func, ctx)
        loop_invariant_code_motion(func, ctx)
        cleanup(func, ctx)
        changed = strength_reduce(func, ctx)
        cleanup(func, ctx)
        verify_function(func)
        return func, changed

    def test_index_becomes_pointer(self):
        func, changed = self._reduced_loop(SUM_LOOP_SRC)
        assert changed
        loop = [l for l in find_loops(func) if len(l.blocks) == 1][0]
        block = func.block(loop.header)
        loads = [i for i in block.instrs if isinstance(i, Load)]
        assert len(loads) == 1
        # The address is a plain pointer register, no shl/mul remains.
        assert not any(
            isinstance(i, BinOp) and i.op in ("shl", "mul")
            for i in block.instrs
        )

    def test_lftr_retires_counter(self):
        func, _ = self._reduced_loop(SUM_LOOP_SRC)
        loop = [l for l in find_loops(func) if len(l.blocks) == 1][0]
        block = func.block(loop.header)
        # Only the accumulator add and the pointer increment remain as adds;
        # the counter i is gone entirely (2 adds + load + branch).
        assert len(block.instrs) == 4

    def test_semantics_preserved(self):
        values = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5]
        result, _ = compile_and_run(
            SUM_LOOP_SRC, "f", ["a", len(values)], config="vpo",
            arrays=[("a", 2, values)], unroll_factor=None,
        )
        assert result == sum(values)

    def test_negative_direction_pointer(self):
        source = """
        int f(short *a, int n) {
            int i, s;
            s = 0;
            for (i = 0; i < n; i++)
                s += a[n - 1 - i];
            return s;
        }
        """
        func, changed = self._reduced_loop(source)
        assert changed
        values = [2, 4, 6, 8, 10]
        result, _ = compile_and_run(
            source, "f", ["a", 5], arrays=[("a", 2, values)]
        )
        assert result == 30

    def test_shared_pointer_for_offset_neighbours(self):
        source = """
        int f(short *a, int n) {
            int i, s;
            s = 0;
            for (i = 1; i < n; i++)
                s += a[i] - a[i-1];
            return s;
        }
        """
        func, changed = self._reduced_loop(source)
        assert changed
        loop = [l for l in find_loops(func) if len(l.blocks) == 1][0]
        block = func.block(loop.header)
        loads = [i for i in block.instrs if isinstance(i, Load)]
        bases = {l.base.index for l in loads}
        assert len(bases) == 1  # one shared pointer, two displacements
        disps = sorted(l.disp for l in loads)
        assert disps == [-2, 0] or disps == [0, 2]


class TestUnroll:
    def _unrolled(self, factor=4, source=SUM_LOOP_SRC, machine="alpha"):
        from repro.frontend import compile_source

        mach = get_machine(machine)
        module = compile_source(source, word_bytes=mach.word_bytes)
        ctx = PassContext(mach)
        func = next(iter(module))
        cleanup(func, ctx)
        loop_invariant_code_motion(func, ctx)
        cleanup(func, ctx)
        strength_reduce(func, ctx)
        cleanup(func, ctx)
        changed = unroll_function(func, ctx, factor=factor)
        cleanup(func, ctx)
        verify_function(func)
        return func, changed

    def test_body_replicated_and_compacted(self):
        func, changed = self._unrolled(4)
        assert changed
        loops = [l for l in find_loops(func) if len(l.blocks) == 1]
        main = max(
            loops, key=lambda l: len(func.block(l.header).instrs)
        )
        block = func.block(main.header)
        loads = [i for i in block.instrs if isinstance(i, Load)]
        assert len(loads) == 4
        assert sorted(l.disp for l in loads) == [0, 2, 4, 6]
        # A single combined pointer increment of 8.
        increments = [
            i
            for i in block.instrs
            if isinstance(i, BinOp) and i.op == "add"
            and isinstance(i.b, Const) and i.b.value == 8
        ]
        assert len(increments) == 1

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17])
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_all_trip_counts_correct(self, n, factor):
        values = [(i * 7) % 23 - 11 for i in range(max(n, 1))]
        result, _ = compile_and_run(
            SUM_LOOP_SRC, "f", ["a", n], config="vpo",
            arrays=[("a", 2, values)], unroll_factor=factor,
        )
        assert result == sum(values[:n])

    def test_do_while_zero_condition_still_runs_once(self):
        source = """
        int f(int n) {
            int c;
            c = 0;
            do { c++; n--; } while (n > 0);
            return c;
        }
        """
        for n in (0, 1, 3, 9):
            result, _ = compile_and_run(source, "f", [n], config="vpo",
                                        unroll_factor=4)
            assert result == max(n, 1)

    def test_down_counting_loop(self):
        source = """
        int f(short *a, int n) {
            int s;
            s = 0;
            while (n > 0) { n--; s += a[n]; }
            return s;
        }
        """
        values = list(range(-5, 8))
        for n in (0, 1, 5, 12, 13):
            result, _ = compile_and_run(
                source, "f", ["a", n], config="vpo",
                arrays=[("a", 2, values)], unroll_factor=4,
            )
            assert result == sum(values[:n])

    def test_factor_below_two_rejected(self, ctx):
        from repro.errors import PassError

        func = func_of(
            "func f(r0) {\nentry:\n    r1 = 0\n    jump head\n"
            "head:\n    r1 = add r1, 1\n    br lt r1, r0, head, out\n"
            "out:\n    ret r1\n}"
        )
        loop = find_loops(func)[0]
        with pytest.raises(PassError):
            unroll_counted_loop(func, ctx, loop, 1)

    def test_multi_block_loop_untouched(self, ctx):
        func = func_of(
            "func f(r0) {\nentry:\n    r1 = 0\n    jump head\n"
            "head:\n    br lt r1, r0, body, out\n"
            "body:\n    r1 = add r1, 1\n    jump head\n"
            "out:\n    ret r1\n}"
        )
        loop = find_loops(func)[0]
        assert not unroll_counted_loop(func, ctx, loop, 4)


class TestUnrollHeuristic:
    def test_factor_from_narrow_width(self, ctx):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    jump loop\n"
            "loop:\n    r2 = load.1u [r0]\n    r0 = add r0, 1\n"
            "    r1 = sub r1, 1\n    br gt r1, 0, loop, out\n"
            "out:\n    ret 0\n}"
        )
        loop = find_loops(func)[0]
        decision = choose_unroll_factor(func, ctx, loop)
        assert decision.factor == 8  # bytes on a 64-bit machine

    def test_factor_shrinks_for_tiny_icache(self):
        ctx = PassContext(get_machine("m68030"))
        func = func_of(
            "func f(r0, r1) {\nentry:\n    jump loop\n"
            "loop:\n"
            + "".join(f"    r{i+4} = load.1u [r0 + {i}]\n" for i in range(8))
            + "    r0 = add r0, 1\n    r1 = sub r1, 1\n"
            "    br gt r1, 0, loop, out\n"
            "out:\n    ret 0\n}"
        )
        loop = find_loops(func)[0]
        decision = choose_unroll_factor(func, ctx, loop)
        assert decision.factor < 4


class TestCompactIVs:
    def test_displacements_absorbed(self, ctx):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    jump loop\n"
            "loop:\n"
            "    r2 = load.2s [r0]\n"
            "    r0 = add r0, 2\n"
            "    r3 = load.2s [r0]\n"
            "    r0 = add r0, 2\n"
            "    r4 = add r2, r3\n"
            "    store.4 [r1], r4\n"
            "    br ltu r0, r1, loop, out\n"
            "out:\n    ret 0\n}"
        )
        block = func.block("loop")
        assert compact_ivs(func, block)
        loads = [i for i in block.instrs if isinstance(i, Load)]
        assert [l.disp for l in loads] == [0, 2]
        adds = [
            i for i in block.instrs
            if isinstance(i, BinOp) and i.dst == Reg(0)
        ]
        assert len(adds) == 1 and adds[0].b == Const(4)

    def test_single_increment_left_alone(self, ctx):
        func = func_of(
            "func f(r0, r1) {\nentry:\n    jump loop\n"
            "loop:\n    r2 = load.2s [r0]\n    r0 = add r0, 2\n"
            "    br ltu r0, r1, loop, out\nout:\n    ret 0\n}"
        )
        assert not compact_ivs(func, func.block("loop"))
