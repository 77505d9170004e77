"""Extensions beyond the paper's minimum: multi-width tiles and the
unaligned (ldq_u-pair) load form of Figure 3's UnAlignedWideType."""

import pytest

from repro.analysis import find_loops
from repro.coalesce import classify_partitions, find_runs
from repro.coalesce.coalescer import coalescible_widths
from repro.ir import Load, parse_module
from repro.machine import get_machine
from repro.pipeline import compile_minic
from repro.sim.plan import to_signed

SUM_SHORTS = """
int f(short *a, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i];
    return s;
}
"""

XOR_BYTES = """
void xorb(unsigned char *dst, unsigned char *a, unsigned char *b, int n) {
    int i;
    for (i = 0; i < n; i++)
        dst[i] = a[i] ^ b[i];
}
"""


class TestCoalescibleWidths:
    def test_alpha_offers_quad_and_long(self):
        assert coalescible_widths(get_machine("alpha")) == (8, 4)

    def test_m88100_offers_word_and_half(self):
        assert coalescible_widths(get_machine("m88100")) == (4, 2)


class TestMultiWidthRuns:
    def _partition_runs(self, text, widths):
        func = next(iter(parse_module(text)))
        loop = [l for l in find_loops(func) if len(l.blocks) == 1][0]
        block = func.block(loop.header)
        partitions = classify_partitions(func, loop, block)
        return find_runs(partitions, widths)

    def test_leftover_pair_tiles_smaller_width(self):
        # Six shorts with step 16: one quad tile (4 refs) + one long
        # tile (2 refs) on the Alpha.
        text = (
            "func f(r0, r1, r2) {\nentry:\n    jump loop\nloop:\n"
            + "".join(
                f"    r{i + 3} = load.2s [r0 + {2 * i}]\n" for i in range(6)
            )
            + "    r0 = add r0, 16\n    br ltu r0, r1, loop, out\n"
            "out:\n    ret r2\n}"
        )
        runs = self._partition_runs(text, (8, 4))
        widths = sorted(r.wide_width for r in runs)
        assert widths == [4, 8]
        assert sum(len(r.refs) for r in runs) == 6

    def test_step_must_be_multiple_of_wide(self):
        # step 2 pointer: a 4-byte tile would drift off alignment.
        text = (
            "func f(r0, r1, r2) {\nentry:\n    jump loop\nloop:\n"
            "    r3 = load.1u [r0]\n    r4 = load.1u [r0 + 1]\n"
            "    r5 = load.1u [r0 + 2]\n    r6 = load.1u [r0 + 3]\n"
            "    r0 = add r0, 2\n    br ltu r0, r1, loop, out\n"
            "out:\n    ret r2\n}"
        )
        assert self._partition_runs(text, (4,)) == []
        # ...but a 2-byte tile moves in lockstep with the pointer.
        runs = self._partition_runs(text, (2,))
        assert len(runs) == 2

    def test_sub_word_tile_correct_on_big_endian(self):
        # Two shorts -> one 32-bit load on the (big-endian) 88100; the
        # extract positions must account for the value sitting in the
        # register's low half.
        prog = compile_minic(
            SUM_SHORTS, "m88100", "coalesce-all", unroll_factor=2,
            force_coalesce=True,
        )
        assert any(r.applied for r in prog.coalesce_reports)
        sim = prog.simulator()
        values = [3, -7, 1000, -1000, 17, 4, -2, 9]
        a = sim.alloc_array("a", size=2 * len(values))
        sim.write_words(a, values, 2)
        result = sim.call("f", a, len(values))
        assert to_signed(result, 32) == sum(values)

    def test_sub_word_tile_correct_on_little_endian(self):
        prog = compile_minic(
            SUM_SHORTS, "alpha", "coalesce-all", unroll_factor=2,
            force_coalesce=True,
        )
        applied = [r for r in prog.coalesce_reports if r.applied]
        assert applied
        lcopy = prog.module.function("f").block(applied[0].lcopy_label)
        wide_loads = [
            i for i in lcopy.instrs if isinstance(i, Load) and i.width == 4
        ]
        assert wide_loads  # a longword, not a quadword
        sim = prog.simulator()
        values = [3, -7, 1000, -1000, 17, 4]
        a = sim.alloc_array("a", size=2 * len(values))
        sim.write_words(a, values, 2)
        result = sim.call("f", a, len(values))
        assert to_signed(result, 64) == sum(values)


class TestUnalignedLoads:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_minic(
            XOR_BYTES, "alpha", "coalesce-all", unaligned_loads=True
        )

    def _run(self, program, n, offset_a, offset_b):
        sim = program.simulator()
        a_vals = [(i * 31) % 256 for i in range(n)]
        b_vals = [(i * 17) % 256 for i in range(n)]
        d = sim.alloc_array("d", size=n)
        a = sim.alloc_array("a", size=n + 8, offset=offset_a)
        b = sim.alloc_array("b", size=n + 8, offset=offset_b)
        sim.write_words(a, a_vals, 1)
        sim.write_words(b, b_vals, 1)
        sim.call("xorb", d, a, b, n)
        assert sim.read_words(d, n, 1, signed=False) == [
            x ^ y for x, y in zip(a_vals, b_vals)
        ]
        label = [r for r in program.coalesce_reports if r.applied][0]
        return sim, sim.block_count("xorb", label.lcopy_label)

    @pytest.mark.parametrize("offsets", [(0, 0), (1, 0), (3, 5), (7, 2)])
    def test_any_alignment_takes_coalesced_loop(self, program, offsets):
        _sim, taken = self._run(program, 128, *offsets)
        assert taken == 128 // 8

    def test_no_load_alignment_checks_emitted(self, program):
        # Only the store run needs an alignment check.
        func = program.module.function("xorb")
        check_blocks = [b for b in func.blocks if b.label.startswith("chk")]
        from repro.ir import BinOp, Const

        alignment_checks = [
            i
            for b in check_blocks
            for i in b.instrs
            if isinstance(i, BinOp) and i.op == "and"
            and isinstance(i.b, Const) and i.b.value == 7
        ]
        assert len(alignment_checks) == 1  # dst only

    def test_unaligned_mode_beats_fallback_when_misaligned(self):
        aligned_mode = compile_minic(XOR_BYTES, "alpha", "coalesce-all")
        unaligned_mode = compile_minic(
            XOR_BYTES, "alpha", "coalesce-all", unaligned_loads=True
        )
        n = 512

        def cycles(program, offset):
            sim = program.simulator()
            d = sim.alloc_array("d", size=n)
            a = sim.alloc_array("a", size=n + 8, offset=offset)
            b = sim.alloc_array("b", size=n + 8, offset=offset)
            sim.write_words(a, [1] * n, 1)
            sim.write_words(b, [2] * n, 1)
            sim.call("xorb", d, a, b, n)
            return sim.report().total_cycles

        # Misaligned input: aligned mode falls back, unaligned keeps
        # coalescing.
        assert cycles(unaligned_mode, 3) < cycles(aligned_mode, 3)
        # Aligned input: the single aligned load is cheaper.
        assert cycles(aligned_mode, 0) <= cycles(unaligned_mode, 0)

    def test_ignored_on_machines_without_unaligned_access(self):
        program = compile_minic(
            XOR_BYTES, "m88100", "coalesce-all", unaligned_loads=True
        )
        # Falls back to the aligned form; still correct.
        sim = program.simulator()
        n = 64
        d = sim.alloc_array("d", size=n)
        a = sim.alloc_array("a", size=n)
        b = sim.alloc_array("b", size=n)
        sim.write_words(a, [5] * n, 1)
        sim.write_words(b, [3] * n, 1)
        sim.call("xorb", d, a, b, n)
        assert sim.read_words(d, n, 1, signed=False) == [6] * n


class TestGreedyRefinement:
    def test_unhelpful_runs_dropped_without_force(self):
        # Convolution on the 88100 finds six candidate runs; the greedy
        # refinement keeps only the subset the schedule model says
        # actually helps, and the committed copy must be no slower than
        # the original.
        from repro.bench.programs import get_benchmark

        program = compile_minic(
            get_benchmark("convolution").source, "m88100",
            "coalesce-loads",
        )
        applied = [r for r in program.coalesce_reports if r.applied]
        assert applied
        report = applied[0]
        assert report.runs_found == 6
        assert report.runs_safe < report.runs_found
        assert report.cycles_coalesced < report.cycles_original

    def test_refined_convolution_still_correct(self):
        from repro.bench import run_benchmark

        result = run_benchmark(
            "convolution", "m88100", "coalesce-loads", width=32, height=16
        )
        assert result.output_ok
