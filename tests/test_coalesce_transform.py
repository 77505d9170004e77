"""The coalescing transformation end to end: widening, run-time checks,
profitability, fallback behaviour."""

import pytest

from repro.ir import Load, Store, format_instr
from repro.pipeline import compile_minic
from repro.sim.plan import to_signed

DOT_SOURCE = """
int dotproduct(short a[], short b[], int n) {
    int c, i;
    c = 0;
    for (i = 0; i < n; i++)
        c += a[i] * b[i];
    return c;
}
"""

COPY_SOURCE = """
void copy(unsigned char *dst, unsigned char *src, int n) {
    int i;
    for (i = 0; i < n; i++)
        dst[i] = src[i];
}
"""


def stage_dot(prog, n, a_offset=0, b_offset=0, a_values=None):
    sim = prog.simulator()
    a_values = a_values or [(i * 13) % 100 - 50 for i in range(n)]
    b_values = [(i * 7) % 60 - 30 for i in range(n)]
    a = sim.alloc_array("a", size=2 * max(n, 1) + 8, offset=a_offset)
    b = sim.alloc_array("b", size=2 * max(n, 1) + 8, offset=b_offset)
    sim.write_words(a, a_values, 2)
    sim.write_words(b, b_values, 2)
    expected = sum(x * y for x, y in zip(a_values, b_values))
    return sim, a, b, expected


class TestFigure1Shape:
    """E5: the dot product must match Figure 1c's structure."""

    def test_coalesced_loop_has_two_wide_loads(self):
        prog = compile_minic(DOT_SOURCE, "alpha", "coalesce-all")
        report = [r for r in prog.coalesce_reports if r.applied][0]
        lcopy = prog.module.function("dotproduct").block(report.lcopy_label)
        loads = [i for i in lcopy.instrs if isinstance(i, Load)]
        assert len(loads) == 2
        assert all(l.width == 8 for l in loads)

    def test_memory_reference_reduction_is_75_percent(self):
        # 2n narrow refs -> 2n/4 wide refs when the coalesced path runs.
        prog = compile_minic(DOT_SOURCE, "alpha", "coalesce-all")
        n = 256
        sim, a, b, expected = stage_dot(prog, n)
        value = sim.call("dotproduct", a, b, n)
        assert to_signed(value, 64) == expected
        report = sim.report()
        # 2 wide loads per 4 iterations = n/2 total (plus nothing else).
        assert report.load_count == n // 2
        baseline = compile_minic(DOT_SOURCE, "alpha", "vpo")
        sim2, a2, b2, _ = stage_dot(baseline, n)
        sim2.call("dotproduct", a2, b2, n)
        assert sim2.report().load_count == 2 * n
        assert report.load_count * 4 == sim2.report().load_count

    def test_extract_positions_are_constants(self):
        prog = compile_minic(DOT_SOURCE, "alpha", "coalesce-all")
        report = [r for r in prog.coalesce_reports if r.applied][0]
        lcopy = prog.module.function("dotproduct").block(report.lcopy_label)
        from repro.ir import Const, Extract

        extracts = [i for i in lcopy.instrs if isinstance(i, Extract)]
        assert len(extracts) == 8
        assert all(isinstance(e.pos, Const) for e in extracts)
        assert sorted(e.pos.value for e in extracts) == [
            0, 0, 2, 2, 4, 4, 6, 6
        ]


class TestRuntimeChecks:
    """E6: Figure 5's run-time alias/alignment behaviour."""

    def _coalesced_label(self, prog, function):
        reports = [
            r for r in prog.coalesce_reports
            if r.applied and r.function == function
        ]
        return reports[0].lcopy_label

    def test_aligned_input_takes_coalesced_loop(self):
        prog = compile_minic(DOT_SOURCE, "alpha", "coalesce-all")
        label = self._coalesced_label(prog, "dotproduct")
        sim, a, b, expected = stage_dot(prog, 64)
        value = sim.call("dotproduct", a, b, 64)
        assert to_signed(value, 64) == expected
        assert sim.block_count("dotproduct", label) == 16
        assert sim.block_count("dotproduct", "loop0") == 0

    @pytest.mark.parametrize("offsets", [(2, 0), (0, 4), (6, 2)])
    def test_misaligned_input_falls_back(self, offsets):
        prog = compile_minic(DOT_SOURCE, "alpha", "coalesce-all")
        label = self._coalesced_label(prog, "dotproduct")
        sim, a, b, expected = stage_dot(
            prog, 64, a_offset=offsets[0], b_offset=offsets[1]
        )
        value = sim.call("dotproduct", a, b, 64)
        assert to_signed(value, 64) == expected       # still correct
        assert sim.block_count("dotproduct", label) == 0

    def test_overlapping_arrays_fall_back(self):
        prog = compile_minic(COPY_SOURCE, "alpha", "coalesce-all")
        label = self._coalesced_label(prog, "copy")
        sim = prog.simulator()
        base = sim.alloc_array("buf", size=128)
        values = [(i * 3) % 256 for i in range(64)]
        sim.write_words(base, values, 1)
        # dst overlaps src shifted by one byte: memmove semantics differ
        # from memcpy; the safe loop preserves the original element order.
        sim.call("copy", base + 8, base, 48)
        assert sim.block_count("copy", label) == 0
        got = sim.read_words(base + 8, 48, 1, signed=False)
        # The reference behaviour: byte-at-a-time forward copy.
        expected = list(values)
        for i in range(48):
            expected[8 + i] = expected[i]
        assert got == expected[8:56]

    def test_disjoint_arrays_take_coalesced_loop(self):
        prog = compile_minic(COPY_SOURCE, "alpha", "coalesce-all")
        label = self._coalesced_label(prog, "copy")
        sim = prog.simulator()
        values = [(i * 3) % 256 for i in range(64)]
        src = sim.alloc_array("src", bytes(values))
        dst = sim.alloc_array("dst", size=64)
        sim.call("copy", dst, src, 64)
        assert sim.block_count("copy", label) == 8
        assert sim.read_words(dst, 64, 1, signed=False) == values

    def test_check_overhead_is_small(self):
        # "Typically, 10 to 15 instructions must be added in the loop
        # preheader" (§4).
        prog = compile_minic(DOT_SOURCE, "alpha", "coalesce-all")
        plain = compile_minic(DOT_SOURCE, "alpha", "vpo")
        func = prog.module.function("dotproduct")
        base = plain.module.function("dotproduct")
        report = [r for r in prog.coalesce_reports if r.applied][0]
        lcopy_size = len(func.block(report.lcopy_label).instrs)
        added = (
            sum(len(b.instrs) for b in func.blocks)
            - sum(len(b.instrs) for b in base.blocks)
            - lcopy_size
        )
        assert added <= 20

    def test_versioned_divisibility_check(self):
        prog = compile_minic(
            DOT_SOURCE, "alpha", "coalesce-all",
            versioned_divisibility=True,
        )
        label = self._coalesced_label(prog, "dotproduct")
        # Trip count divisible: coalesced loop runs.
        sim, a, b, expected = stage_dot(prog, 64)
        assert to_signed(sim.call("dotproduct", a, b, 64), 64) == expected
        assert sim.block_count("dotproduct", label) > 0


class TestProfitability:
    def test_alpha_accepts(self):
        prog = compile_minic(DOT_SOURCE, "alpha", "coalesce-all")
        report = [r for r in prog.coalesce_reports if r.runs_found][0]
        assert report.applied
        assert report.cycles_coalesced < report.cycles_original
        assert report.predicted_speedup > 1.0

    def test_m68030_declines_by_default(self):
        prog = compile_minic(
            DOT_SOURCE, "m68030", "coalesce-all", unroll_factor=2
        )
        reports = [r for r in prog.coalesce_reports if r.runs_found]
        assert reports
        assert not any(r.applied for r in reports)
        assert "not profitable" in reports[0].skipped_reason

    def test_m68030_forced_applies(self):
        prog = compile_minic(
            DOT_SOURCE, "m68030", "coalesce-all", unroll_factor=2,
            force_coalesce=True,
        )
        assert any(r.applied for r in prog.coalesce_reports)

    def test_m88100_coalesce_all_prefers_loads_only_subset(self):
        source = """
        void copy16(unsigned short *dst, unsigned short *src, int n) {
            int i;
            for (i = 0; i < n; i++)
                dst[i] = src[i];
        }
        """
        prog = compile_minic(source, "m88100", "coalesce-all")
        applied = [r for r in prog.coalesce_reports if r.applied]
        assert applied
        func = prog.module.function("copy16")
        lcopy = func.block(applied[0].lcopy_label)
        wide_loads = [
            i for i in lcopy.instrs
            if isinstance(i, Load) and i.width == 4
        ]
        wide_stores = [
            i for i in lcopy.instrs
            if isinstance(i, Store) and i.width == 4
        ]
        assert wide_loads          # loads coalesced
        assert not wide_stores     # stores left narrow: not profitable


class TestCorrectnessMatrix:
    """Differential execution across machines, configs and trip counts."""

    @pytest.mark.parametrize("machine", ["alpha", "m88100"])
    @pytest.mark.parametrize("config", ["coalesce-loads", "coalesce-all"])
    @pytest.mark.parametrize("n", [0, 1, 3, 4, 8, 13, 16, 31])
    def test_dot_product(self, machine, config, n):
        prog = compile_minic(DOT_SOURCE, machine, config)
        sim, a, b, expected = stage_dot(prog, n)
        value = sim.call("dotproduct", a, b, n)
        assert to_signed(value, prog.machine.word_bits) == expected

    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    def test_copy_forced(self, machine, n=37):
        prog = compile_minic(
            COPY_SOURCE, machine, "coalesce-all", force_coalesce=True,
            unroll_factor=4 if machine == "m68030" else None,
        )
        sim = prog.simulator()
        values = [(i * 11) % 256 for i in range(n)]
        src = sim.alloc_array("src", bytes(values))
        dst = sim.alloc_array("dst", size=n)
        sim.call("copy", dst, src, n)
        assert sim.read_words(dst, n, 1, signed=False) == values
