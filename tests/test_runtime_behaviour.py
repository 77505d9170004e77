"""Behavioural tests of the generated run-time machinery: versioned
divisibility checks, reversed-direction coalescing, allocation stagger."""

import pytest

from repro.ir import Store
from repro.machine import get_machine
from repro.pipeline import compile_minic
from repro.sim.plan import to_signed

DOT = """
int dot(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""

MIRROR_ROW = """
void rev(unsigned char *dst, unsigned char *src, int n) {
    int i;
    for (i = 0; i < n; i++)
        dst[n - 1 - i] = src[i];
}
"""


class TestVersionedDivisibility:
    """The paper's literal §2.2 check: ``n % 4 != 0 -> safe loop``."""

    @pytest.fixture(scope="class")
    def program(self):
        return compile_minic(
            DOT, "alpha", "coalesce-all", versioned_divisibility=True
        )

    def _run(self, program, n):
        sim = program.simulator()
        a_vals = [(i * 3) % 40 - 20 for i in range(n)]
        b_vals = [(i * 5) % 20 - 10 for i in range(n)]
        a = sim.alloc_array("a", size=2 * max(n, 1))
        b = sim.alloc_array("b", size=2 * max(n, 1))
        sim.write_words(a, a_vals, 2)
        sim.write_words(b, b_vals, 2)
        value = to_signed(sim.call("dot", a, b, n), 64)
        assert value == sum(x * y for x, y in zip(a_vals, b_vals))
        label = [r for r in program.coalesce_reports if r.applied][0]
        return sim.block_count("dot", label.lcopy_label)

    def test_divisible_count_coalesces(self, program):
        assert self._run(program, 32) > 0

    def test_check_chain_contains_mod_test(self, program):
        # The versioned check ANDs the trip count with (factor-1); CFG
        # simplification may merge the check block into the preheader,
        # and the factor is conservatively the machine's full coalescing
        # width when no explicit unroll factor was given.
        from repro.ir import BinOp, CondJump, Const

        func = program.module.function("dot")
        mod_tests = []
        for block in func.blocks:
            for position, instr in enumerate(block.instrs):
                if (
                    isinstance(instr, BinOp)
                    and instr.op in ("and", "remu")
                    and isinstance(instr.b, Const)
                    and instr.b.value in (3, 4, 7, 8)
                    and isinstance(block.terminator, CondJump)
                    and block.terminator.rel == "ne"
                ):
                    mod_tests.append(instr)
        assert mod_tests


class TestReversedDirection:
    """Mirror-style loops walk one pointer backwards; its stores still
    tile a wide word (the paper sorts offsets for exactly this)."""

    def test_store_run_coalesces_backwards(self):
        program = compile_minic(MIRROR_ROW, "alpha", "coalesce-all")
        applied = [r for r in program.coalesce_reports if r.applied]
        assert applied
        lcopy = program.module.function("rev").block(
            applied[0].lcopy_label
        )
        wide_stores = [
            i for i in lcopy.instrs
            if isinstance(i, Store) and i.width == 8
        ]
        assert len(wide_stores) == 1
        # The tile sits at negative displacements from the moving pointer.
        assert wide_stores[0].disp < 0

    @pytest.mark.parametrize("n", [8, 16, 24, 40])
    def test_reversal_correct_when_coalesced(self, n):
        program = compile_minic(MIRROR_ROW, "alpha", "coalesce-all")
        sim = program.simulator()
        values = [(i * 7) % 256 for i in range(n)]
        dst = sim.alloc_array("dst", size=n)
        src = sim.alloc_array("src", bytes(values))
        sim.call("rev", dst, src, n)
        assert sim.read_words(dst, n, 1, signed=False) == values[::-1]
        label = [r for r in program.coalesce_reports if r.applied][0]
        # n = 8k with 8-aligned arrays: dst + n - 1 - 7 is 8-aligned,
        # so the coalesced loop actually runs.
        if n % 8 == 0:
            assert sim.block_count("rev", label.lcopy_label) > 0

    @pytest.mark.parametrize("n", [7, 13, 21])
    def test_reversal_correct_on_awkward_lengths(self, n):
        program = compile_minic(MIRROR_ROW, "alpha", "coalesce-all")
        sim = program.simulator()
        values = [(i * 11) % 256 for i in range(n)]
        dst = sim.alloc_array("dst", size=n)
        src = sim.alloc_array("src", bytes(values))
        sim.call("rev", dst, src, n)
        assert sim.read_words(dst, n, 1, signed=False) == values[::-1]


class TestAllocationStagger:
    def test_stagger_separates_cache_indices(self):
        # Three power-of-two arrays must not all collide in a small
        # direct-mapped cache.
        from repro.ir import parse_module
        from repro.sim import Simulator

        module = parse_module("func f() {\nentry:\n    ret 0\n}")
        sim = Simulator(module, get_machine("m68030"))
        size = 512
        addresses = [
            sim.alloc_array(f"x{i}", size=size) for i in range(3)
        ]
        line = get_machine("m68030").dcache.line_bytes
        lines = get_machine("m68030").dcache.lines
        indices = {(a // line) % lines for a in addresses}
        assert len(indices) >= 2

    def test_stagger_can_be_disabled(self):
        from repro.ir import parse_module
        from repro.sim import Simulator

        module = parse_module("func f() {\nentry:\n    ret 0\n}")
        sim = Simulator(module, get_machine("alpha"))
        first = sim.alloc_array("a", size=64, stagger=False)
        second = sim.alloc_array("b", size=64, stagger=False)
        assert second - first == 64  # back-to-back, no gap
