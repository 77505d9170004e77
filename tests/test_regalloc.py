"""Register allocation tests: correctness under tight register files."""

import pytest

from repro.errors import PassError
from repro.ir import parse_module, verify_function
from repro.machine import get_machine
from repro.opt.pass_manager import PassContext
from repro.opt.regalloc import allocate_registers
from repro.pipeline import compile_and_run, compile_minic
from repro.sim import Simulator
from repro.sim.plan import to_signed

HIGH_PRESSURE = """
int pressure(int a, int b) {
    int t0, t1, t2, t3, t4, t5, t6, t7, t8, t9;
    t0 = a + b;
    t1 = a - b;
    t2 = a * 3;
    t3 = b * 5;
    t4 = t0 + t1;
    t5 = t2 + t3;
    t6 = t0 * t1;
    t7 = t2 - t3;
    t8 = t4 + t5 + t6 + t7;
    t9 = t0 + t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8;
    return t9 + t8 * t7 - t6 * t5 + t4 - t3 + t2 - t1 + t0;
}
"""


def reference_pressure(a, b):
    t0 = a + b
    t1 = a - b
    t2 = a * 3
    t3 = b * 5
    t4 = t0 + t1
    t5 = t2 + t3
    t6 = t0 * t1
    t7 = t2 - t3
    t8 = t4 + t5 + t6 + t7
    t9 = t0 + t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8
    return t9 + t8 * t7 - t6 * t5 + t4 - t3 + t2 - t1 + t0


class TestAllocation:
    def test_no_spills_with_plenty_of_registers(self):
        program = compile_minic(HIGH_PRESSURE, "alpha", "vpo")
        func = program.module.function("pressure")
        ctx = PassContext(get_machine("alpha"))
        result = allocate_registers(func, ctx)
        verify_function(func)
        assert not result.spilled
        assert result.registers_used <= 32

    def test_all_registers_within_bounds(self):
        program = compile_minic(HIGH_PRESSURE, "alpha", "vpo")
        func = program.module.function("pressure")
        ctx = PassContext(get_machine("alpha"))
        allocate_registers(func, ctx, num_registers=12)
        verify_function(func)
        for instr in func.iter_instrs():
            for reg in instr.uses() + instr.defs():
                assert reg.index < 12

    @pytest.mark.parametrize("num_registers", [8, 10, 16, 32])
    def test_correct_under_pressure(self, num_registers):
        program = compile_minic(HIGH_PRESSURE, "alpha", "vpo")
        func = program.module.function("pressure")
        ctx = PassContext(get_machine("alpha"))
        result = allocate_registers(
            func, ctx, num_registers=num_registers
        )
        verify_function(func)
        sim = Simulator(program.module, program.machine)
        for a, b in ((3, 4), (100, -7), (-13, 12)):
            value = to_signed(sim.call("pressure", a, b), 64)
            assert value == reference_pressure(a, b)
        if num_registers <= 10:
            assert result.spilled  # pressure must actually spill

    def test_spill_code_is_counted(self):
        program = compile_minic(HIGH_PRESSURE, "alpha", "vpo")
        func = program.module.function("pressure")
        ctx = PassContext(get_machine("alpha"))
        result = allocate_registers(func, ctx, num_registers=8)
        assert result.spill_loads > 0
        assert result.spill_stores > 0
        assert func.frame_slots  # spill slots exist

    def test_too_few_registers_rejected(self):
        program = compile_minic(HIGH_PRESSURE, "alpha", "vpo")
        func = program.module.function("pressure")
        ctx = PassContext(get_machine("alpha"))
        with pytest.raises(PassError):
            allocate_registers(func, ctx, num_registers=3)


class TestPipelineIntegration:
    def test_regalloc_config_flag(self):
        program = compile_minic(HIGH_PRESSURE, "alpha", "vpo",
                                regalloc=True)
        func = program.module.function("pressure")
        top = get_machine("alpha").num_registers
        for instr in func.iter_instrs():
            for reg in instr.uses() + instr.defs():
                assert reg.index < top

    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    def test_coalesced_kernel_correct_with_regalloc(self, machine):
        source = """
        int dotp(short *a, short *b, int n) {
            int i, s;
            s = 0;
            for (i = 0; i < n; i++)
                s += a[i] * b[i];
            return s;
        }
        """
        n = 21
        values_a = [(i * 7) % 50 - 25 for i in range(n)]
        values_b = [(i * 3) % 30 - 15 for i in range(n)]
        expected = sum(x * y for x, y in zip(values_a, values_b))
        result, sim = compile_and_run(
            source, "dotp", ["a", "b", n], machine, "coalesce-all",
            arrays=[("a", 2, values_a), ("b", 2, values_b)],
            regalloc=True,
        )
        assert result == expected

    def test_loop_variables_survive_allocation(self):
        # A loop whose live range spans the back edge.
        source = """
        int f(int n) {
            int i, s, p;
            s = 0;
            p = 1;
            for (i = 1; i <= n; i++) {
                s += i * p;
                p = p + 2;
            }
            return s + p;
        }
        """
        expected = None
        s = 0
        p = 1
        for i in range(1, 11):
            s += i * p
            p += 2
        expected = s + p
        result, _ = compile_and_run(source, "f", [10], config="vpo",
                                    regalloc=True)
        assert result == expected

    def test_m68030_small_register_file(self):
        # Only 16 registers: the convolution is a real pressure test.
        from repro.bench.programs import get_benchmark
        from repro.bench.workloads import lcg_bytes, ref_convolution

        program = compile_minic(
            get_benchmark("convolution").source, "m68030", "vpo",
            regalloc=True,
        )
        w, h = 20, 8
        src_vals = lcg_bytes(w * h, seed=3)
        sim = program.simulator()
        src = sim.alloc_array("src", bytes(src_vals))
        dst = sim.alloc_array("dst", size=w * h)
        sim.call("convolve", src, dst, w, h)
        assert sim.read_words(dst, w * h, 1, signed=False) == (
            ref_convolution(src_vals, w, h)
        )
