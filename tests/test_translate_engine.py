"""Differential tests: the compiled engine must match the interpreter
bit-for-bit, including dynamic counts."""

import pytest

from repro.bench.programs import get_benchmark
from repro.errors import AlignmentTrap, SimulationError
from repro.ir import parse_module
from repro.machine import get_machine, lower_module
from repro.pipeline import compile_minic
from repro.sim import Simulator
from repro.sim.translate import CompiledEngine
from repro.sim.interp import Interpreter


def both_engines(text, machine_name="alpha"):
    machine = get_machine(machine_name)
    return (
        Interpreter(parse_module(text), machine),
        CompiledEngine(parse_module(text), machine),
    )


class TestBasicEquivalence:
    @pytest.mark.parametrize(
        "expr, args",
        [
            ("add r0, r1", (7, 8)),
            ("sub r0, r1", (3, 9)),
            ("mul r0, r1", (1 << 40, 1 << 30)),
            ("div r0, r1", ((1 << 64) - 7, 2)),       # -7 / 2
            ("rem r0, r1", ((1 << 64) - 7, 2)),
            ("divu r0, r1", ((1 << 63), 3)),
            ("remu r0, r1", ((1 << 63), 3)),
            ("and r0, r1", (0xF0F0, 0xFF00)),
            ("shl r0, r1", (3, 62)),
            ("shrl r0, r1", ((1 << 63), 3)),
            ("shra r0, r1", ((1 << 63), 3)),
        ],
    )
    def test_binops_agree(self, expr, args):
        text = f"func f(r0, r1) {{\nentry:\n    r2 = {expr}\n    ret r2\n}}"
        interp, compiled = both_engines(text)
        assert interp.call("f", *args) == compiled.call("f", *args)

    @pytest.mark.parametrize("op", ["neg", "not", "sext1", "sext2",
                                    "zext1", "zext4"])
    @pytest.mark.parametrize("value", [0, 1, 0xFF, 0x8000, (1 << 64) - 1])
    def test_unops_agree(self, op, value):
        text = f"func f(r0) {{\nentry:\n    r1 = {op} r0\n    ret r1\n}}"
        interp, compiled = both_engines(text)
        assert interp.call("f", value) == compiled.call("f", value)

    @pytest.mark.parametrize("machine", ["alpha", "m88100"])
    @pytest.mark.parametrize("pos", [0, 1, 2, 3])
    def test_extract_insert_agree(self, machine, pos):
        text = (
            "func f(r0, r1) {\nentry:\n"
            f"    r2 = ext.1s r0, pos={pos}\n"
            f"    r3 = ins.1 r0, r1, pos={pos}\n"
            "    r4 = add r2, r3\n    ret r4\n}"
        )
        interp, compiled = both_engines(text, machine)
        for word in (0x11223344, 0xF1E2D3C4):
            assert interp.call("f", word, 0xAB) == (
                compiled.call("f", word, 0xAB)
            )

    def test_division_by_zero_raises_in_both(self):
        text = "func f(r0) {\nentry:\n    r1 = div r0, 0\n    ret r1\n}"
        interp, compiled = both_engines(text)
        with pytest.raises(SimulationError):
            interp.call("f", 1)
        with pytest.raises(SimulationError):
            compiled.call("f", 1)

    def test_alignment_trap_in_both(self):
        text = "func f(r0) {\nentry:\n    r1 = load.4s [r0]\n    ret r1\n}"
        interp, compiled = both_engines(text)
        with pytest.raises(AlignmentTrap):
            interp.call("f", 4099)
        with pytest.raises(AlignmentTrap):
            compiled.call("f", 4099)

    def test_step_limit_in_translated_engine(self):
        machine = get_machine("alpha")
        module = parse_module("func f() {\nentry:\n    jump entry\n}")
        engine = CompiledEngine(module, machine, max_steps=500)
        with pytest.raises(SimulationError, match="step limit"):
            engine.call("f")


class TestProgramEquivalence:
    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    @pytest.mark.parametrize("config", ["vpo", "coalesce-all"])
    def test_dotproduct_counts_match(self, machine, config):
        program = get_benchmark("dotproduct")
        compiled = compile_minic(program.source, machine, config)
        n = 23
        values_a = [(i * 13) % 64 - 32 for i in range(n)]
        values_b = [(i * 5) % 32 - 16 for i in range(n)]

        results = []
        for backend in ("interp", "compiled"):
            sim = Simulator(compiled.module, compiled.machine,
                            backend=backend)
            a = sim.alloc_array("a", size=2 * n)
            b = sim.alloc_array("b", size=2 * n)
            sim.write_words(a, values_a, 2)
            sim.write_words(b, values_b, 2)
            value = sim.call("dotproduct", a, b, n)
            results.append((value, sim.report()))

        (v1, r1), (v2, r2) = results
        assert v1 == v2
        assert r1.instr_count == r2.instr_count
        assert r1.load_count == r2.load_count
        assert r1.store_count == r2.store_count
        assert r1.total_cycles == r2.total_cycles

    def test_image_xor_outputs_identical(self):
        program = get_benchmark("image_xor")
        compiled = compile_minic(program.source, "alpha", "coalesce-all")
        n = 64
        a_vals = [(i * 37) % 256 for i in range(n)]
        b_vals = [(i * 11) % 256 for i in range(n)]
        outputs = []
        for backend in ("interp", "compiled"):
            sim = Simulator(compiled.module, compiled.machine,
                            backend=backend)
            d = sim.alloc_array("d", size=n)
            a = sim.alloc_array("a", bytes(a_vals))
            b = sim.alloc_array("b", bytes(b_vals))
            sim.call("image_xor", d, a, b, n)
            outputs.append(sim.read_words(d, n, 1, signed=False))
        assert outputs[0] == outputs[1]
        assert outputs[0] == [x ^ y for x, y in zip(a_vals, b_vals)]

    def test_recursion_in_translated_engine(self):
        text = (
            "func fib(r0) {\nentry:\n    br lt r0, 2, base, rec\n"
            "base:\n    ret r0\n"
            "rec:\n    r1 = sub r0, 1\n    r2 = call fib(r1)\n"
            "    r3 = sub r0, 2\n    r4 = call fib(r3)\n"
            "    r5 = add r2, r4\n    ret r5\n}"
        )
        interp, compiled = both_engines(text)
        assert interp.call("fib", 15) == compiled.call("fib", 15) == 610

    def test_frame_slots_in_translated_engine(self):
        text = (
            "func f(r0) {\n    frame buf[16] align 8\nentry:\n"
            "    r1 = frameaddr buf\n    store.8 [r1], r0\n"
            "    r2 = load.8u [r1]\n    ret r2\n}"
        )
        interp, compiled = both_engines(text)
        assert interp.call("f", 99) == compiled.call("f", 99) == 99

    def test_globals_in_translated_engine(self):
        text = (
            "module m\n\nglobal g[8] align 8\n\n"
            "func f(r0) {\nentry:\n    r1 = globaladdr g\n"
            "    store.8 [r1], r0\n    r2 = load.8u [r1]\n    ret r2\n}"
        )
        interp, compiled = both_engines(text)
        assert interp.call("f", 7) == compiled.call("f", 7) == 7
