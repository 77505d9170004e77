"""Differential tests: the compiled engine must match the interpreter
bit-for-bit, including dynamic counts."""

import pytest

from repro.bench.harness import COLUMN_CONFIGS, COLUMNS, machine_overrides
from repro.bench.programs import BENCHMARKS, get_benchmark
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


BIG_ENDIAN = ["m88100", "m68030"]
BOUNDARY_VALUES = [
    0, 1, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
]
ACCESS_TEXT = "\n".join(
    [
        f"func ld{w}{s}(r0) {{\nentry:\n    r1 = load.{w}{s} [r0]\n"
        "    ret r1\n}"
        for w in (2, 4) for s in "su"
    ] + [
        f"func st{w}(r0, r1) {{\nentry:\n    store.{w} [r0], r1\n"
        "    ret\n}"
        for w in (2, 4)
    ]
)


def _outcome(engine, name, *args):
    """A call's value, or its error's type and text."""
    try:
        return ("ok", engine.call(name, *args))
    except SimulationError as exc:
        return (type(exc).__name__, str(exc))


class TestBigEndianAccess:
    """Non-host-endian 2/4-byte loads and stores (struct accessors in the
    compiled engine) against the interpreter's SimMemory.load/store."""

    @pytest.mark.parametrize("machine", BIG_ENDIAN)
    def test_boundary_values_round_trip(self, machine):
        interp, compiled = both_engines(ACCESS_TEXT, machine)
        addr = interp.memory.alloc(16)
        assert compiled.memory.alloc(16) == addr
        for value in BOUNDARY_VALUES:
            for width in (2, 4):
                results = []
                for engine in (interp, compiled):
                    engine.call(f"st{width}", addr, value)
                    image = engine.memory.read_bytes(addr, 8)
                    results.append((
                        image,
                        engine.call(f"ld{width}s", addr),
                        engine.call(f"ld{width}u", addr),
                        # the other half-word of the stored word
                        engine.call("ld2u", addr + 2),
                    ))
                assert results[0] == results[1], (width, hex(value))
                mask = (1 << (8 * width)) - 1
                assert results[0][0][:width] == (value & mask).to_bytes(
                    width, "big"
                )
                assert results[0][2] == value & mask

    @pytest.mark.parametrize("machine", BIG_ENDIAN)
    @pytest.mark.parametrize("name, args", [
        ("ld2s", (4097,)), ("ld2u", (4097,)), ("st2", (4097, 1)),
        ("ld4s", (4098,)), ("ld4u", (4098,)), ("st4", (4098, 1)),
        ("ld4u", ((1 << 22) - 2,)),   # misaligned and past the end
        ("ld2u", (0,)), ("st4", (0, 1)),
        ("ld2s", (1 << 22,)), ("st2", ((1 << 22) - 1, 1)),
        ("ld4u", ((1 << 22) - 4,)),   # the last word: valid
    ])
    def test_same_traps_and_faults(self, machine, name, args):
        interp, compiled = both_engines(ACCESS_TEXT, machine)
        expected = _outcome(interp, name, *args)
        got = _outcome(compiled, name, *args)
        if expected[0] in ("ok", "AlignmentTrap"):
            assert got == expected
        else:
            # bounds faults: same type, the texts name the address
            assert expected[0] == got[0] == "SimulationError"


FIELD_TEXT = (
    "func ext(r0, r1) {{\nentry:\n    r2 = ext.{w}{s} r0, pos=r1\n"
    "    ret r2\n}}\n"
    "func ins(r0, r1, r2) {{\nentry:\n    r3 = ins.{w} r0, r1, pos=r2\n"
    "    ret r3\n}}"
)


class TestDynamicFieldShift:
    """Extract/insert with a register position: the compiled engine
    computes the shift inline and calls back only to raise."""

    @pytest.mark.parametrize("machine, width", [
        (machine, width)
        for machine in ("alpha", "m88100", "m68030")
        for width in (1, 2, 4, 8)
        if width <= get_machine(machine).word_bytes
    ])
    @pytest.mark.parametrize("signed", [True, False])
    def test_every_byte_position(self, machine, width, signed):
        word = get_machine(machine).word_bytes
        text = FIELD_TEXT.format(w=width, s="s" if signed else "u")
        interp, compiled = both_engines(text, machine)
        src = int.from_bytes(bytes(range(0xF1, 0xF1 + word)), "big")
        straddling = 0
        for base in (0, 0x12340, (1 << (8 * word)) - 2 * word):
            for byte in range(word):
                pos = base + byte
                for name, args in (("ext", (src, pos)),
                                   ("ins", (src, 0x8182838485868788, pos))):
                    expected = _outcome(interp, name, *args)
                    assert _outcome(compiled, name, *args) == expected
                    if expected[0] != "ok":
                        straddling += 1
                        assert "not naturally aligned" in expected[1]
        assert straddling == 3 * 2 * (word - word // width)


def _all_block_sources(machine):
    """The source of every closure of every Table I program under every
    column.  Asking for a block's source translates its closure through
    the path first entry takes, ``compile()`` included, so a generated
    source error in a loop version that no run enters still fails
    here."""
    sources = set()
    for name in BENCHMARKS:
        for column in COLUMNS:
            preset, overrides = COLUMN_CONFIGS[column]
            compiled = compile_minic(
                BENCHMARKS[name].source, machine, preset,
                **{**machine_overrides(machine), **overrides},
            )
            engine = CompiledEngine(compiled.module, compiled.machine)
            for func in compiled.module:
                for block in func.blocks:
                    sources.add(engine.block_source(func.name, block.label))
            stats = engine.translation_stats()
            assert stats["translated"] + stats["cache_hits"] == (
                stats["blocks"])
    return sources


class TestGeneratedSourceShape:
    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    def test_no_per_access_slow_paths(self, machine):
        import re

        straddle = re.compile(
            r"^\s*if r\d+ & \d+: _fieldshift\(r\d+, \d\)$"
        )
        fieldshift_lines = 0
        for source in _all_block_sources(machine):
            if machine != "alpha":
                assert "int.from_bytes(" not in source
                assert ".to_bytes(" not in source
            for line in source.splitlines():
                if "_fieldshift(" in line:
                    fieldshift_lines += 1
                    assert straddle.match(line), line
        if machine == "alpha":
            assert fieldshift_lines > 0  # coalesced unaligned accesses
