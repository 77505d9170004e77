"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.ir import format_instr, parse_module
from repro.ir.rtl import BIN_OPS
from repro.machine import get_machine
from repro.opt.constant_fold import eval_binop, eval_relation, eval_unop
from repro.pipeline import compile_minic
from repro.sched import build_dag, list_schedule
from repro.sim import SimMemory, Simulator
from repro.sim.interp import Interpreter
from repro.sim.translate import CompiledEngine
from tests.conftest import signed

words64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
words32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestFoldingMatchesExecution:
    """The constant folder and both execution engines must agree."""

    @given(
        op=st.sampled_from(sorted(BIN_OPS)),
        a=words64,
        b=words64,
    )
    @settings(max_examples=150, deadline=None)
    def test_binop_three_ways(self, op, a, b):
        folded = eval_binop(op, a, b, 64)
        text = f"func f(r0, r1) {{\nentry:\n    r2 = {op} r0, r1\n    ret r2\n}}"
        machine = get_machine("alpha")
        interp = Interpreter(parse_module(text), machine,
                             simulate_caches=False)
        compiled = CompiledEngine(parse_module(text), machine,
                                  simulate_caches=False)
        if folded is None:  # division by zero
            return
        assert interp.call("f", a, b) == folded
        assert compiled.call("f", a, b) == folded

    @given(
        op=st.sampled_from(["neg", "not", "sext1", "sext2", "sext4",
                            "zext1", "zext2", "zext4"]),
        a=words64,
    )
    @settings(max_examples=80, deadline=None)
    def test_unop_three_ways(self, op, a):
        folded = eval_unop(op, a, 64)
        text = f"func f(r0) {{\nentry:\n    r1 = {op} r0\n    ret r1\n}}"
        machine = get_machine("alpha")
        interp = Interpreter(parse_module(text), machine,
                             simulate_caches=False)
        assert interp.call("f", a) == folded

    @given(
        rel=st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge",
                             "ltu", "leu", "gtu", "geu"]),
        a=words32,
        b=words32,
    )
    @settings(max_examples=100, deadline=None)
    def test_relation_matches_python_semantics(self, rel, a, b):
        got = eval_relation(rel, a, b, 32)
        sa, sb = signed(a, 32), signed(b, 32)
        expected = {
            "eq": a == b, "ne": a != b,
            "lt": sa < sb, "le": sa <= sb, "gt": sa > sb, "ge": sa >= sb,
            "ltu": a < b, "leu": a <= b, "gtu": a > b, "geu": a >= b,
        }[rel]
        assert got == expected


class TestMemoryRoundTrip:
    @given(
        width=st.sampled_from([1, 2, 4, 8]),
        value=words64,
        endian=st.sampled_from(["little", "big"]),
        index=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=100, deadline=None)
    def test_store_load_roundtrip(self, width, value, endian, index):
        memory = SimMemory(endian=endian)
        base = memory.alloc(128, align=8)
        addr = base + index * width
        memory.store(addr, width, value)
        mask = (1 << (8 * width)) - 1
        assert memory.load(addr, width, signed=False) == value & mask
        loaded = memory.load(addr, width, signed=True)
        assert loaded == signed(value & mask, 8 * width)

    @given(
        payload=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_bulk_bytes_roundtrip(self, payload):
        memory = SimMemory()
        addr = memory.alloc(len(payload), align=1)
        memory.write_bytes(addr, payload)
        assert memory.read_bytes(addr, len(payload)) == payload


def _reference_write_words(memory, addr, values, width):
    """Per-element staging: the low ``width`` bytes of each value."""
    mask = (1 << (8 * width)) - 1
    memory.write_bytes(addr, b"".join(
        (v & mask).to_bytes(width, memory.endian) for v in values
    ))


def _reference_read_words(memory, addr, count, width, signed):
    raw = memory.read_bytes(addr, count * width)
    return [
        int.from_bytes(raw[i * width:(i + 1) * width], memory.endian,
                       signed=signed)
        for i in range(count)
    ]


def _word_values(width):
    """In-range unsigned, in-range negative, and over-wide values (which
    staging masks), mixed in one list."""
    bits = 8 * width
    return st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            st.integers(min_value=-(1 << (bits - 1)), max_value=-1),
            st.integers(min_value=-(1 << (bits + 8)),
                        max_value=1 << (bits + 8)),
        ),
        max_size=24,
    )


class TestWordStaging:
    """Simulator.write_words/read_words convert a whole array in one
    struct call for widths 1/2/4/8 (width 3 takes the per-element
    path); both must match the per-element reference byte for byte."""

    @staticmethod
    def _check(machine, width, values):
        module = parse_module("func f() {\nentry:\n    ret 0\n}")
        sim = Simulator(module, get_machine(machine), backend="interp")
        reference = SimMemory(endian=sim.memory.endian)
        size = max(len(values), 1) * width + 8
        addr = sim.alloc_array("a", bytes(range(size)))
        ref_addr = reference.alloc(size)
        reference.write_bytes(ref_addr, bytes(range(size)))
        sim.write_words(addr, values, width)
        _reference_write_words(reference, ref_addr, values, width)
        assert sim.memory.read_bytes(addr, size) == \
            reference.read_bytes(ref_addr, size)
        for signed in (False, True):
            got = sim.read_words(addr, len(values), width, signed=signed)
            assert type(got) is list
            assert got == _reference_read_words(
                reference, ref_addr, len(values), width, signed)

    @given(
        machine=st.sampled_from(["alpha", "m88100"]),
        width=st.sampled_from([1, 2, 3, 4, 8]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_element_reference(self, machine, width, data):
        self._check(machine, width, data.draw(_word_values(width)))

    def test_each_packing_path_and_the_empty_list(self):
        for machine in ("alpha", "m88100"):
            for width in (1, 2, 3, 4, 8):
                bits = 8 * width
                for values in (
                    [],
                    [0, 1, (1 << bits) - 1],           # packed as given
                    [-1, -(1 << (bits - 1)), 5],        # masked
                    [-1, (1 << bits) - 1, 1 << bits],   # masked
                ):
                    self._check(machine, width, values)


class TestPrinterParserRoundTrip:
    @given(
        op=st.sampled_from(sorted(BIN_OPS)),
        dst=st.integers(min_value=0, max_value=63),
        a=st.integers(min_value=0, max_value=63),
        const=st.integers(min_value=-(1 << 31), max_value=1 << 31),
    )
    @settings(max_examples=80, deadline=None)
    def test_binop_text_roundtrip(self, op, dst, a, const):
        from repro.ir.parser import _parse_instr
        from repro.ir.rtl import BinOp, Const, Reg

        instr = BinOp(op, Reg(dst), Reg(a), Const(const))
        text = format_instr(instr)
        again = _parse_instr(text, 1)
        assert format_instr(again) == text

    @given(
        width=st.sampled_from([1, 2, 4, 8]),
        disp=st.integers(min_value=-512, max_value=512),
        is_signed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_load_text_roundtrip(self, width, disp, is_signed):
        from repro.ir.parser import _parse_instr
        from repro.ir.rtl import Load, Reg

        instr = Load(Reg(1), Reg(2), disp, width, is_signed)
        text = format_instr(instr)
        assert format_instr(_parse_instr(text, 1)) == text


class TestSchedulingIsAPermutationRespectingDeps:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_block(self, seed):
        import random

        rng = random.Random(seed)
        lines = ["func f(r0, r1) {", "entry:"]
        next_reg = 2
        for _ in range(rng.randrange(1, 14)):
            choice = rng.randrange(3)
            src1 = rng.randrange(next_reg)
            src2 = rng.randrange(next_reg)
            if choice == 0:
                lines.append(f"    r{next_reg} = add r{src1}, r{src2}")
            elif choice == 1:
                lines.append(f"    r{next_reg} = load.8u [r{src1}]")
            else:
                lines.append(f"    store.8 [r{src1}], r{src2}")
                continue
            next_reg += 1
        lines.append("    ret r0")
        lines.append("}")
        func = next(iter(parse_module("\n".join(lines))))
        block = func.block("entry")
        machine = get_machine("alpha")
        result = list_schedule(block, machine)
        # A permutation of the body...
        assert sorted(result.order) == list(range(len(block.body)))
        # ...that respects every dependence edge.
        dag = build_dag(block, machine.latency)
        position = {node: i for i, node in enumerate(result.order)}
        for src in range(len(block.body)):
            for dst in dag.succs[src]:
                assert position[src] < position[dst]


class TestKernelDifferential:
    """Random inputs/sizes/alignments through the full coalescing
    pipeline must match plain Python."""

    SOURCE = """
    void saxpy(short *dst, short *a, short *b, int n) {
        int i;
        for (i = 0; i < n; i++)
            dst[i] = a[i] * 3 + b[i];
    }
    """

    @given(
        n=st.integers(min_value=0, max_value=40),
        offset_a=st.sampled_from([0, 2, 4]),
        offset_b=st.sampled_from([0, 2]),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_runs(self, n, offset_a, offset_b, seed):
        import random

        rng = random.Random(seed)
        compiled = _CACHE.get("saxpy")
        if compiled is None:
            compiled = compile_minic(self.SOURCE, "alpha", "coalesce-all")
            _CACHE["saxpy"] = compiled
        sim = compiled.simulator()
        a_vals = [rng.randrange(-500, 500) for _ in range(n)]
        b_vals = [rng.randrange(-500, 500) for _ in range(n)]
        size = 2 * max(n, 1)
        d = sim.alloc_array("d", size=size)
        a = sim.alloc_array("a", size=size + 8, offset=offset_a)
        b = sim.alloc_array("b", size=size + 8, offset=offset_b)
        sim.write_words(a, a_vals, 2)
        sim.write_words(b, b_vals, 2)
        sim.call("saxpy", d, a, b, n)
        got = sim.read_words(d, n, 2)
        expected = [
            signed((x * 3 + y) & 0xFFFF, 16)
            for x, y in zip(a_vals, b_vals)
        ]
        assert got == expected


_CACHE = {}
