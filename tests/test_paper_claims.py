"""Shape assertions for the paper's headline results, and the check that
EXPERIMENTS.md carries what the code measures.

These are the claims EXPERIMENTS.md records:

* Table II (Alpha): coalescing wins on every benchmark; image kernels win
  big; eqntott's win is small; convolution's is the smallest image win.
* Table III (88100): load coalescing wins; adding store coalescing is
  worse than loads alone (the paper's observation about missing insert
  instructions).
* §3 (68030): forced coalescing loses on every benchmark, and the
  profitability analysis declines by default.
* §2.1 (Figure 1): the dot product's memory references drop by 75%.
* Figure 5 (E6): a misaligned entry falls back to the safe loop for
  under 5% over ``vpo``, and the check chain holds the size E6 quotes.
* E8: the unroll-factor sweep, the row-width ablation and the
  scheduling interaction.

The E1–E4 blocks of EXPERIMENTS.md are the exact stdout of ``python -m
repro tables --machine M --size 48``; simulated cycles are
deterministic, so ``TestExperimentsDoc`` compares them exactly against
the rows the shape assertions read, and E10's cycles against the
``BENCH_seed.json`` anchor.
"""

import json
import pathlib
import re

import pytest

from repro.bench import run_benchmark, table_rows
from repro.bench.programs import TABLE_ORDER, get_benchmark
from repro.bench.tables import format_table, format_table1
from repro.bench.workloads import lcg_bytes
from repro.machine import MACHINE_NAMES
from repro.pipeline import compile_minic

SIZE = {"width": 48, "height": 48}

REPO = pathlib.Path(__file__).resolve().parent.parent
EXPERIMENTS = REPO / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def alpha_rows():
    return {r.benchmark: r for r in table_rows("alpha", **SIZE)}


@pytest.fixture(scope="module")
def m88100_rows():
    return {r.benchmark: r for r in table_rows("m88100", **SIZE)}


@pytest.fixture(scope="module")
def m68030_rows():
    return {r.benchmark: r for r in table_rows("m68030", **SIZE)}


def experiments_section(heading):
    """The text of EXPERIMENTS.md's ``## heading`` section."""
    text = EXPERIMENTS.read_text()
    start = text.index(f"\n## {heading}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


class TestTable2Alpha:
    def test_all_outputs_correct(self, alpha_rows):
        assert all(r.output_ok for r in alpha_rows.values())

    def test_coalescing_always_wins(self, alpha_rows):
        for name, row in alpha_rows.items():
            assert row.coalesce_all < row.vpo, name

    def test_savings_in_paper_band(self, alpha_rows):
        # Paper: 3.86% .. 41.05% by its own formula.
        for name, row in alpha_rows.items():
            assert 2.0 < row.percent_savings_paper < 50.0, (
                name, row.percent_savings_paper
            )

    def test_image_add_is_a_big_winner(self, alpha_rows):
        # Paper: image add tops the table at ~41%.
        assert alpha_rows["image_add"].percent_savings_paper > 30.0

    def test_eqntott_gain_is_small(self, alpha_rows):
        # Paper: 3.86% — by far the smallest.
        eqntott = alpha_rows["eqntott"].percent_savings_paper
        assert eqntott < 15.0
        others = [
            r.percent_savings_paper
            for n, r in alpha_rows.items()
            if n not in ("eqntott",)
        ]
        assert eqntott < min(others)

    def test_convolution_smallest_image_kernel_gain(self, alpha_rows):
        # Paper: convolution gains least among the image kernels (11.26%).
        convolution = alpha_rows["convolution"].percent_savings_paper
        image_kernels = ["image_add", "image_xor", "translate", "mirror"]
        assert all(
            convolution < alpha_rows[k].percent_savings_paper
            for k in image_kernels
        )

    def test_loads_and_stores_beats_loads_only(self, alpha_rows):
        # On the Alpha narrow stores are read-modify-write sequences, so
        # coalescing them too helps further (Table II cols 4 vs 5).
        for name in ("image_add", "image_xor", "mirror", "translate"):
            row = alpha_rows[name]
            assert row.coalesce_all < row.coalesce_loads, name

    def test_scheduling_gap_between_cc_and_vpo(self, alpha_rows):
        # Column 2 vs column 3: the dual-issue Alpha rewards scheduling.
        for name, row in alpha_rows.items():
            assert row.vpo <= row.cc, name


class TestTable3M88100:
    def test_all_outputs_correct(self, m88100_rows):
        assert all(r.output_ok for r in m88100_rows.values())

    def test_load_coalescing_wins(self, m88100_rows):
        for name, row in m88100_rows.items():
            assert row.coalesce_loads <= row.vpo, name

    def test_load_savings_in_paper_band(self, m88100_rows):
        # Paper: "speed ups of a few percent up to 25 percent".
        for name, row in m88100_rows.items():
            assert -1.0 <= row.percent_savings_loads <= 30.0, name
        best = max(
            r.percent_savings_loads for r in m88100_rows.values()
        )
        assert best > 10.0

    def test_store_coalescing_hurts(self, m88100_rows):
        # "the code with both loads and stores coalesced runs slower than
        # the code with just loads coalesced" — forced col 5 vs col 4.
        slower = [
            name
            for name, row in m88100_rows.items()
            if row.coalesce_all > row.coalesce_loads
        ]
        # Every benchmark with stores in its kernel shows the effect.
        assert set(slower) >= {
            "image_add", "image_xor", "translate", "mirror"
        }


class TestM68030:
    def test_all_outputs_correct(self, m68030_rows):
        assert all(r.output_ok for r in m68030_rows.values())

    def test_forced_coalescing_always_loses(self, m68030_rows):
        # "for the Motorola 68030 the technique resulted in slower code"
        for name, row in m68030_rows.items():
            assert row.coalesce_all > row.vpo, name

    def test_profitability_declines_by_default(self):
        from repro.bench.harness import machine_overrides

        for name in ("image_xor", "mirror", "dotproduct"):
            compiled = compile_minic(
                get_benchmark(name).source, "m68030", "coalesce-all",
                **machine_overrides("m68030"),
            )
            considered = [
                r for r in compiled.coalesce_reports if r.runs_found
            ]
            assert considered, name
            assert not any(r.applied for r in considered), name
            assert any(
                "not profitable" in r.skipped_reason for r in considered
            ), name


class TestFigure1Claim:
    def test_75_percent_memory_reference_reduction(self):
        baseline = run_benchmark("dotproduct", "alpha", "vpo", **SIZE)
        coalesced = run_benchmark(
            "dotproduct", "alpha", "coalesce-all", **SIZE
        )
        ratio = coalesced.memory_accesses / baseline.memory_accesses
        assert ratio == pytest.approx(0.25, abs=0.03)


class TestFigure5Checks:
    """E6: the Fig. 5 check chain of ``image_xor`` on the Alpha."""

    def _misaligned_xor(self, config, n=48 * 48):
        """``image_xor`` over ``n`` bytes with the ``a`` source 2 bytes
        off quadword alignment; returns the program and its simulator."""
        program = compile_minic(
            get_benchmark("image_xor").source, "alpha", config
        )
        sim = program.simulator()
        a_vals, b_vals = lcg_bytes(n, seed=5), lcg_bytes(n, seed=6)
        d = sim.alloc_array("d", size=n)
        a = sim.alloc_array("a", size=n + 8, offset=2)
        b = sim.alloc_array("b", size=n)
        sim.write_words(a, a_vals, 1)
        sim.write_words(b, b_vals, 1)
        sim.call("image_xor", d, a, b, n)
        assert sim.read_words(d, n, 1, signed=False) == [
            x ^ y for x, y in zip(a_vals, b_vals)
        ]
        return program, sim

    def test_misaligned_fallback_costs_under_5_percent(self):
        # The checks run once per entry, so an entry they send to the
        # safe loop costs about what vpo's loop costs.
        coalesced, fallback = self._misaligned_xor("coalesce-all")
        (report,) = [r for r in coalesced.coalesce_reports if r.applied]
        assert fallback.block_count("image_xor", report.lcopy_label) == 0
        _, vpo = self._misaligned_xor("vpo")
        assert (
            fallback.report().total_cycles
            < 1.05 * vpo.report().total_cycles
        )

    def test_check_chain_has_the_size_e6_quotes(self):
        # §4: "Typically, 10 to 15 instructions must be added in the
        # loop preheader"; E6 states this chain's size against that.
        program = compile_minic(
            get_benchmark("image_xor").source, "alpha", "coalesce-all"
        )
        chain = sum(
            len(block.instrs)
            for block in program.module.function("image_xor").blocks
            if "runtime_check" in block.terminator.notes
        )
        quoted = re.search(
            r"check chain size: (\d+) instructions",
            experiments_section("E6"),
        )
        assert quoted, "EXPERIMENTS.md E6 quotes no check chain size"
        assert chain == int(quoted.group(1))


class TestAblations:
    """E8: the design-choice ablations, on the Alpha."""

    @staticmethod
    def coalesced_and_vpo(name, **size_and_options):
        """Cycles of ``name``'s forced coalesce-all and vpo columns."""
        return tuple(
            run_benchmark(name, "alpha", column, **size_and_options).cycles
            for column in ("coalesce-all", "vpo")
        )

    def test_unroll_factor_sweep(self):
        # Byte kernels want the full quadword factor.
        cycles = [
            run_benchmark(
                "image_add", "alpha", "coalesce-all", width=2048, height=1,
                unroll_factor=factor,
            ).cycles
            for factor in (2, 4, 8)
        ]
        assert cycles[0] > cycles[1] > cycles[2]

    def test_row_width_decides_the_convolution_gain(self):
        # Width 48 keeps every row quadword-aligned.  52 is 4 mod 8, like
        # the paper's 500: each entry reads three adjacent rows, one of
        # them misaligned, so every entry falls back and forced
        # coalescing loses to vpo.
        gain = {}
        for width in (48, 52):
            coalesced, vpo = self.coalesced_and_vpo(
                "convolution", width=width, height=24
            )
            gain[width] = 1 - coalesced / vpo
        assert gain[48] > 0.05
        assert gain[52] < 0

    @pytest.mark.parametrize("schedule", [False, True])
    def test_coalescing_wins_with_and_without_scheduling(self, schedule):
        coalesced, vpo = self.coalesced_and_vpo(
            "image_xor", width=4096, height=1, schedule=schedule
        )
        assert coalesced < vpo


#: ``<!-- python -m repro tables --machine M --size N -->`` over a fenced
#: ``text`` block holding that command's output.
GENERATED_BLOCK = re.compile(
    r"<!-- python -m repro tables --machine (\S+) --size (\d+) -->\n"
    r"```text\n(.*?)\n```",
    re.DOTALL,
)

#: An E10 row: ``| program | machine | vpo | coalesce-all | ...``.
E10_ROW = re.compile(r"^\| (\w+) \| (\w+) \| (\d+) \| \**(\d+)\** \|", re.M)


class TestExperimentsDoc:
    """EXPERIMENTS.md holds what the code prints."""

    @pytest.fixture(scope="class")
    def blocks(self):
        return {
            machine: (int(size), text)
            for machine, size, text in GENERATED_BLOCK.findall(
                EXPERIMENTS.read_text()
            )
        }

    def assert_block(self, blocks, machine, expected):
        size, text = blocks[machine]
        assert size == SIZE["width"] == SIZE["height"]
        assert text == expected, (
            f"EXPERIMENTS.md's `python -m repro tables --machine {machine} "
            f"--size {size}` block is stale; it should read:\n{expected}"
        )

    def test_every_table_has_one_block(self):
        found = GENERATED_BLOCK.findall(EXPERIMENTS.read_text())
        assert sorted(machine for machine, _, _ in found) == sorted(
            ("table1",) + MACHINE_NAMES
        )

    def test_table1_block(self, blocks):
        self.assert_block(blocks, "table1", format_table1())

    @pytest.mark.parametrize("machine", MACHINE_NAMES)
    def test_machine_block(self, blocks, machine, request):
        rows = request.getfixturevalue(f"{machine}_rows")
        self.assert_block(
            blocks, machine,
            format_table(machine, [rows[name] for name in TABLE_ORDER]),
        )

    def test_e10_cycles_are_the_anchors(self):
        anchor = json.loads((REPO / "BENCH_seed.json").read_text())
        assert (anchor["width"], anchor["height"]) == (16, 16)
        cycles = {
            (r["program"], r["machine"], r["variant"]): r["cycles"]
            for r in anchor["records"]
        }
        quoted = E10_ROW.findall(experiments_section("E10"))
        assert len(quoted) == 6
        expected = [
            (program, machine, str(cycles[program, machine, "vpo"]),
             str(cycles[program, machine, "coalesce-all"]))
            for program, machine, _, _ in quoted
        ]
        assert quoted == expected, (
            "EXPERIMENTS.md E10's cycles differ from BENCH_seed.json; "
            "its rows should read (program, machine, vpo, coalesce-all):\n"
            + "\n".join(" | ".join(row) for row in expected)
        )


class TestSizeIndependence:
    def test_savings_stable_across_sizes(self):
        small = {
            r.benchmark: r.percent_savings_paper
            for r in table_rows(
                "alpha", benchmarks=["image_xor"], width=24, height=24
            )
        }
        large = {
            r.benchmark: r.percent_savings_paper
            for r in table_rows(
                "alpha", benchmarks=["image_xor"], width=56, height=56
            )
        }
        assert small["image_xor"] == pytest.approx(
            large["image_xor"], abs=6.0
        )
