"""Pipeline configuration and driver tests."""

import pytest

from repro.errors import ReproError
from repro.pipeline import (
    PRESETS,
    PipelineConfig,
    compile_and_run,
    compile_minic,
    get_config,
)

SOURCE = """
int triple(int x) { return x * 3; }
int f(short *a, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i];
    return triple(s);
}
"""


class TestConfigs:
    def test_presets_exist(self):
        assert set(PRESETS) == {
            "naive", "cc", "vpo", "coalesce-loads", "coalesce-all"
        }

    def test_get_config_by_name(self):
        config = get_config("vpo")
        assert config.schedule and config.optimize

    def test_get_config_default_is_vpo(self):
        assert get_config(None).name == "vpo"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ReproError, match="unknown pipeline preset"):
            get_config("O3")

    def test_overrides_do_not_mutate_preset(self):
        config = get_config("vpo", unroll_factor=2)
        assert config.unroll_factor == 2
        assert PRESETS["vpo"].unroll_factor is None

    def test_bad_coalesce_mode_rejected(self):
        with pytest.raises(ReproError):
            PipelineConfig(coalesce="sometimes")

    def test_cc_has_no_scheduling(self):
        assert not PRESETS["cc"].schedule
        assert PRESETS["vpo"].schedule


class TestCompileMinic:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    def test_all_presets_compile_and_verify(self, preset, machine):
        program = compile_minic(SOURCE, machine, preset)
        assert program.machine.name == machine
        from repro.ir import verify_module

        verify_module(program.module)

    def test_machine_instance_accepted(self):
        from repro.machine import DecAlpha

        program = compile_minic(SOURCE, DecAlpha(), "vpo")
        assert program.machine.name == "alpha"

    def test_compile_and_run_convenience(self):
        # A negative result comes back signed on the 64-bit Alpha and on
        # the 32-bit Motorola machines alike, not as a raw machine word.
        values = [4, -5, 6, -20]
        for machine in ("alpha", "m88100", "m68030"):
            result, sim = compile_and_run(
                SOURCE, "f", ["a", len(values)], machine=machine,
                arrays=[("a", 2, values)],
            )
            assert result == 3 * sum(values) == -45
            assert sim.machine.name == machine
            assert sim.report().total_cycles > 0
            assert sim.read_words(sim.array_addr("a"), 4, 2) == values

    def test_compile_and_run_rejects_a_bad_call_before_compiling(self):
        # The source does not parse: a ParseError would mean the call
        # was checked only after compiling.
        with pytest.raises(ReproError, match="neither an integer nor"):
            compile_and_run("int f( {", "f", ["a", 4])

    def test_coalesce_reports_surface(self):
        program = compile_minic(
            SOURCE, "alpha", "coalesce-all", force_coalesce=True
        )
        assert program.coalesce_reports
        assert program.coalesced_loops >= 1

    def test_marginal_loop_skipped_without_force(self):
        # A single-stream reduction ties in the schedule estimate; the
        # paper's Figure 3 requires strictly fewer cycles to commit.
        program = compile_minic(SOURCE, "alpha", "coalesce-all")
        considered = [r for r in program.coalesce_reports if r.runs_found]
        assert considered
        report = considered[0]
        if not report.applied:
            assert "not profitable" in report.skipped_reason
