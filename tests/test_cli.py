"""CLI tests (``python -m repro``)."""

import json

import pytest

from repro.__main__ import main


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.c"
    path.write_text(
        """
        int dot(short *a, short *b, int n) {
            int i, s;
            s = 0;
            for (i = 0; i < n; i++)
                s += a[i] * b[i];
            return s;
        }
        """
    )
    return str(path)


def test_machines_command(capsys):
    assert main(["machines"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "m88100" in out and "m68030" in out
    assert "no narrow loads/stores" in out
    assert "non-pipelined" in out


def test_compile_command(kernel_file, capsys):
    assert main([
        "compile", kernel_file, "--machine", "alpha",
        "--config", "coalesce-all",
    ]) == 0
    out = capsys.readouterr().out
    assert "func dot(" in out
    assert "load.8u" in out  # the coalesced wide load


def test_run_command(kernel_file, capsys):
    assert main([
        "run", kernel_file, "--entry", "dot",
        "--array", "a:2:1,2,3,4",
        "--array", "b:2:10,20,30,40",
        "--args", "a", "b", "4",
        "--machine", "alpha", "--config", "coalesce-all",
    ]) == 0
    out = capsys.readouterr().out
    assert "result: 300" in out
    assert "cycles:" in out


def test_run_dump_stops_at_the_staged_array(kernel_file, capsys):
    assert main([
        "run", kernel_file, "--entry", "dot",
        "--array", "a:2:1,2,3,4",
        "--array", "b:2:10,20,30,40",
        "--args", "a", "b", "4",
        "--machine", "alpha", "--config", "coalesce-all",
        "--dump", "64",
    ]) == 0
    out = capsys.readouterr().out
    assert "a[0:4] = [1, 2, 3, 4]" in out
    assert "b[0:4] = [10, 20, 30, 40]" in out


@pytest.mark.parametrize("call, complaint", [
    (["--array", "a:2", "--args", "a", "a", "4"], "bad array spec 'a:2'"),
    (["--array", "a:2:1,2", "--args", "a", "bogus", "4"],
     "argument 'bogus' is neither an integer nor the name of a staged"),
    (["--array", "a:2:1,2", "--array", "a:2:3,4", "--args", "a", "a", "2"],
     "array 'a' is staged twice"),
])
def test_run_bad_call_is_an_error_not_a_traceback(
    kernel_file, capsys, call, complaint
):
    assert main(["run", kernel_file, "--entry", "dot", *call]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert complaint in err


def test_run_with_regalloc_and_force(kernel_file, capsys):
    assert main([
        "run", kernel_file, "--entry", "dot",
        "--array", "a:2:1,2,3,4,5,6,7,8",
        "--array", "b:2:1,1,1,1,1,1,1,1",
        "--args", "a", "b", "8",
        "--machine", "m68030", "--config", "coalesce-all",
        "--force-coalesce", "--unroll-factor", "2", "--regalloc",
    ]) == 0
    out = capsys.readouterr().out
    assert "result: 36" in out


def test_tables_single_machine(capsys):
    assert main(["tables", "--machine", "alpha", "--size", "16"]) == 0
    out = capsys.readouterr().out
    assert "Simulated cycles on alpha" in out
    assert "convolution" in out


@pytest.fixture
def unmeasured_tables(monkeypatch):
    """``repro.bench.tables`` with measuring a machine table forbidden."""
    from repro.bench import tables

    def no_rows(*_, **__):
        raise AssertionError("a machine table was measured")

    monkeypatch.setattr(tables, "table_rows", no_rows)
    return tables


def test_tables_table1_measures_nothing(unmeasured_tables, capsys):
    assert main(["tables", "--machine", "table1"]) == 0
    expected = unmeasured_tables.format_table1() + "\n"
    assert capsys.readouterr().out == expected


def test_tables_rejects_an_unknown_machine(unmeasured_tables, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["tables", "--machine", "bogus"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'bogus'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["tables", "bench", "simdiff",
                                     "submit"])
@pytest.mark.parametrize("size, complaint", [
    ("0", "must be at least 1, got 0"),
    ("-3", "must be at least 1, got -3"),
    ("x", "invalid int value: 'x'"),
])
def test_size_below_one_is_rejected(command, size, complaint,
                                    unmeasured_tables, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--size", size])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --size: {complaint}" in captured.err
    assert captured.out == ""


def test_tables_output_mismatch_exits_1(monkeypatch, capsys):
    from repro.bench import tables
    from repro.bench.harness import BenchResult

    def wrong_output(name, machine, column, **_):
        return BenchResult(name, machine, column, cycles=100,
                           output_ok=name != "mirror")

    monkeypatch.setattr(tables, "run_benchmark", wrong_output)
    assert main(["tables", "--machine", "alpha", "--size", "8"]) == 1
    out = capsys.readouterr().out
    assert out.count("[OUTPUT MISMATCH]") == 1
    assert "mirror" in out.splitlines()[-1]


# ---------------------------------------------------------------------------
# lint
# ---------------------------------------------------------------------------

import pathlib

EXAMPLES = sorted(
    str(p)
    for p in (pathlib.Path(__file__).parent.parent / "examples").glob("*.c")
)


@pytest.mark.lint
@pytest.mark.parametrize("example", EXAMPLES,
                         ids=[pathlib.Path(p).stem for p in EXAMPLES])
def test_lint_examples_are_clean(example, capsys):
    assert main([
        "lint", example, "--machine", "alpha", "--config", "coalesce-all",
    ]) == 0
    out = capsys.readouterr().out
    assert "error" not in out


@pytest.mark.lint
def test_lint_differential_smoke(kernel_file, tmp_path, capsys):
    assert main([
        "lint", kernel_file, "--machine", "alpha",
        "--config", "coalesce-all", "--differential", "--stats",
    ]) == 0
    out = capsys.readouterr().out
    assert "pass statistics:" in out
    assert "coalesce" in out

    # An RTL input runs the cleanup bundle as one guarded stage per
    # function under the differential sanitizer.
    dot = str(pathlib.Path(__file__).parent.parent / "examples" / "dot.c")
    assert main(["compile", dot, "--config", "naive"]) == 0
    rtl = tmp_path / "dot.rtl"
    rtl.write_text(capsys.readouterr().out)
    assert main([
        "lint", str(rtl), "--differential", "--stats", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    passes = [
        "simplify_cfg", "constant_fold", "copy_propagate",
        "global_const_prop", "local_cse", "peephole",
        "dead_code_elimination",
    ]
    assert sorted(payload["pass_stats"]) == sorted(["cleanup"] + passes)
    # The seven passes are timed as children of their stage.
    (cleanup,) = payload["timing"]["children"]
    assert cleanup["name"] == "cleanup"
    assert [child["name"] for child in cleanup["children"]] == passes


def test_lint_stats_json_nests_passes_under_their_stage(
    kernel_file, capsys
):
    assert main([
        "lint", kernel_file, "--config", "coalesce-all", "--stats",
        "--json",
    ]) == 0
    tree = json.loads(capsys.readouterr().out)["timing"]
    assert tree["name"] == "lint"
    (compile_span,) = tree["children"]
    stages = {child["name"]: child for child in compile_span["children"]}
    assert {"frontend", "cleanup", "coalesce", "lower"} <= set(stages)
    assert {child["name"] for child in stages["cleanup"]["children"]} == {
        "simplify_cfg", "constant_fold", "copy_propagate",
        "global_const_prop", "local_cse", "peephole",
        "dead_code_elimination",
    }
    assert stages["cleanup"]["self_seconds"] < stages["cleanup"]["seconds"]


@pytest.mark.parametrize("command", ["bench", "simdiff"])
@pytest.mark.parametrize("axis", ["programs", "machines", "variants"])
def test_matrix_selection_rejects_unknown_names_before_any_cell(
    command, axis, tmp_path, monkeypatch, capsys
):
    from repro.bench import runner

    def no_cells(**_):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(runner, "run_matrix", no_cells)
    out = tmp_path / "BENCH_x.json"
    assert main([command, f"--{axis}", "nosuch", "--out", str(out)]) == 2
    assert f"error: unknown {axis[:-1]}(s) 'nosuch'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["bench", "simdiff"])
def test_matrix_selection_all_is_every_name(
    command, tmp_path, monkeypatch
):
    from repro.bench import runner

    asked = []

    def record(**kwargs):
        asked.append(kwargs)
        return []

    monkeypatch.setattr(runner, "run_matrix", record)
    args = [command, "--programs", "all", "--machines", "all",
            "--variants", "all", "--out", str(tmp_path / "BENCH_x.json")]
    if command == "bench":
        args.append("--quick")  # 'all' overrides the quick tier's alpha
    assert main(args) == 0
    assert asked
    for kwargs in asked:
        assert sorted(kwargs["programs"]) == sorted(runner.ALL_PROGRAMS)
        assert sorted(kwargs["machines"]) == sorted(runner.ALL_MACHINES)
        assert sorted(kwargs["variants"]) == sorted(runner.COLUMNS)


def test_lint_rejects_hazardous_rtl(tmp_path, capsys):
    # Compile a byte loop with coalescing, then hand-miscompile it by
    # replacing every run-time check branch with an unconditional jump
    # to the fast path; the lint must exit non-zero.
    from repro import compile_minic
    from repro.ir import CondJump, Jump, format_module

    source = """
    void bytecopy(char *dst, char *src, int n) {
        int i;
        for (i = 0; i < n; i++) dst[i] = src[i];
    }
    """
    program = compile_minic(source, "alpha", "coalesce-all",
                            schedule=False)
    func = program.module.functions["bytecopy"]
    dropped = 0
    for block in func.blocks:
        term = block.instrs[-1]
        if isinstance(term, CondJump) and block.label.startswith("chk"):
            passed = term.iffalse if term.rel == "ne" else term.iftrue
            block.instrs[-1] = Jump(passed)
            dropped += 1
    assert dropped
    path = tmp_path / "bad.rtl"
    path.write_text(format_module(program.module))

    assert main(["lint", str(path), "--machine", "alpha",
                 "--checks", "coalesce-safety"]) == 1
    out = capsys.readouterr().out
    assert "coalesce-safety" in out


def test_lint_unknown_check_is_an_error(kernel_file, capsys):
    assert main(["lint", kernel_file, "--checks", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown checker" in err
