"""Differential pass-sanitizer and pass-statistics tests."""

from repro.bench import get_benchmark
from repro.frontend import compile_source
from repro.ir.rtl import BinOp, Const, Load, Mov, Reg, Ret
from repro.ir.function import Function
from repro.machine import get_machine
from repro.opt.pass_manager import PassContext, cleanup
from repro.pipeline import compile_minic
from repro.resilience.transaction import PassGuard
from repro.sanitize import DiagnosticSink, clone_function
from repro.sanitize.differential import (
    DifferentialSanitizer,
    describe,
    fixture_plans,
    fixture_sim,
    observe,
    param_kinds,
)
from repro.sim.plan import run_plan


DOT = """
int dot(int *a, int *b, int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + a[i] * b[i]; }
    return s;
}
"""

ALPHA = get_machine("alpha")


def _bad_mul_to_add(func, ctx):
    """A deliberately wrong 'peephole': rewrites the first mul to add."""
    for block in func.blocks:
        for instr in block.instrs:
            if isinstance(instr, BinOp) and instr.op == "mul":
                instr.op = "add"
                return True
    return False


def test_clone_function_is_independent():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [Mov(Reg(1), Const(7)), Ret(Reg(1))])
    func.param_kinds = ["int"]
    copy = clone_function(func)
    copy.block("entry").instrs[0].src = Const(9)
    assert func.block("entry").instrs[0].src.value == 7
    assert copy.param_kinds == ["int"]


def test_param_kinds_declared_by_frontend():
    module = compile_source(DOT, word_bytes=8)
    assert module.functions["dot"].param_kinds == ["ptr", "ptr", "int"]


def test_param_kinds_inferred_for_hand_built_ir():
    func = Function("f", [Reg(0), Reg(1)])
    func.add_block("entry", [
        # r0 flows (through a copy) into a load base; r1 never does.
        Mov(Reg(2), Reg(0)),
        Load(Reg(3), Reg(2), 0, 4),
        BinOp("add", Reg(4), Reg(3), Reg(1)),
        Ret(Reg(4)),
    ])
    assert param_kinds(func) == ["ptr", "int"]


def _run_guarded(module, ctx, passes):
    """Run ``passes`` on every function as stages of one PassGuard, under
    the differential sanitizer when ``ctx`` has a sink."""
    sanitizer = None
    if ctx.sink is not None:
        sanitizer = DifferentialSanitizer(module, ALPHA, ctx.sink)
    guard = PassGuard(module, ALPHA, sink=ctx.sink, sanitizer=sanitizer)
    for func in module:
        for name, pass_fn in passes:
            guard.stage(ctx, name, lambda: pass_fn(func, ctx), func=func)


def test_differential_clean_on_correct_passes():
    module = compile_source(DOT, word_bytes=8)
    sink = DiagnosticSink()
    _run_guarded(module, PassContext(ALPHA, sink=sink),
                 [("cleanup", cleanup)])
    assert not sink.has_errors


def test_differential_names_the_offending_pass():
    module = compile_source(DOT, word_bytes=8)
    sink = DiagnosticSink()
    _run_guarded(module, PassContext(ALPHA, sink=sink), [
        ("cleanup", cleanup),
        ("bad-peephole", _bad_mul_to_add),
    ])
    assert sink.has_errors
    offender = sink.errors[0]
    assert offender.check == "differential"
    assert offender.provenance == "bad-peephole"
    assert offender.location.function == "dot"


def test_differential_silent_when_bad_pass_changes_nothing():
    # The bad pass reports no change on a mul-free function, so the
    # sanitizer must not even compare (and must not complain).
    source = "int id(int x) { return x; }"
    module = compile_source(source, word_bytes=8)
    sink = DiagnosticSink()
    _run_guarded(module, PassContext(ALPHA, sink=sink),
                 [("bad-peephole", _bad_mul_to_add)])
    assert len(sink) == 0


def test_pass_manager_records_stats():
    module = compile_source(DOT, word_bytes=8)
    ctx = PassContext(ALPHA)
    _run_guarded(module, ctx, [
        ("cleanup", cleanup),
        ("bad-peephole", _bad_mul_to_add),
    ])
    assert ctx.stats["bad-peephole"] == {"runs": 1, "changed": 1}
    # run_to_fixpoint inside cleanup records the bundle's sub-passes too.
    assert ctx.stats["dead_code_elimination"]["runs"] >= 1


def test_pipeline_differential_mode_is_clean():
    program = compile_minic(DOT, "alpha", "coalesce-all",
                            differential=True)
    assert [d for d in program.diagnostics if d.severity == "error"] == []
    assert program.pass_stats["coalesce"]["runs"] == 1


def test_pipeline_sanitize_mode_populates_diagnostics():
    program = compile_minic(DOT, "alpha", "coalesce-all", sanitize=True)
    assert program.lint_errors == []
    # stage statistics are recorded regardless of findings
    assert "unroll" in program.pass_stats
    assert "schedule" in program.pass_stats


def test_aliasing_fixtures_leave_the_chain_at_the_overlap_check():
    # In place, image_xor's three pointers overlap: the Fig. 5 chain must
    # fall back to the safe loop at an alias check, before any alignment
    # check runs, while the aligned disjoint call enters LCOPY.
    source = get_benchmark("image_xor").source
    program = compile_minic(source, "alpha", "coalesce-all",
                            force_coalesce=True, differential=True)
    assert [d for d in program.diagnostics if d.severity == "error"] == []
    func = program.module.function("image_xor")
    (report,) = [r for r in program.coalesce_reports if r.applied]
    alignment = [
        block.label for block in func.blocks
        if block.instrs[-1].notes.get("runtime_check", {}).get("kind")
        == "alignment"
    ]
    assert alignment
    plans = {describe(plan): plan for plan in fixture_plans(func)}

    def entries(call):
        sim = program.simulator()
        run_plan(sim, plans[call])
        return (
            sim.block_count("image_xor", report.lcopy_label),
            sum(sim.block_count("image_xor", label) for label in alignment),
        )

    assert entries("image_xor(p0+0, p0+0, p0+0, 8)") == (0, 0)
    assert entries("image_xor(p0+0, p0+4, p0+8, 8)") == (0, 0)
    assert entries("image_xor(p0+0, p1+0, p2+0, 8)")[0] == 1
    # Every fixture, aliased ones included, computes what naive does.
    naive = compile_minic(source, "alpha", "naive")
    for call, plan in plans.items():
        want = observe(fixture_sim(naive.module, naive.machine), plan)
        got = observe(fixture_sim(program.module, program.machine), plan)
        assert want.status == "ok" and want == got, call


def test_fixture_plans_alias_only_with_two_pointers():
    module = compile_source(DOT, word_bytes=8)
    calls = [describe(plan) for plan in fixture_plans(module.function("dot"))]
    assert calls == [
        "dot(p0+0, p1+0, 8)", "dot(p0+0, p1+0, 5)", "dot(p0+2, p1+2, 6)",
        "dot(p0+0, p0+0, 8)", "dot(p0+0, p0+4, 8)",
    ]
    single = compile_source("int f(int *a, int n) { return a[n]; }",
                            word_bytes=8)
    assert len(fixture_plans(single.function("f"))) == 3
