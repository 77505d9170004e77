"""Per-checker tests: one tripping case and one clean twin each."""

import pytest

from repro.ir import (
    BinOp,
    CondJump,
    Const,
    Extract,
    FrameAddr,
    Function,
    Insert,
    Jump,
    Load,
    Module,
    Mov,
    Reg,
    Ret,
    Store,
)
from repro.machine import get_machine
from repro.pipeline import compile_minic
from repro.sanitize import DiagnosticSink, checker_ids, get_checkers
from repro.sanitize.registry import checker as register_checker
from repro.errors import ReproError


ALPHA = get_machine("alpha")


def run_check(func, check, module=None, machine=ALPHA):
    sink = DiagnosticSink()
    if module is None:
        module = Module()
        module.add_function(func)
    for fn in get_checkers([check]):
        fn(func, module, machine, sink)
    return sink


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_all_builtin_checkers_registered():
    assert set(checker_ids()) >= {
        "def-before-use", "coalesce-safety", "loop-shape",
        "dead-store", "redundant-load", "cfg-consistency",
    }


def test_unknown_checker_rejected():
    with pytest.raises(ReproError, match="unknown checker"):
        get_checkers(["no-such-check"])


def test_duplicate_registration_rejected():
    with pytest.raises(ReproError, match="duplicate checker"):
        @register_checker("def-before-use", "duplicate")
        def clash(func, module, machine, sink):
            pass


# ---------------------------------------------------------------------------
# def-before-use
# ---------------------------------------------------------------------------

def test_def_before_use_trips_on_undefined_register():
    func = Function("f")
    func.add_block("entry", [
        BinOp("add", Reg(1), Reg(5), Const(1)),  # r5 never defined
        Ret(Reg(1)),
    ])
    sink = run_check(func, "def-before-use")
    assert sink.has_errors
    assert "r5" in sink.errors[0].message


def test_def_before_use_warns_on_partial_paths():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [CondJump("eq", Reg(0), Const(0), "a", "b")])
    func.add_block("a", [Mov(Reg(5), Const(1)), Jump("join")])
    func.add_block("b", [Jump("join")])
    func.add_block("join", [BinOp("add", Reg(1), Reg(5), Const(1)),
                            Ret(Reg(1))])
    sink = run_check(func, "def-before-use")
    assert not sink.has_errors
    assert any("may be used uninitialized" in d.message
               for d in sink.warnings)


def test_def_before_use_clean():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [
        Mov(Reg(1), Const(7)),
        BinOp("add", Reg(2), Reg(1), Reg(0)),
        Ret(Reg(2)),
    ])
    sink = run_check(func, "def-before-use")
    assert len(sink) == 0


def test_def_before_use_ignores_unreachable_blocks():
    func = Function("f")
    func.add_block("entry", [Ret(Const(0))])
    func.add_block("orphan", [BinOp("add", Reg(1), Reg(9), Const(1)),
                              Ret(Reg(1))])
    sink = run_check(func, "def-before-use")
    assert len(sink) == 0


# ---------------------------------------------------------------------------
# loop-shape
# ---------------------------------------------------------------------------

def _counting_loop(with_preheader: bool) -> Function:
    func = Function("f", [Reg(0)])
    if with_preheader:
        func.add_block("entry", [Mov(Reg(1), Const(0)), Jump("header")])
    else:
        func.add_block("entry", [
            Mov(Reg(1), Const(0)),
            CondJump("lt", Reg(1), Reg(0), "header", "exit"),
        ])
    func.add_block("header", [
        CondJump("lt", Reg(1), Reg(0), "body", "exit"),
    ])
    func.add_block("body", [
        BinOp("add", Reg(1), Reg(1), Const(1)),
        Jump("header"),
    ])
    func.add_block("exit", [Ret(Reg(1))])
    return func


def test_loop_shape_trips_without_preheader():
    sink = run_check(_counting_loop(with_preheader=False), "loop-shape")
    assert any("no dedicated preheader" in d.message for d in sink.warnings)


def test_loop_shape_clean_with_preheader():
    sink = run_check(_counting_loop(with_preheader=True), "loop-shape")
    assert len(sink) == 0


def test_loop_shape_trips_on_multiple_latches():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [Jump("header")])
    func.add_block("header", [
        CondJump("lt", Reg(0), Const(10), "b1", "exit"),
    ])
    func.add_block("b1", [
        CondJump("eq", Reg(0), Const(3), "latch2", "latch1"),
    ])
    func.add_block("latch1", [BinOp("add", Reg(0), Reg(0), Const(1)),
                              Jump("header")])
    func.add_block("latch2", [BinOp("add", Reg(0), Reg(0), Const(2)),
                              Jump("header")])
    func.add_block("exit", [Ret(Reg(0))])
    sink = run_check(func, "loop-shape")
    assert any("2 latches" in d.message for d in sink.warnings)


# ---------------------------------------------------------------------------
# redundant-load / dead-store
# ---------------------------------------------------------------------------

def test_redundant_load_trips():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [
        Load(Reg(1), Reg(0), 0, 4),
        Load(Reg(2), Reg(0), 0, 4),  # same bytes, nothing in between
        Ret(Reg(2)),
    ])
    sink = run_check(func, "redundant-load")
    assert any("repeats the load" in d.message for d in sink.warnings)


def test_redundant_load_clean_after_store():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [
        Load(Reg(1), Reg(0), 0, 4),
        Store(Reg(0), 0, Const(5), 4),
        Load(Reg(2), Reg(0), 0, 4),  # re-load is required now
        Ret(Reg(2)),
    ])
    sink = run_check(func, "redundant-load")
    assert len(sink) == 0


def test_redundant_load_clean_after_base_redefinition():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [
        Load(Reg(1), Reg(0), 0, 4),
        BinOp("add", Reg(0), Reg(0), Const(4)),
        Load(Reg(2), Reg(0), 0, 4),  # different address
        Ret(Reg(2)),
    ])
    sink = run_check(func, "redundant-load")
    assert len(sink) == 0


def test_dead_store_trips():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [
        Store(Reg(0), 0, Const(1), 4),
        Store(Reg(0), 0, Const(2), 4),  # overwrites before any read
        Ret(None),
    ])
    sink = run_check(func, "dead-store")
    assert any("overwritten" in d.message for d in sink.warnings)


def test_dead_store_clean_with_intervening_load():
    func = Function("f", [Reg(0)])
    func.add_block("entry", [
        Store(Reg(0), 0, Const(1), 4),
        Load(Reg(1), Reg(0), 0, 4),
        Store(Reg(0), 0, Const(2), 4),
        Ret(Reg(1)),
    ])
    sink = run_check(func, "dead-store")
    assert len(sink) == 0


# ---------------------------------------------------------------------------
# cfg-consistency
# ---------------------------------------------------------------------------

def _diamond() -> Function:
    func = Function("f", [Reg(0)])
    func.add_block("entry", [CondJump("eq", Reg(0), Const(0), "a", "b")])
    func.add_block("a", [Jump("join")])
    func.add_block("b", [Jump("join")])
    func.add_block("join", [Ret(Reg(0))])
    return func


def test_cfg_consistency_clean_on_diamond():
    sink = run_check(_diamond(), "cfg-consistency")
    assert len(sink) == 0


def test_cfg_consistency_warns_on_unreachable_block():
    func = _diamond()
    func.add_block("orphan", [Ret(None)])
    sink = run_check(func, "cfg-consistency")
    assert any("unreachable" in d.message for d in sink.warnings)
    assert not sink.has_errors


def test_cfg_consistency_trips_on_wrong_dominator_tree(monkeypatch):
    # Feed the checker a corrupted idom tree: it must notice the
    # disagreement with its own brute-force dominance solution.
    from repro.analysis.dominators import immediate_dominators

    def corrupted(func):
        idom = dict(immediate_dominators(func))
        idom["join"] = "a"  # join is NOT dominated by a
        return idom

    monkeypatch.setattr(
        "repro.sanitize.checkers.immediate_dominators", corrupted
    )
    sink = run_check(_diamond(), "cfg-consistency")
    assert any("dominator tree disagrees" in d.message
               for d in sink.errors)


# ---------------------------------------------------------------------------
# coalesce-safety (hand-built RTL)
# ---------------------------------------------------------------------------

WIDE = 8


def _aligned_base_function(extracts=True, misaligned_by=0):
    """A wide load from a frame slot whose alignment is provable."""
    func = Function("f")
    slot = func.add_frame_slot("buf", 32, align=WIDE)
    instrs = [FrameAddr(Reg(1), slot)]
    base = Reg(1)
    if misaligned_by:
        instrs.append(BinOp("add", Reg(2), Reg(1), Const(misaligned_by)))
        base = Reg(2)
    instrs.append(Load(Reg(3), base, 0, WIDE))
    if extracts:
        instrs.append(Extract(Reg(4), Reg(3), Const(0), 1, True))
        instrs.append(Extract(Reg(5), Reg(3), Const(1), 1, True))
    instrs.append(Ret(Reg(3)))
    func.add_block("entry", instrs)
    return func


def test_coalesce_safety_clean_on_provably_aligned_load():
    sink = run_check(_aligned_base_function(), "coalesce-safety")
    assert len(sink) == 0


def test_coalesce_safety_trips_on_provable_misalignment():
    sink = run_check(
        _aligned_base_function(misaligned_by=4), "coalesce-safety"
    )
    assert any("provably misaligned" in d.message for d in sink.errors)


def test_coalesce_safety_plain_wide_load_not_audited():
    # A wide load with no extract fan and no coalesced note is an
    # ordinary long access — it must not be audited.
    sink = run_check(
        _aligned_base_function(extracts=False, misaligned_by=4),
        "coalesce-safety",
    )
    assert len(sink) == 0


def _guarded_param_function(with_guard: bool) -> Function:
    """A wide load off a pointer parameter, optionally guarded by the
    Figure 5 run-time alignment test."""
    func = Function("f", [Reg(0)])
    if with_guard:
        func.add_block("entry", [
            BinOp("and", Reg(1), Reg(0), Const(WIDE - 1)),
            CondJump("ne", Reg(1), Const(0), "fallback", "fast"),
        ])
    else:
        func.add_block("entry", [Jump("fast")])
    func.add_block("fast", [
        Load(Reg(3), Reg(0), 0, WIDE),
        Extract(Reg(4), Reg(3), Const(0), 1, True),
        Extract(Reg(5), Reg(3), Const(1), 1, True),
        Ret(Reg(4)),
    ])
    func.add_block("fallback", [
        Load(Reg(6), Reg(0), 0, 1),
        Ret(Reg(6)),
    ])
    return func


def test_coalesce_safety_accepts_runtime_guard():
    sink = run_check(_guarded_param_function(True), "coalesce-safety")
    assert not sink.has_errors


def test_coalesce_safety_trips_without_runtime_guard():
    sink = run_check(_guarded_param_function(False), "coalesce-safety")
    assert any("no dominating run-time alignment check" in d.message
               for d in sink.errors)


def test_coalesce_safety_trips_on_store_into_coalesced_word():
    func = Function("f")
    slot = func.add_frame_slot("buf", 32, align=WIDE)
    func.add_block("entry", [
        FrameAddr(Reg(1), slot),
        Load(Reg(3), Reg(1), 0, WIDE),
        Store(Reg(1), 2, Const(0), 1),  # writes into the wide word
        Extract(Reg(4), Reg(3), Const(0), 1, True),
        Extract(Reg(5), Reg(3), Const(2), 1, True),  # reads stale byte
        Ret(Reg(5)),
    ])
    sink = run_check(func, "coalesce-safety")
    assert any("between the wide load and its extracts" in d.message
               for d in sink.errors)


def test_coalesce_safety_trips_on_base_update_before_wide_store():
    func = Function("f")
    slot = func.add_frame_slot("buf", 32, align=WIDE)
    func.add_block("entry", [
        FrameAddr(Reg(1), slot),
        Insert(Reg(10), Const(0), Const(1), Const(0), 1),
        Insert(Reg(11), Reg(10), Const(2), Const(1), 1),
        BinOp("add", Reg(1), Reg(1), Const(WIDE)),  # base moves!
        Store(Reg(1), 0, Reg(11), WIDE),
        Ret(None),
    ])
    sink = run_check(func, "coalesce-safety")
    assert any("is modified at instruction" in d.message
               for d in sink.errors)


def test_coalesce_safety_trips_on_unguarded_cross_partition_store():
    func = Function("f", [Reg(0)])
    slot = func.add_frame_slot("buf", 32, align=WIDE)
    func.add_block("entry", [
        FrameAddr(Reg(1), slot),
        Load(Reg(3), Reg(1), 0, WIDE),
        Store(Reg(0), 0, Const(9), 1),  # other partition, no guard
        Extract(Reg(4), Reg(3), Const(0), 1, True),
        Ret(Reg(4)),
    ])
    sink = run_check(func, "coalesce-safety")
    assert any("cross-partition" in d.message for d in sink.errors)


# ---------------------------------------------------------------------------
# coalesce-safety as a cross-check on real coalescer output
# ---------------------------------------------------------------------------

SUMBYTES = """
int sumbytes(char *p, int n) {
    int i; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) { s = s + p[i]; }
    return s;
}
"""


def test_real_coalesced_output_is_clean():
    program = compile_minic(SUMBYTES, "alpha", "coalesce-all",
                            schedule=False)
    sink = DiagnosticSink()
    for fn in get_checkers(["coalesce-safety"]):
        fn(program.module.functions["sumbytes"], program.module,
           program.machine, sink)
    assert not sink.has_errors


def test_dropped_alignment_guard_is_caught():
    """Hand-miscompile the coalescer's output: replace the run-time
    alignment check with an unconditional jump to the fast path.  The
    wide access is now reachable with a misaligned base and the checker
    must flag it."""
    program = compile_minic(SUMBYTES, "alpha", "coalesce-all",
                            schedule=False)
    func = program.module.functions["sumbytes"]
    dropped = 0
    for block in func.blocks:
        term = block.instrs[-1]
        if isinstance(term, CondJump) and block.label.startswith("chk"):
            passed = term.iffalse if term.rel == "ne" else term.iftrue
            block.instrs[-1] = Jump(passed)
            dropped += 1
    assert dropped, "expected the coalescer to have emitted check blocks"

    sink = DiagnosticSink()
    for fn in get_checkers(["coalesce-safety"]):
        fn(func, program.module, program.machine, sink)
    assert sink.has_errors
    assert any("alignment" in d.message for d in sink.errors)
