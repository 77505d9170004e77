"""Scheduler tests: dependence DAG, list scheduling, block cost model."""

import pytest

from repro.ir import parse_module
from repro.machine import get_machine
from repro.sched import block_cycles, build_dag, list_schedule
from repro.sched.list_scheduler import apply_schedule
from repro.pipeline import compile_and_run


def block_of(text, label="entry"):
    func = next(iter(parse_module(text)))
    return func, func.block(label)


INDEPENDENT = """
func f(r0) {
entry:
    r1 = add r0, 1
    r2 = add r0, 2
    r3 = add r0, 3
    r4 = add r0, 4
    ret r4
}
"""

CHAIN = """
func f(r0) {
entry:
    r1 = load.8u [r0]
    r2 = add r1, 1
    r3 = mul r2, r2
    ret r3
}
"""

MEMORY = """
func f(r0, r1) {
entry:
    r2 = load.4s [r0]
    store.4 [r1], r2
    r3 = load.4s [r0 + 8]
    store.4 [r1 + 8], r3
    ret 0
}
"""


class TestDependenceDAG:
    def test_raw_edge(self):
        _, block = block_of(CHAIN)
        machine = get_machine("alpha")
        dag = build_dag(block, machine.latency)
        assert 1 in dag.succs[0]           # load -> add
        assert dag.succs[0][1] == 3        # with the load's latency

    def test_independent_ops_have_no_edges(self):
        _, block = block_of(INDEPENDENT)
        dag = build_dag(block, get_machine("alpha").latency)
        assert all(not s for s in dag.succs)

    def test_waw_and_war_edges(self):
        _, block = block_of(
            "func f(r0) {\nentry:\n    r1 = add r0, 1\n"
            "    r2 = add r1, 1\n    r1 = add r0, 2\n    ret r1\n}"
        )
        dag = build_dag(block, get_machine("alpha").latency)
        assert 2 in dag.succs[0]  # WAW on r1
        assert 2 in dag.succs[1]  # WAR on r1

    def test_conflicting_memory_ordered(self):
        _, block = block_of(
            "func f(r0) {\nentry:\n    store.4 [r0], 1\n"
            "    r1 = load.4s [r0]\n    ret r1\n}"
        )
        dag = build_dag(block, get_machine("alpha").latency)
        assert 1 in dag.succs[0]

    def test_disjoint_same_base_memory_independent(self):
        _, block = block_of(MEMORY)
        dag = build_dag(block, get_machine("alpha").latency)
        # store [r1] and load [r0+8] cannot be proven disjoint (different
        # bases) -> ordered; but store [r1] and store [r1+8] are disjoint.
        assert 3 not in dag.succs[1]

    def test_different_bases_conservatively_ordered(self):
        _, block = block_of(MEMORY)
        dag = build_dag(block, get_machine("alpha").latency)
        assert 2 in dag.succs[1]  # store [r1] before load [r0+8]

    def test_base_redefinition_versions_address(self):
        _, block = block_of(
            "func f(r0) {\nentry:\n    store.4 [r0], 1\n"
            "    r0 = add r0, 64\n    store.4 [r0], 2\n    ret 0\n}"
        )
        dag = build_dag(block, get_machine("alpha").latency)
        # Same register, different value: must stay ordered.
        assert 2 in dag.succs[0]

    def test_loads_commute(self):
        _, block = block_of(
            "func f(r0) {\nentry:\n    r1 = load.4s [r0]\n"
            "    r2 = load.4s [r0 + 4]\n    r3 = add r1, r2\n"
            "    ret r3\n}"
        )
        dag = build_dag(block, get_machine("alpha").latency)
        assert 1 not in dag.succs[0]

    def test_call_is_barrier(self):
        func = next(iter(parse_module(
            "func f(r0) {\nentry:\n    store.4 [r0], 1\n"
            "    call f(r0)\n    r1 = load.4s [r0]\n    ret r1\n}"
        )))
        block = func.block("entry")
        dag = build_dag(block, get_machine("alpha").latency)
        assert 1 in dag.succs[0]
        assert 2 in dag.succs[1]

    def test_critical_heights_decrease_along_chain(self):
        _, block = block_of(CHAIN)
        machine = get_machine("alpha")
        dag = build_dag(block, machine.latency)
        heights = dag.critical_heights(machine.latency)
        assert heights[0] > heights[1] > heights[2]


class TestListSchedule:
    def test_respects_dependences(self):
        _, block = block_of(CHAIN)
        result = list_schedule(block, get_machine("alpha"))
        position = {node: i for i, node in enumerate(result.order)}
        assert position[0] < position[1] < position[2]

    def test_dual_issue_packs_independent_ops(self):
        _, block = block_of(INDEPENDENT)
        result = list_schedule(block, get_machine("alpha"))
        # 4 independent adds, dual issue -> 2 cycles of issue.
        assert max(result.issue_cycle) == 1

    def test_single_issue_serializes(self):
        _, block = block_of(INDEPENDENT)
        result = list_schedule(block, get_machine("m88100"))
        assert max(result.issue_cycle) == 3

    def test_memory_port_interval(self):
        _, block = block_of(
            "func f(r0) {\nentry:\n    r1 = load.4s [r0]\n"
            "    r2 = load.4s [r0 + 4]\n    r3 = add r1, r2\n"
            "    ret r3\n}"
        )
        alpha = list_schedule(block, get_machine("alpha"))
        m88100 = list_schedule(block, get_machine("m88100"))
        # The 88100's memory port accepts one access every 2 cycles.
        assert m88100.issue_cycle[1] - m88100.issue_cycle[0] >= 2
        assert alpha.issue_cycle[1] - alpha.issue_cycle[0] >= 1

    def test_non_pipelined_cost_is_latency_sum(self):
        _, block = block_of(CHAIN)
        machine = get_machine("m68030")
        result = list_schedule(block, machine)
        expected = sum(machine.latency(i) for i in block.instrs)
        assert result.cycles == expected

    def test_latency_respected_before_dependent_issue(self):
        _, block = block_of(CHAIN)
        machine = get_machine("alpha")
        result = list_schedule(block, machine)
        # add must wait for the load's 3-cycle latency.
        assert result.issue_cycle[1] >= result.issue_cycle[0] + 3


class TestApplySchedule:
    def test_reorders_to_hide_latency(self):
        func, block = block_of(
            "func f(r0) {\nentry:\n    r1 = load.8u [r0]\n"
            "    r2 = add r1, 1\n    r3 = load.8u [r0 + 8]\n"
            "    r4 = add r3, 1\n    r5 = add r2, r4\n    ret r5\n}"
        )
        before = block_cycles(block, get_machine("alpha"))
        apply_schedule(block, get_machine("alpha"))
        after = block_cycles(block, get_machine("alpha"))
        assert after <= before
        # The two loads should now be adjacent at the top.
        kinds = [type(i).__name__ for i in block.instrs[:3]]
        assert kinds.count("Load") >= 1

    def test_scheduling_preserves_semantics(self):
        source = """
        int f(int *a, int n) {
            int i, s;
            s = 0;
            for (i = 0; i < n; i++)
                s += a[i] * (a[i] + 1);
            return s;
        }
        """
        values = [5, -3, 2, 7, -8, 1]
        expected = sum(v * (v + 1) for v in values)
        for config in ("cc", "vpo"):
            result, _ = compile_and_run(
                source, "f", ["a", len(values)], config=config,
                arrays=[("a", 4, values)],
            )
            assert result == expected


class TestBlockCost:
    def test_inorder_cost_penalizes_bad_order(self):
        # Dependent pair placed back-to-back stalls; scheduled order hides
        # the latency behind the other load.
        _, bad = block_of(
            "func f(r0) {\nentry:\n    r1 = load.8u [r0]\n"
            "    r2 = add r1, 1\n    r3 = load.8u [r0 + 8]\n"
            "    r4 = add r3, 1\n    r5 = add r2, r4\n    ret r5\n}"
        )
        _, good = block_of(
            "func f(r0) {\nentry:\n    r1 = load.8u [r0]\n"
            "    r3 = load.8u [r0 + 8]\n    r2 = add r1, 1\n"
            "    r4 = add r3, 1\n    r5 = add r2, r4\n    ret r5\n}"
        )
        machine = get_machine("alpha")
        assert block_cycles(good, machine) < block_cycles(bad, machine)

    def test_cost_at_least_one(self):
        _, block = block_of("func f() {\nentry:\n    ret 0\n}")
        assert block_cycles(block, get_machine("alpha")) >= 1

    def test_non_pipelined_order_independent(self):
        machine = get_machine("m68030")
        _, a = block_of(
            "func f(r0) {\nentry:\n    r1 = load.4s [r0]\n"
            "    r2 = add r1, 1\n    r3 = load.4s [r0 + 4]\n    ret r3\n}"
        )
        _, b = block_of(
            "func f(r0) {\nentry:\n    r1 = load.4s [r0]\n"
            "    r3 = load.4s [r0 + 4]\n    r2 = add r1, 1\n    ret r2\n}"
        )
        assert block_cycles(a, machine) == block_cycles(b, machine)
