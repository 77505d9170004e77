"""The kernel-call plan: validation, staging, read-back and the recipes."""

import pytest

from repro.bench import BENCHMARKS
from repro.bench.workloads import make_plan
from repro.errors import ReproError
from repro.pipeline import compile_minic
from repro.sim.plan import Plan, check, dump, run_plan, to_signed

SUM_SRC = """
int sum(short *a, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i];
    return s;
}
"""


def simulator(machine="alpha"):
    return compile_minic(SUM_SRC, machine, "vpo").simulator()


class TestValidation:
    @pytest.mark.parametrize("arrays, args, complaint", [
        ([("a", 2)], ["a"], "want [name, width, values]"),
        (["abc"], [], "want [name, width, values]"),
        ([(1, 2, [1])], [], "bad array 1: want name, width > 0"),
        ([("a", 0, [1])], ["a"], "bad array 'a': want name, width > 0"),
        ([("a", 2, 7)], ["a"], "bad array 'a': want name, width > 0"),
        ([("a", 2, [1, None])], ["a"], "None is not an integer"),
        ([("a", 2, [1]), ("a", 4, [2])], ["a"], "staged twice"),
        ([("a", 2, [1])], ["b"], "'b' is neither an integer nor the name"),
        ([("a", 2, [1])], ["a", 2.5], "2.5 is neither an integer"),
        ([("a", 2, [1])], [["a"]], "['a'] is neither an integer"),
        ({"a": [1]}, [], "'arrays' and 'args' must be lists"),
        ([], "a", "'arrays' and 'args' must be lists"),
        ([("a", 2, [1])], [["a", 0, 1]], "['a', 0, 1] is neither an integer"),
        ([("a", 2, [1])], [[0, "a"]], "[0, 'a'] is neither an integer"),
        ([("a", 2, [1])], [["b", 0]], "['b', 0]: no array named 'b'"),
        ([("a", 2, [1])], [["a", 1.0]], "offset 1.0 is not inside"),
        ([("a", 2, [1])], [["a", "1"]], "offset '1' is not inside"),
        ([("a", 2, [1])], [["a", -1]], "offset -1 is not inside"),
        ([("a", 2, [1])], [["a", 2]], "offset 2 is not inside the 2 bytes"),
        ([("a", 2, [1])], [["a", 9]], "offset 9 is not inside the 2 bytes"),
        ([("a", 2, [])], [["a", 0]], "offset 0 is not inside the 0 bytes"),
    ])
    def test_malformed_plan_raises(self, arrays, args, complaint):
        with pytest.raises(ReproError) as info:
            Plan("sum", arrays, args)
        assert complaint in str(info.value)

    def test_json_lists_are_accepted(self):
        plan = Plan("sum", [["a", 2, [1, -2]]], ["a", 2])
        assert plan.arrays == [("a", 2, [1, -2])]


class TestRunPlan:
    def test_stages_in_order_and_returns_signed(self, machine):
        sim = simulator(machine.name)
        plan = Plan(
            "sum", [("pad", 1, [0] * 3), ("a", 2, [4, -5, 6, -20])],
            ["a", 4], result=-15,
        )
        result = run_plan(sim, plan)
        assert result == -15
        assert sim.array_addr("pad") < sim.array_addr("a")
        assert check(sim, plan, result)

    def test_offset_argument_points_into_the_array(self):
        sim = simulator()
        plan = Plan("sum", [("a", 2, [100, 20, 3])], [["a", 2], 2])
        assert run_plan(sim, plan) == 23

    def test_void_entry_returns_none(self):
        sim = compile_minic(
            "void put(int *p) { p[0] = 7; }", "alpha", "vpo"
        ).simulator()
        plan = Plan("put", [("p", 4, [0])], ["p"], {"p": [7]})
        assert run_plan(sim, plan) is None
        assert check(sim, plan, None)

    def test_check_catches_a_wrong_result_or_output(self):
        sim = simulator()
        plan = Plan(
            "sum", [("a", 2, [1, -1, 3])], ["a", 3],
            {"a": [1, -1, 3]}, result=3,
        )
        result = run_plan(sim, plan)
        assert check(sim, plan, result)
        assert not check(sim, plan, result + 1)
        sim.write_words(sim.array_addr("a") + 2, [2], 2)
        assert not check(sim, plan, result)

    def test_dump_stops_at_the_array_and_the_limit(self):
        sim = simulator()
        plan = Plan(
            "sum",
            [("a", 2, [-1, 2, -3]), ("big", 1, list(range(100))),
             ("empty", 4, [])],
            ["a", 3],
        )
        run_plan(sim, plan)
        assert dump(sim, plan, 1000) == {
            "a": [-1, 2, -3],
            "big": list(range(64)),
            "empty": [],
        }
        assert dump(sim, plan, 2)["a"] == [-1, 2]

    def test_to_signed(self):
        assert to_signed(0xFFFFFFFB, 32) == -5
        assert to_signed(0x7FFFFFFF, 32) == 0x7FFFFFFF
        assert to_signed((1 << 64) - 5, 64) == -5


class TestRecipes:
    def test_every_benchmark_has_a_recipe(self):
        for name, program in BENCHMARKS.items():
            assert make_plan(name, 8, 8).entry == program.entry

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            make_plan("whetstone", 8, 8)

    def test_translate_keeps_the_anchor_shift(self):
        assert make_plan("translate", 16, 16).args[-2:] == [8, 4]
