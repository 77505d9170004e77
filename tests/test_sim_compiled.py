"""The block-compiling ``compiled`` simulator backend.

Five concerns:

* the :class:`BlockCache` (hits, invalidations, LRU eviction,
  cross-engine reuse), its structural key (equal keys emit equal
  source, over the whole quick matrix) and first-entry translation (a
  closure control never enters is never emitted or compiled);
* an engine's lifetime (dropping its Simulator frees the arena without
  the cyclic GC), the cycle report, which prices only the blocks that
  executed, each once per program, and engines built on one program's
  shared facts, which run exactly as engines that derive their own;
* the runner's fallback policy — hooks and ``REPRO_FAULTS`` silently
  route a ``compiled`` request to the interpreter, recorded in
  ``backend_requested``/``backend``/``fallback_reason``;
* watchdog and ``cancel=`` deadline parity: identical
  :class:`SimulationTimeout` attributes and identical probe cadence on
  both backends, also inside loop chains, whose block counts, step
  count and resident I-cache probes live in locals;
* the differential contract itself, over the sanitizer's fixture plans
  (including misaligned, aliased and larger-trip ones) and over real benchmark
  cells on all three machines, plus the bench-runner helpers
  (``diff_runs``/``check_sim_rate``) that gate it in CI.
"""

from dataclasses import replace

import pytest

from repro.bench import runner as bench_runner
from repro.bench.harness import run_benchmark
from repro.bench.programs import get_benchmark
from repro.bench.workloads import make_plan
from repro.errors import DeadlineExceeded, SimulationError, SimulationTimeout
from repro.ir import parse_module
from repro.machine import get_machine
from repro.machine.machine import CacheGeometry
from repro.pipeline import compile_minic
from repro.sanitize.differential import (
    DEFAULT_VARIANTS,
    MAX_FIXTURE_STEPS,
    describe,
    fixture_plans,
    observe,
)
from repro.sim import Simulator, default_sim_backend
from repro.sim.cache import BlockCache
from repro.sim.interp import Interpreter
from repro.sim.plan import check as check_plan, run_plan
from repro.sim.translate import CompiledEngine, loop_chains

LOOP_TEXT = (
    "func spin(r0) {\nentry:\n    r1 = 0\n    jump loop\n"
    "loop:\n    r1 = add r1, 1\n    br lt r1, r0, loop, done\n"
    "done:\n    ret r1\n}"
)

FIB_TEXT = (
    "func fib(r0) {\nentry:\n    br lt r0, 2, base, rec\n"
    "base:\n    ret r0\n"
    "rec:\n    r1 = sub r0, 1\n    r2 = call fib(r1)\n"
    "    r3 = sub r0, 2\n    r4 = call fib(r3)\n"
    "    r5 = add r2, r4\n    ret r5\n}"
)


def _compiled_engine(text, machine_name="alpha", **kwargs):
    return CompiledEngine(
        parse_module(text), get_machine(machine_name), **kwargs
    )


class TestBlockCache:
    def test_hit_and_miss_counters(self):
        cache = BlockCache()
        key = ("x", 1)
        assert cache.get(key) is None
        code = compile("x = 1\n", "<blk>", "exec")
        cache.put(key, code)
        assert cache.get(key) is code
        assert key in cache and len(cache) == 1
        assert cache.stats() == {
            "entries": 1, "capacity": cache.capacity,
            "hits": 1, "misses": 1, "invalidations": 0,
        }

    def test_invalidate_and_clear(self):
        cache = BlockCache()
        key = ("y", 2)
        cache.put(key, object())
        assert cache.invalidate(key) is True
        assert cache.invalidate(key) is False
        assert cache.get(key) is None
        cache.put(key, object())
        cache.put(("z", 3), object())
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.invalidations == 3

    def test_lru_eviction(self):
        cache = BlockCache(capacity=2)
        fps = [("v", i) for i in range(3)]
        cache.put(fps[0], "a")
        cache.put(fps[1], "b")
        cache.get(fps[0])  # freshen: fps[1] is now the LRU victim
        cache.put(fps[2], "c")
        assert fps[0] in cache and fps[2] in cache
        assert fps[1] not in cache
        assert cache.invalidations == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BlockCache(capacity=0)


class TestTranslationCache:
    """Closures are translated on first entry, so each test runs the
    function (fib(n >= 2) enters all three blocks) before it reads the
    translation counts."""

    def test_cold_engine_translates_every_block(self):
        cache = BlockCache()
        engine = _compiled_engine(FIB_TEXT, block_cache=cache)
        assert engine.call("fib", 5) == 5
        stats = engine.translation_stats()
        assert stats["blocks"] == 3
        assert stats["translated"] == 3
        assert stats["cache_hits"] == 0

    def test_warm_engine_reuses_every_block(self):
        cache = BlockCache()
        cold = _compiled_engine(FIB_TEXT, block_cache=cache)
        assert cold.call("fib", 12) == 144
        warm = _compiled_engine(FIB_TEXT, block_cache=cache)
        assert warm.call("fib", 12) == 144
        assert warm.translation_stats() == {
            "blocks": 3, "translated": 0, "cache_hits": 3,
        }

    def test_equal_keys_emit_equal_source(self):
        # Labels are bound through the namespace, so a relabelled copy
        # of fib shares every key (and a hit binds its own successors);
        # a changed constant does not.
        cache = BlockCache()
        engine = _compiled_engine(FIB_TEXT, block_cache=cache)
        assert engine.call("fib", 10) == 55
        relabelled = FIB_TEXT.replace("base", "leaf").replace("rec", "walk")
        twin = _compiled_engine(relabelled, block_cache=cache)
        for label, twin_label in (("entry", "entry"), ("base", "leaf"),
                                  ("rec", "walk")):
            key = engine.block_key("fib", label)
            assert isinstance(key, tuple) and key in cache
            assert twin.block_key("fib", twin_label) == key
            assert twin.block_source("fib", twin_label) == (
                engine.block_source("fib", label))
        assert twin.call("fib", 10) == 55
        assert twin.translation_stats() == {
            "blocks": 3, "translated": 0, "cache_hits": 3,
        }
        changed = _compiled_engine(
            FIB_TEXT.replace("sub r0, 2", "sub r0, 3"), block_cache=cache
        )
        assert changed.block_key("fib", "rec") != engine.block_key(
            "fib", "rec")

    def test_invalidation_forces_one_retranslation(self):
        cache = BlockCache()
        engine = _compiled_engine(FIB_TEXT, block_cache=cache)
        assert engine.call("fib", 10) == 55
        assert cache.invalidate(engine.block_key("fib", "rec"))
        fresh = _compiled_engine(FIB_TEXT, block_cache=cache)
        assert fresh.call("fib", 10) == 55
        assert fresh.translation_stats() == {
            "blocks": 3, "translated": 1, "cache_hits": 2,
        }

    def test_accounting_config_changes_the_key(self):
        # Cache probes and the cancel probe are compiled into the block
        # body, so the same RTL with caches off, or with a probe, must
        # not reuse a caches-on, probe-less entry.
        cache = BlockCache()
        assert _compiled_engine(FIB_TEXT, block_cache=cache).call(
            "fib", 6) == 8
        for config in ({"simulate_caches": False},
                       {"cancel": lambda: None}):
            other = _compiled_engine(FIB_TEXT, block_cache=cache, **config)
            assert other.call("fib", 6) == 8
            assert other.translation_stats()["cache_hits"] == 0
            assert other.translation_stats()["translated"] == 3


class TestFirstEntryTranslation:
    def test_unentered_closure_is_never_compiled(self):
        from repro.sim.facts import ModuleFacts

        cache = BlockCache()
        module, machine = parse_module(FIB_TEXT), get_machine("alpha")
        facts = ModuleFacts(module, machine)
        engine = CompiledEngine(module, machine, block_cache=cache,
                                facts=facts)
        assert engine.translation_stats() == {
            "blocks": 3, "translated": 0, "cache_hits": 0,
        }
        assert len(cache) == 0
        # fib(1) runs entry and base; rec is never entered, nor keyed.
        assert engine.call("fib", 1) == 1
        assert engine.translation_stats()["translated"] == 2
        assert (len(cache), cache.misses) == (2, 2)
        assert [set(keys) for keys in facts.closure_keys.values()] == [
            {("fib", "entry"), ("fib", "base")}]
        # Asking for its source translates it through the same path.
        assert "def _blk(" in engine.block_source("fib", "rec")
        assert engine.translation_stats()["translated"] == 3
        assert (len(cache), cache.misses) == (3, 3)
        assert engine.call("fib", 10) == 55
        assert cache.misses == 3

    def test_each_closure_is_translated_once(self, monkeypatch):
        translated = []
        translate = CompiledEngine._translate

        def counted(self, closure):
            translated.append(closure.members[0].label)
            return translate(self, closure)

        monkeypatch.setattr(CompiledEngine, "_translate", counted)
        engine = _compiled_engine(FIB_TEXT, block_cache=BlockCache())
        assert engine.call("fib", 12) == 144
        # Every stand-in ran once; then the closures call each other.
        assert sorted(translated) == ["base", "entry", "rec"]
        assert engine.call("fib", 12) == 144
        assert len(translated) == 3

    def test_first_entry_is_timed_under_the_call(self):
        from repro import timing

        sim = Simulator(parse_module(FIB_TEXT), get_machine("alpha"),
                        backend="compiled", block_cache=BlockCache())
        with timing.root("run") as tree:
            with timing.span("sim.exec"):
                assert sim.call("fib", 6) == 8
        (exec_node,) = tree.to_dict()["children"]
        (translate_node,) = exec_node["children"]
        assert translate_node["name"] == "sim.translate"
        assert translate_node["calls"] == 3


def _quick_matrix():
    """``(cell, program, machine, module)`` for the 156 quick-matrix
    cells, parsed from the golden-RTL test's compiles."""
    from tests.test_golden_rtl import cell_texts

    for cell, text in cell_texts():
        program, machine, _column = cell.split()
        yield cell, program, get_machine(machine), parse_module(text)


class TestKeyContract:
    """DESIGN §7c: the BlockCache key holds exactly what the translator
    reads, so equal keys emit equal source."""

    def test_equal_keys_emit_equal_source_over_the_quick_matrix(self):
        # 1,248 engines share one cache: every cell at sizes 16 and 13,
        # caches on and off, with and without a cancel probe.  Every run
        # must check out (a wrong hit binds another closure's code), and
        # every closure's key must name one source.  Dropping the
        # resident verdict or the line counts from the key fails here.
        cache = BlockCache()
        sources = {}
        engines = 0
        for cell, program, machine, module in _quick_matrix():
            plans = [make_plan(program, size, size) for size in (16, 13)]
            for caches in (True, False):
                for cancel in (None, lambda: None):
                    for plan in plans:
                        sim = Simulator(
                            module, machine, backend="compiled",
                            simulate_caches=caches, cancel=cancel,
                            block_cache=cache,
                        )
                        assert check_plan(sim, plan, run_plan(sim, plan)), (
                            cell, caches, cancel)
                        engines += 1
                    engine = sim.engine
                    for func in module:
                        for block in func.blocks:
                            key = engine.block_key(func.name, block.label)
                            source = engine.block_source(
                                func.name, block.label)
                            assert sources.setdefault(key, source) == (
                                source), (cell, func.name, block.label)
        assert engines == 1248
        assert len(sources) > 1000
        # No two matrix closures differ only in the resident verdict, so
        # each loop chain is also keyed on an I-cache that holds its
        # lines and on a one-line cache of the same line size.
        small = get_machine("alpha")
        line = small.icache.line_bytes
        small.icache = CacheGeometry(line, line, small.icache.miss_penalty)
        for text in CHAIN_TEXTS.values():
            for machine in (get_machine("alpha"), small):
                engine = CompiledEngine(parse_module(text), machine,
                                        block_cache=cache)
                key = engine.block_key("walk", "head")
                source = engine.block_source("walk", "head")
                assert sources.setdefault(key, source) == source


class TestEngineLifetime:
    def test_dropped_simulator_frees_its_arena_without_the_gc(self):
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            sim = Simulator(parse_module(LOOP_TEXT), get_machine("alpha"),
                            backend="compiled", block_cache=BlockCache())
            assert sim.call("spin", 10) == 10
            memory = weakref.ref(sim.memory)
            engine = sim.engine
            del sim
            assert memory() is None
            with pytest.raises(SimulationError, match="closed"):
                engine.call("spin", 3)
            with pytest.raises(SimulationError, match="closed"):
                engine.block_source("spin", "loop")
            assert engine.stats.block_counts[("spin", "loop")] == 10
        finally:
            if enabled:
                gc.enable()

    def test_standalone_engine_is_not_closed(self):
        engine = _compiled_engine(LOOP_TEXT, block_cache=BlockCache())
        assert engine.call("spin", 4) == 4
        assert engine.call("spin", 5) == 5


class TestExecutedBlockReport:
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_equals_the_full_table_report(self, backend):
        from repro.pipeline import CompiledProgram, get_config
        from repro.sched.block_cost import module_block_cycles
        from repro.sim.costs import cycle_report

        machines = set()
        for cell, program, machine, module in _quick_matrix():
            compiled = CompiledProgram(module, machine, get_config("vpo"))
            sim = compiled.simulator(backend=backend)
            plan = make_plan(program, 16, 16)
            run_plan(sim, plan)
            engine = sim.engine
            full = cycle_report(
                module, machine, engine.stats, icache=engine.icache,
                dcache=engine.dcache,
                block_cycle_table=module_block_cycles(module, machine),
            )
            assert sim.report() == full, cell
            # The program's table priced exactly the executed blocks.
            assert compiled.facts.block_costs(()) == module_block_cycles(
                module, machine, engine.stats.block_counts), cell
            machines.add(machine.name)
        assert machines == {"alpha", "m88100", "m68030"}

    def test_a_second_measure_prices_nothing(self, monkeypatch):
        from repro.sched import block_cost

        program = compile_minic(get_benchmark("convolution").source,
                                "m88100", "coalesce-all")
        plan = make_plan("convolution", 16, 16)
        priced = []
        block_cycles = block_cost.block_cycles

        def counted(block, machine):
            priced.append(block.label)
            return block_cycles(block, machine)

        monkeypatch.setattr(block_cost, "block_cycles", counted)
        first = program.measure(plan, backend="compiled")
        assert first.output_ok and priced
        priced.clear()
        assert program.measure(plan, backend="interp") == replace(
            first, sim_backend="interp")
        assert priced == []


class TestSharedFacts:
    """Engines built on one program's facts (:mod:`repro.sim.facts`)
    run exactly as engines that derive their own."""

    def test_shared_and_fresh_facts_agree_over_the_quick_matrix(self):
        from repro.sim.facts import ModuleFacts

        def observed(sim, plan):
            result = run_plan(sim, plan)
            engine = sim.engine
            stats = engine.stats
            return (
                result, stats.block_counts, stats.instr_count,
                stats.load_count, stats.store_count, stats.call_count,
                engine.icache and (engine.icache.misses,
                                   engine.dcache.misses),
                engine.translation_stats(),
                [engine.block_key(func.name, block.label)
                 for func in sim.module for block in func.blocks],
            )

        cells = 0
        for cell, program, machine, module in _quick_matrix():
            if machine.name != "alpha":
                continue
            cells += 1
            plan = make_plan(program, 16, 16)
            facts = ModuleFacts(module, machine)
            for caches in (True, False):
                for cancel in (None, lambda: None):
                    # A fresh set of facts, then the shared one twice:
                    # the second of those keys nothing it entered.
                    runs = [observed(Simulator(
                        module, machine, backend="compiled",
                        simulate_caches=caches, cancel=cancel,
                        block_cache=BlockCache(), facts=shared,
                    ), plan) for shared in (None, facts, facts)]
                    assert runs[0] == runs[1] == runs[2], (
                        cell, caches, cancel)
        assert cells == 52

    def test_facts_of_another_module_or_machine_are_refused(self):
        from repro.sim.facts import ModuleFacts

        module, machine = parse_module(LOOP_TEXT), get_machine("alpha")
        facts = ModuleFacts(module, machine)
        for other in ((parse_module(LOOP_TEXT), machine),
                      (module, get_machine("alpha"))):
            with pytest.raises(SimulationError, match="another module"):
                Simulator(*other, facts=facts)


class TestBackendFallback:
    def test_clean_request_gets_the_compiled_engine(self):
        sim = Simulator(
            parse_module(FIB_TEXT), get_machine("alpha"), backend="compiled"
        )
        assert sim.backend_requested == "compiled"
        assert sim.backend == "compiled"
        assert sim.fallback_reason is None
        assert isinstance(sim.engine, CompiledEngine)
        assert sim.call("fib", 10) == 55

    @pytest.mark.parametrize("hook", ["fault_hook", "trace_hook"])
    def test_hooks_fall_back_to_interp(self, hook):
        sim = Simulator(
            parse_module(FIB_TEXT), get_machine("alpha"),
            backend="compiled", **{hook: lambda *a, **k: None},
        )
        assert sim.backend_requested == "compiled"
        assert sim.backend == "interp"
        assert hook in sim.fallback_reason
        assert isinstance(sim.engine, Interpreter)

    def test_env_fault_injection_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "coalesce=raise")
        sim = Simulator(
            parse_module(FIB_TEXT), get_machine("alpha"), backend="compiled"
        )
        assert sim.backend == "interp"
        assert "REPRO_FAULTS" in sim.fallback_reason
        assert sim.call("fib", 10) == 55

    def test_interp_request_never_records_a_fallback(self):
        sim = Simulator(
            parse_module(FIB_TEXT), get_machine("alpha"),
            backend="interp", trace_hook=lambda *a, **k: None,
        )
        assert sim.backend == sim.backend_requested == "interp"
        assert sim.fallback_reason is None

    def test_env_default_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "compiled")
        assert default_sim_backend() == "compiled"
        sim = Simulator(parse_module(FIB_TEXT), get_machine("alpha"))
        assert sim.backend == "compiled"

    def test_bad_env_backend_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        with pytest.raises(SimulationError, match="REPRO_SIM_BACKEND"):
            default_sim_backend()


class TestWatchdogAndDeadlineParity:
    def test_timeout_attributes_identical(self):
        outcomes = []
        for backend in ("interp", "compiled"):
            sim = Simulator(
                parse_module(LOOP_TEXT), get_machine("alpha"),
                backend=backend, max_steps=501,
            )
            with pytest.raises(SimulationTimeout) as exc_info:
                sim.call("spin", 10_000)
            exc = exc_info.value
            outcomes.append(
                (exc.steps, exc.limit, exc.function, exc.block)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1:] == (501, "spin", "loop")

    def test_cancel_probe_cadence_identical(self):
        counts = []
        for backend in ("interp", "compiled"):
            probes = []
            sim = Simulator(
                parse_module(LOOP_TEXT), get_machine("alpha"),
                backend=backend, cancel=lambda: probes.append(1),
            )
            assert sim.call("spin", 40) == 40
            counts.append(len(probes))
        assert counts[0] == counts[1] > 0

    def test_raising_cancel_stops_both_backends_identically(self):
        states = []
        for backend in ("interp", "compiled"):
            fired = [0]

            def cancel():
                fired[0] += 1
                if fired[0] >= 5:
                    raise DeadlineExceeded(1.0, 2.0, "test")

            sim = Simulator(
                parse_module(LOOP_TEXT), get_machine("alpha"),
                backend=backend, cancel=cancel,
            )
            with pytest.raises(DeadlineExceeded):
                sim.call("spin", 10_000)
            states.append((
                fired[0],
                sim.block_count("spin", "entry"),
                sim.block_count("spin", "loop"),
            ))
        assert states[0] == states[1]


# Loop chains (a header plus single-predecessor blocks leading back to
# it) compile into one closure.  Each program exits the chain from the
# header and from a later block; ``found`` returns r6, which only the
# chain's second block defines (entry sets it to 7), so an exit taken
# before that block ever ran must spill the filled value back.
CHAIN_TEXTS = {
    # head -> body -> head: side exit from the header, the last block's
    # branch loops or leaves.
    "two": (
        "func walk(r0, r1) {\nentry:\n    r2 = 0\n    r3 = 0\n"
        "    r6 = 7\n    jump head\n"
        "head:\n    r4 = load.1u [r0]\n    r5 = load.1u [r0 + 64]\n"
        "    r3 = add r3, r4\n    r3 = add r3, r5\n"
        "    br eq r4, 255, found, body\n"
        "body:\n    r0 = add r0, 1\n    r2 = add r2, 1\n"
        "    r6 = add r2, 100\n    br lt r2, r1, head, done\n"
        "found:\n    ret r6\n"
        "done:\n    ret r3\n}"
    ),
    # head -> mid -> tail -> head: the header leaves on the bound, the
    # interior block leaves on the sentinel, the last block jumps back.
    "three": (
        "func walk(r0, r1) {\nentry:\n    r2 = 0\n    r3 = 0\n"
        "    r6 = 7\n    jump head\n"
        "head:\n    br ge r2, r1, done, mid\n"
        "mid:\n    r4 = load.2u [r0]\n    r0 = add r0, 2\n"
        "    r2 = add r2, 1\n    br eq r4, 65535, found, tail\n"
        "tail:\n    r6 = add r2, 100\n    r3 = add r3, r4\n"
        "    store.2 [r0 + 126], r3\n    jump head\n"
        "found:\n    ret r6\n"
        "done:\n    ret r3\n}"
    ),
    # head -> mid -> tail -> head: the interior block jumps straight
    # back to the header on a zero element.
    "three_continue": (
        "func walk(r0, r1) {\nentry:\n    r2 = 0\n    r3 = 0\n"
        "    r6 = 7\n    jump head\n"
        "head:\n    r4 = load.2u [r0]\n    r0 = add r0, 2\n"
        "    r2 = add r2, 1\n    br eq r4, 65535, found, mid\n"
        "mid:\n    r6 = add r2, 100\n    br eq r4, 0, head, tail\n"
        "tail:\n    r3 = add r3, r4\n    store.2 [r0 + 126], r3\n"
        "    br lt r2, r1, head, done\n"
        "found:\n    ret r6\n"
        "done:\n    ret r3\n}"
    ),
}

#: head -> {left, right} -> join -> head: a diamond body is no chain.
DIAMOND_TEXT = (
    "func walk(r0, r1) {\nentry:\n    r2 = 0\n    r3 = 0\n"
    "    jump head\n"
    "head:\n    r4 = load.1u [r0]\n    br lt r4, 128, left, right\n"
    "left:\n    r3 = add r3, r4\n    jump join\n"
    "right:\n    r3 = sub r3, r4\n    jump join\n"
    "join:\n    r0 = add r0, 1\n    r2 = add r2, 1\n"
    "    br lt r2, r1, head, done\n"
    "done:\n    ret r3\n}"
)

def _tiny_cache_alpha():
    """The Alpha with a two-line I-cache and a four-line D-cache: the
    chain's blocks evict each other's lines, and ``[r0]``/``[r0 + 64]``
    share a D-cache slot."""
    machine = get_machine("alpha")
    machine.icache = CacheGeometry(32, 16, 10)
    machine.dcache = CacheGeometry(64, 16, 10)
    return machine


TINY_CACHE_ALPHA = _tiny_cache_alpha()

#: The chains' machines: the Alpha's 8 KiB I-cache holds a chain's lines
#: in distinct slots, the two-line cache does not.
CHAIN_MACHINES = {"alpha": get_machine("alpha"), "tiny": TINY_CACHE_ALPHA}

#: head -> body -> head, where body divides by ``r1 - r2``: a call with
#: r1 = 5 faults in body on the sixth iteration.
FAULT_CHAIN_TEXT = (
    "func walk(r0, r1) {\nentry:\n    r2 = 0\n    r3 = 0\n"
    "    jump head\n"
    "head:\n    r4 = load.1u [r0]\n    r0 = add r0, 1\n"
    "    br eq r4, 255, done, body\n"
    "body:\n    r5 = sub r1, r2\n    r6 = div 100, r5\n"
    "    r2 = add r2, 1\n    r3 = add r3, r6\n    store.1 [r0 + 64], r3\n"
    "    jump head\n"
    "done:\n    ret r3\n}"
)


def _chain_payload(kind):
    """Buffer contents: ``plain`` never hits the sentinel, ``sentinel``
    has it at element 5, ``first`` at element 0; zeros every 7th."""
    values = [0 if i % 7 == 3 else (i * 37) % 250 + 1 for i in range(256)]
    if kind == "sentinel":
        values[5] = 0xFFFF
    elif kind == "first":
        values[0] = 0xFFFF
    return b"".join(v.to_bytes(2, "little") for v in values)


def _chain_run(text, backend, payload, count, machine=TINY_CACHE_ALPHA,
               **kwargs):
    """One call of ``walk`` on one backend: everything the parity
    contract covers."""
    sim = Simulator(parse_module(text), machine, backend=backend, **kwargs)
    buffer = sim.alloc_array("buffer", payload)
    observed = {"backend": sim.backend}
    try:
        observed["value"] = sim.call("walk", buffer, count)
    except SimulationTimeout as exc:
        observed["timeout"] = (exc.steps, exc.limit, exc.function,
                               exc.block)
    except (SimulationError, DeadlineExceeded) as exc:
        observed["error"] = (type(exc).__name__, str(exc))
    engine = sim.engine
    stats = engine.stats
    observed["blocks"] = dict(stats.block_counts)
    observed["icache"] = (engine.icache.hits, engine.icache.misses)
    observed["dcache_misses"] = engine.dcache.misses
    if "value" in observed:
        # An aborted block still counts whole in derived totals (the
        # one tolerated divergence), so these compare on success only.
        observed["counts"] = (stats.instr_count, stats.load_count,
                              stats.store_count, stats.call_count)
        observed["dcache_hits"] = engine.dcache.hits
        observed["memory"] = sim.memory.read_bytes(buffer, len(payload))
    return observed


def _parity(text, payload, count, **kwargs):
    interp = _chain_run(text, "interp", payload, count, **kwargs)
    compiled = _chain_run(text, "compiled", payload, count, **kwargs)
    assert interp.pop("backend") == "interp"
    assert compiled.pop("backend") == "compiled"
    assert interp == compiled
    return compiled


class TestLoopChains:
    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    def test_detected_and_compiled_as_one_closure(self, name):
        module = parse_module(CHAIN_TEXTS[name])
        func = module.function("walk")
        members = ["head", "body"] if name == "two" else [
            "head", "mid", "tail"]
        chains = loop_chains(func)
        assert [b.label for b in chains["head"]] == members
        assert list(chains) == ["head"]
        cache = BlockCache()
        engine = CompiledEngine(module, TINY_CACHE_ALPHA,
                                block_cache=cache)
        source = engine.block_source("walk", "head")
        assert "while True:" in source
        for label in members[1:]:
            # interior blocks run inside the header's closure
            assert engine.block_source("walk", label) == source
        for block in func.blocks:  # translate the closures not run
            engine.block_source("walk", block.label)
        assert len(cache) == len(func.blocks) - (len(members) - 1)
        stats = engine.translation_stats()
        assert stats["blocks"] == stats["translated"] == len(func.blocks)
        # I-cache probes stay inside the loop of a multi-block chain.
        prologue = source.split("while True:")[0]
        assert "_it[" not in prologue

    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    @pytest.mark.parametrize("kind, count", [
        ("plain", 40), ("sentinel", 40), ("first", 40), ("plain", 1),
    ])
    def test_parity_with_conflicting_caches(self, name, kind, count):
        observed = _parity(CHAIN_TEXTS[name], _chain_payload(kind), count)
        if kind == "first":
            assert observed["value"] == 7  # spilled, never redefined
        # the two-line I-cache really does thrash inside the chain
        assert observed["icache"][1] > observed["blocks"][("walk", "head")]

    def test_diamond_body_stays_on_block_dispatch(self):
        module = parse_module(DIAMOND_TEXT)
        assert loop_chains(module.function("walk")) == {}
        engine = CompiledEngine(module, TINY_CACHE_ALPHA,
                                block_cache=BlockCache())
        for block in module.function("walk").blocks:
            assert "while True" not in engine.block_source(
                "walk", block.label)
        observed = _parity(DIAMOND_TEXT, _chain_payload("plain"), 60)
        assert observed["blocks"][("walk", "left")] > 0
        assert observed["blocks"][("walk", "right")] > 0

    def test_entry_block_is_never_interior(self):
        # Without the driver's call counted, entry's only predecessor
        # would be ``head`` and [head, entry] would look like a chain.
        text = (
            "func walk(r0, r1) {\nentry:\n"
            "    br lt r1, 3, head, other\n"
            "other:\n    jump head\n"
            "head:\n    r1 = add r1, 1\n    br lt r1, 9, entry, done\n"
            "done:\n    ret r1\n}"
        )
        module = parse_module(text)
        assert loop_chains(module.function("walk")) == {}
        observed = _parity(text, _chain_payload("plain"), 0)
        assert observed["value"] == 9

    def test_entry_block_can_head_a_chain(self):
        text = (
            "func walk(r0, r1) {\nentry:\n"
            "    br lt r1, 9, head, done\n"
            "head:\n    r1 = add r1, 1\n    jump tail\n"
            "tail:\n    r0 = add r0, 2\n    jump entry\n"
            "done:\n    ret r1\n}"
        )
        chains = loop_chains(parse_module(text).function("walk"))
        assert [b.label for b in chains["entry"]] == [
            "entry", "head", "tail"]
        assert _parity(text, _chain_payload("plain"), 0)["value"] == 9

    @pytest.mark.parametrize("body", [
        "    r3 = call leaf(r2)\n    jump head\n",
        # an embedded branch: the later jump wins, as in the interpreter
        "    br lt r2, 5, done, head\n    r3 = add r2, 1\n    jump head\n",
    ])
    def test_calls_and_embedded_jumps_break_chains(self, body):
        text = (
            "func leaf(r0) {\nentry:\n    ret r0\n}\n"
            "func walk(r0, r1) {\nentry:\n    r2 = 0\n    jump head\n"
            "head:\n    r2 = add r2, 1\n    br lt r2, r1, body, done\n"
            f"body:\n{body}"
            "done:\n    ret r2\n}"
        )
        module = parse_module(text)
        assert loop_chains(module.function("walk")) == {}
        assert _parity(text, _chain_payload("plain"), 20)["value"] == 20

    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    def test_timeout_in_the_second_block(self, name):
        func = parse_module(CHAIN_TEXTS[name]).function("walk")
        chain = loop_chains(func)["head"]
        # entry, then the header, then one step into the second block
        limit = len(func.entry.instrs) + len(chain[0].instrs) + 1
        observed = _parity(CHAIN_TEXTS[name], _chain_payload("plain"), 40,
                           max_steps=limit)
        assert observed["timeout"][1:] == (limit, "walk", chain[1].label)

    @pytest.mark.parametrize("machine", ["alpha", "tiny"])
    @pytest.mark.parametrize("iterations", [0, 2])
    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    def test_timeout_in_every_later_block(self, name, iterations, machine):
        # The step count lives in a local across iterations: a timeout
        # in block 2 or 3, in the first or the third iteration, reports
        # the interpreter's steps, function and block.
        func = parse_module(CHAIN_TEXTS[name]).function("walk")
        chain = loop_chains(func)["head"]
        lengths = [len(block.instrs) for block in chain]
        for j in range(1, len(chain)):
            limit = (len(func.entry.instrs) + iterations * sum(lengths)
                     + sum(lengths[:j]) + 1)
            observed = _parity(
                CHAIN_TEXTS[name], _chain_payload("plain"), 40,
                machine=CHAIN_MACHINES[machine], max_steps=limit)
            # A block's steps count whole, before its body runs.
            assert observed["timeout"] == (
                limit - 1 + lengths[j], limit, "walk", chain[j].label)
            assert observed["blocks"][("walk", chain[j].label)] == (
                iterations + 1)

    @pytest.mark.parametrize("machine", ["alpha", "tiny"])
    @pytest.mark.parametrize("kind", ["plain", "sentinel"])
    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    def test_timeout_after_a_side_exit(self, name, kind, machine):
        # The chain hands its step count back when it leaves: one step
        # short of the whole run times out in the returning block.
        run = _chain_run(CHAIN_TEXTS[name], "interp", _chain_payload(kind),
                         40, machine=CHAIN_MACHINES[machine])
        steps = run["counts"][0]
        observed = _parity(CHAIN_TEXTS[name], _chain_payload(kind), 40,
                           machine=CHAIN_MACHINES[machine],
                           max_steps=steps - 1)
        assert observed["timeout"][0] == steps
        assert observed["timeout"][3] in ("found", "done")

    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    def test_cancel_cadence_and_raising_cancel(self, name):
        payload = _chain_payload("plain")
        counts = []
        for backend in ("interp", "compiled"):
            probes = []
            _chain_run(CHAIN_TEXTS[name], backend, payload, 30,
                       cancel=lambda: probes.append(1))
            counts.append(len(probes))
        assert counts[0] == counts[1] > 30
        states = []
        for backend in ("interp", "compiled"):
            fired = [0]

            def cancel():
                fired[0] += 1
                if fired[0] >= 8:  # mid-chain, on the third iteration
                    raise DeadlineExceeded(1.0, 2.0, "test")

            sim = Simulator(parse_module(CHAIN_TEXTS[name]),
                            TINY_CACHE_ALPHA, backend=backend,
                            cancel=cancel)
            buffer = sim.alloc_array("buffer", payload)
            with pytest.raises(DeadlineExceeded):
                sim.call("walk", buffer, 30)
            states.append((fired[0], dict(sim.engine.stats.block_counts),
                           sim.engine.icache.misses))
        assert states[0] == states[1]

    def test_self_loop_is_a_one_block_chain_with_hoisted_probes(self):
        module = parse_module(LOOP_TEXT)
        assert [b.label for b in loop_chains(module.function("spin"))[
            "loop"]] == ["loop"]
        engine = CompiledEngine(module, get_machine("alpha"),
                                block_cache=BlockCache())
        prologue = engine.block_source("spin", "loop").split("while True:")[0]
        assert "_it[" in prologue

    @pytest.mark.parametrize("machine", ["alpha", "tiny"])
    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    def test_resident_lines_probe_once_per_entry(self, name, machine):
        # On the Alpha the chain's lines sit in distinct I-cache slots:
        # the header probes at entry and every later block on its first
        # execution.  The two-line cache keeps per-iteration probes.
        # Both match the interpreter's hits and misses.
        module = parse_module(CHAIN_TEXTS[name])
        chain = loop_chains(module.function("walk"))["head"]
        engine = CompiledEngine(module, CHAIN_MACHINES[machine],
                                block_cache=BlockCache())
        source = engine.block_source("walk", "head")
        prologue, loop = source.split("while True:")
        first_only = [f"if _c{j} == 1:" in loop
                      for j in range(1, len(chain))]
        if machine == "alpha":
            assert "_it[" in prologue and all(first_only)
        else:
            assert "_it[" not in prologue and not any(first_only)
        for kind, count in (("plain", 40), ("sentinel", 40), ("first", 40),
                            ("plain", 1)):
            observed = _parity(CHAIN_TEXTS[name], _chain_payload(kind),
                               count, machine=CHAIN_MACHINES[machine])
            if count == 40 and kind != "first":
                assert observed["icache"][0] > 0

    @pytest.mark.parametrize("kind", ["plain", "first"])
    def test_unrun_block_probes_nothing(self, kind):
        # The body spans I-cache lines of its own; when the header
        # leaves before the body ever runs ("first"), the body's lines
        # are never probed.
        text = CHAIN_TEXTS["two"].replace(
            "body:\n", "body:\n" + "    r7 = add r7, 1\n" * 24)
        machine = get_machine("alpha")
        module = parse_module(text)
        lines = CompiledEngine(module, machine).block_lines
        assert set(lines("walk", "body")) - set(lines("walk", "head"))
        observed = _parity(text, _chain_payload(kind), 40, machine=machine)
        if kind == "first":
            assert ("walk", "body") not in observed["blocks"]

    @pytest.mark.parametrize("machine", ["alpha", "tiny"])
    def test_fault_in_mid_chain(self, machine):
        # The division in the second block faults on the sixth
        # iteration: block counts and both caches' misses as the
        # interpreter left them.
        observed = _parity(FAULT_CHAIN_TEXT, _chain_payload("plain"), 5,
                           machine=CHAIN_MACHINES[machine])
        assert observed["error"] == (
            "SimulationError", "integer division by zero")
        assert observed["blocks"][("walk", "body")] == 6

    @pytest.mark.parametrize("name", sorted(CHAIN_TEXTS))
    def test_cancel_deadline_with_resident_lines(self, name):
        states = []
        for backend in ("interp", "compiled"):
            fired = [0]

            def cancel():
                fired[0] += 1
                if fired[0] >= 8:  # in the chain, a few iterations in
                    raise DeadlineExceeded(1.0, 2.0, "test")

            observed = _chain_run(
                CHAIN_TEXTS[name], backend, _chain_payload("plain"), 30,
                machine=get_machine("alpha"), cancel=cancel)
            assert observed.pop("backend") == backend
            states.append((fired[0], observed))
        assert states[0] == states[1]
        assert states[0][1]["error"][0] == "DeadlineExceeded"


PARITY_REPORT_FIELDS = (
    "total_cycles", "base_cycles", "dcache_miss_cycles",
    "icache_miss_cycles", "instr_count", "load_count", "store_count",
    "memory_accesses", "dcache_misses", "icache_misses",
)


def _observe_on(backend, program, plan):
    """One fixture plan's outcome and cycle report on one backend."""
    sim = Simulator(program.module, program.machine, backend=backend,
                    max_steps=MAX_FIXTURE_STEPS)
    outcome = observe(sim, plan)
    observed = {"backend": sim.backend, "outcome": outcome}
    if outcome.status == "ok":
        report = sim.report()
        for field in PARITY_REPORT_FIELDS:
            observed[field] = getattr(report, field)
        observed["dcache_hits"] = sim.engine.dcache.hits
        observed["icache_hits"] = sim.engine.icache.hits
    return observed


class TestFixtureMatrixParity:
    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    @pytest.mark.parametrize("name, entry", [
        ("blockstage", "blockstage"),
        ("dotproduct", "dotproduct"),
    ])
    def test_fixture_matrix_bit_identical(self, name, entry, machine):
        program = get_benchmark(name)
        compiled = compile_minic(
            program.source, machine, "coalesce-all", force_coalesce=True
        )
        func = compiled.module.function(entry)
        # The sanitizer's plans plus a misaligned-large variant: a trip
        # count big enough that coalesced wide accesses run several full
        # iterations past the alignment fallback's preheader checks.
        for plan in fixture_plans(func, DEFAULT_VARIANTS + ((2, 24),)):
            interp = _observe_on("interp", compiled, plan)
            comp = _observe_on("compiled", compiled, plan)
            assert interp.pop("backend") == "interp"
            assert comp.pop("backend") == "compiled"
            assert interp == comp, (
                f"{name} on {machine}, fixture {describe(plan)}"
            )


class TestBenchmarkDifferential:
    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    @pytest.mark.parametrize("name", ["image_xor", "mirror"])
    def test_bench_cells_agree_on_every_diff_field(self, name, machine):
        records = {
            backend: bench_runner.run_matrix(
                programs=[name], machines=[machine],
                variants=["coalesce-all"], width=16, jobs=1,
                sim_backend=backend,
            )
            for backend in ("interp", "compiled")
        }
        assert records["interp"][0]["sim_backend"] == "interp"
        assert records["compiled"][0]["sim_backend"] == "compiled"
        diffs = bench_runner.diff_runs(records["interp"], records["compiled"])
        assert [d.outcome for d in diffs] == [bench_runner.EQUAL], [
            d.describe("interp", "compiled") for d in diffs
        ]
        assert records["compiled"][0]["output_ok"]

    def test_compiled_backend_reports_a_rate(self):
        result = run_benchmark(
            "image_xor", "alpha", "coalesce-all",
            width=32, height=32, sim_backend="compiled",
        )
        assert result.sim_backend == "compiled"
        assert result.sim_instrs_per_sec is not None
        assert result.sim_instrs_per_sec > 0


def _record(**overrides):
    record = {
        "program": "image_xor", "machine": "alpha",
        "variant": "coalesce-all", "width": 16, "height": 16,
        "status": "ok", "error": "", "sim_backend": "compiled",
        "sim_instrs_per_sec": 5_000_000.0,
        "result": None, "output_ok": True, "cycles": 1000,
        "base_cycles": 900, "dcache_miss_cycles": 60,
        "icache_miss_cycles": 40, "dcache_misses": 6, "icache_misses": 4,
        "instr_count": 500, "loads": 120, "stores": 60,
        "memory_accesses": 180,
    }
    record.update(overrides)
    return record


def _outcomes(expected, actual):
    return [d.outcome for d in bench_runner.diff_runs(expected, actual)]


class TestBenchRunnerGates:
    def test_compare_backends_clean(self):
        assert _outcomes([_record()], [_record()]) == [bench_runner.EQUAL]

    def test_compare_backends_reports_each_divergence(self):
        (diff,) = bench_runner.diff_runs(
            [_record(sim_backend="interp", checks_elided=0)],
            [_record(cycles=1001, loads=121, checks_elided=1)],
        )
        assert diff.outcome == bench_runner.DIVERGED
        assert diff.fields == (
            ("checks_elided", 0, 1), ("cycles", 1000, 1001),
            ("loads", 120, 121),
        )
        assert diff.describe("interp", "compiled") == (
            "image_xor/alpha/coalesce-all@16x16: diverged: "
            "checks_elided interp=0 compiled=1; "
            "cycles interp=1000 compiled=1001; "
            "loads interp=120 compiled=121"
        )

    def test_compare_backends_ignores_host_metrics(self):
        interp = _record(sim_backend="interp", sim_instrs_per_sec=1e6,
                         compile_cache_hit=True, timing={"seconds": 1.0})
        assert _outcomes([interp], [_record(sim_instrs_per_sec=2e7)]) == [
            bench_runner.EQUAL
        ]

    def test_compare_backends_missing_and_failed_cells(self):
        spare = _record(program="mirror")
        extra = _record(program="translate")
        failed = _record(status="failed", error="boom")
        diffs = bench_runner.diff_runs([_record(), spare], [failed, extra])
        assert [d.outcome for d in diffs] == [
            bench_runner.FAILED, bench_runner.EXPECTED_ONLY,
            bench_runner.ACTUAL_ONLY,
        ]
        assert "error interp='' compiled='boom'" in (
            diffs[0].describe("interp", "compiled")
        )
        assert diffs[1].describe("interp", "compiled").endswith(
            "only in interp"
        )

    def test_check_sim_rate_passes_on_the_peak_cell(self):
        records = [
            _record(sim_instrs_per_sec=1e5),
            _record(program="mirror", sim_instrs_per_sec=9e6),
        ]
        assert bench_runner.check_sim_rate(records, 4e6) == []

    def test_check_sim_rate_fails_below_the_floor(self):
        problems = bench_runner.check_sim_rate(
            [_record(sim_instrs_per_sec=1e5)], 4e6
        )
        assert len(problems) == 1
        assert "below" in problems[0]

    def test_check_sim_rate_rejects_fleet_wide_fallback(self):
        # Every cell fell back to interp: the gate must fail rather
        # than silently measure the wrong backend.
        problems = bench_runner.check_sim_rate(
            [_record(sim_backend="interp", sim_instrs_per_sec=9e9)], 1.0
        )
        assert len(problems) == 1
        assert "no successful compiled-backend cells" in problems[0]
