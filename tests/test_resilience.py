"""Fault-isolated compilation: recovery, bundles, injection, bisection.

Covers the resilience stack end to end:

* transactional pass execution — rollback leaves the program equal to
  the no-failure baseline; the policy knob (raise/skip/fallback) does
  what it says;
* fault plans — parsing, round-tripping, deterministic seeded draws;
* reproducer bundles — write, load, one-command replay;
* auto-bisect — pins the injected pass and shrinks the source;
* the simulator watchdog (SimulationTimeout, REPRO_MAX_STEPS);
* bench-runner fault tolerance and compile-cache corruption recovery.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import FaultInjected, ReproError, SimulationTimeout
from repro.pipeline import (
    STAGE_NAMES,
    PipelineConfig,
    compile_minic,
    get_config,
)
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.bisect import (
    OPTIONAL_STAGES,
    bisect_bundle,
    reduce_source,
)
from repro.resilience.bundle import load_bundle, replay_bundle

DOT = """
int dot(int *a, int *b, int n) {
    int i;
    int sum;
    sum = 0;
    for (i = 0; i < n; i = i + 1) {
        sum = sum + a[i] * b[i];
    }
    return sum;
}
"""

#: Per-function stages every optimizing compilation of DOT reaches.
STAGES = ("cleanup", "licm", "strength_reduce", "unroll", "coalesce")


def _behaviour(program, n=8):
    """Observable behaviour: the dot product of two small arrays."""
    sim = program.simulator()
    a = sim.alloc_array("a", size=8 * n)
    b = sim.alloc_array("b", size=8 * n)
    sim.write_words(a, list(range(1, n + 1)), 8)
    sim.write_words(b, list(range(2, n + 2)), 8)
    return sim.call("dot", a, b, n)


# -- fault plans -------------------------------------------------------------
class TestFaultPlan:
    def test_parse_explicit_sites(self):
        plan = FaultPlan.parse("unroll=raise,coalesce=corrupt@2")
        assert plan.specs == [
            FaultSpec("unroll", "raise", 1),
            FaultSpec("coalesce", "corrupt", 2),
        ]

    def test_parse_seeded(self):
        plan = FaultPlan.parse("seed=42,rate=0.25,kinds=raise|corrupt")
        assert plan.seed == 42
        assert plan.rate == 0.25
        assert plan.kinds == ("raise", "corrupt")

    def test_round_trip(self):
        for text in (
            "unroll=raise",
            "coalesce=corrupt@2,licm=stall",
            "seed=7,rate=0.5,kinds=raise|corrupt",
        ):
            plan = FaultPlan.parse(text)
            assert str(FaultPlan.parse(str(plan))) == str(plan)

    def test_parse_empty_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("  ") is None

    def test_bad_kind_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan.parse("unroll=explode")

    def test_draw_fires_on_named_arrival(self):
        plan = FaultPlan.parse("coalesce=raise@2")
        assert plan.draw("coalesce") is None
        spec = plan.draw("coalesce")
        assert spec is not None and spec.kind == "raise"
        assert plan.fired == [spec]

    def test_draw_honours_aliases(self):
        plan = FaultPlan.parse("unroll:dot=raise")
        assert plan.draw("unroll", aliases=("unroll:dot",)) is not None

    def test_seeded_draws_are_deterministic(self):
        def draws():
            plan = FaultPlan.parse("seed=5,rate=0.5")
            return [
                (site, plan.draw(site) is not None)
                for site in ("a", "b", "c", "d", "e", "f", "g", "h")
            ]

        first, second = draws(), draws()
        assert first == second
        assert any(fired for _, fired in first)
        assert not all(fired for _, fired in first)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "unroll=raise")
        plan = FaultPlan.from_env()
        assert plan.specs == [FaultSpec("unroll", "raise", 1)]


# -- transactional recovery --------------------------------------------------
class TestRecovery:
    def test_config_rejects_bad_policy(self):
        with pytest.raises(ReproError):
            PipelineConfig(on_pass_failure="retry")

    def test_config_rejects_unknown_disabled_stage(self):
        # A typo must not quietly run every pass (and skip the cache).
        with pytest.raises(ReproError, match="'clenaup'"):
            get_config("vpo", disabled_passes=("clenaup",))
        config = get_config("vpo", disabled_passes=["cleanup"])
        assert config.disabled_passes == ("cleanup",)

    def test_chaos_sites_are_the_stages_coalesce_all_runs(self):
        from repro.__main__ import CHAOS_SITES

        program = compile_minic(DOT, "alpha", "coalesce-all")
        ran = set(STAGE_NAMES) & set(program.pass_stats)
        assert set(CHAOS_SITES) == ran
        assert set(OPTIONAL_STAGES) == set(STAGE_NAMES) - {"lower"}

    def test_raise_policy_propagates(self):
        with pytest.raises(FaultInjected):
            compile_minic(
                DOT, "alpha", "coalesce-all",
                faults=FaultPlan.parse("unroll=raise"),
            )

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("kind", ["raise", "corrupt"])
    def test_skip_recovers_and_matches_baseline(self, stage, kind):
        baseline = _behaviour(compile_minic(DOT, "alpha", "coalesce-all"))
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse(f"{stage}={kind}"),
            on_pass_failure="skip",
        )
        assert program.degraded
        assert any(
            f.pass_name == stage for f in program.pass_failures
        )
        assert _behaviour(program) == baseline

    def test_module_stage_recovers(self):
        baseline = _behaviour(compile_minic(DOT, "alpha", "coalesce-all"))
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("schedule=raise"),
            on_pass_failure="skip",
        )
        assert [f.pass_name for f in program.pass_failures] == ["schedule"]
        assert program.pass_failures[0].function == ""
        assert _behaviour(program) == baseline

    def test_failure_records_context(self):
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("unroll=raise"),
            on_pass_failure="skip",
        )
        [failure] = program.pass_failures
        assert failure.signature == ("unroll", "exception", "FaultInjected")
        assert failure.function == "dot"
        assert failure.injected == "unroll=raise"
        assert "dot" in failure.pre_pass_rtl
        assert failure.invocation >= 1

    def test_recovery_emits_diagnostic(self):
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("licm=raise"),
            on_pass_failure="skip",
        )
        checks = [d.check for d in program.diagnostics]
        assert "pass-recovery" in checks

    def test_fallback_disables_the_pass(self):
        # cleanup runs many times; under 'fallback' the first failure
        # disables it, so exactly one failure is recorded.
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("cleanup=raise"),
            on_pass_failure="fallback",
        )
        assert len(program.pass_failures) == 1
        assert _behaviour(program) == _behaviour(
            compile_minic(DOT, "alpha", "coalesce-all")
        )

    def test_skip_records_every_cleanup_failure_once(self):
        # Under 'skip' the pass stays enabled; only arrival 1 faults.
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("cleanup=raise@2"),
            on_pass_failure="skip",
        )
        assert len(program.pass_failures) == 1
        assert program.pass_failures[0].invocation == 2

    def test_disabled_passes_never_run(self):
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            disabled_passes=("coalesce",),
            on_pass_failure="skip",
        )
        assert program.coalesce_reports == []
        assert not program.degraded

    def test_default_compile_unaffected(self):
        # No policy, no faults: pass_failures stays empty and behaviour
        # is the ordinary compilation.
        program = compile_minic(DOT, "alpha", "coalesce-all")
        assert not program.degraded
        assert program.pass_failures == []

    def test_seeded_sweep_every_site_recovers(self):
        baseline = _behaviour(compile_minic(DOT, "alpha", "coalesce-all"))
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse(
                "seed=3,rate=1.0,kinds=raise|corrupt"
            ),
            on_pass_failure="skip",
        )
        assert program.degraded
        assert _behaviour(program) == baseline


# -- bundles and replay ------------------------------------------------------
class TestBundles:
    def _crash(self, tmp_path, plan="unroll=raise"):
        return compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse(plan),
            on_pass_failure="skip",
            crash_dir=str(tmp_path),
        )

    def test_bundle_written_and_loadable(self, tmp_path):
        program = self._crash(tmp_path)
        [failure] = program.pass_failures
        assert failure.bundle
        bundle = load_bundle(failure.bundle)
        assert bundle.pass_name == "unroll"
        assert bundle.signature == failure.signature
        assert bundle.source == DOT
        assert "dot" in bundle.pre_pass_rtl
        manifest = json.loads(
            (tmp_path / bundle.path.split("/")[-1] / "manifest.json")
            .read_text()
        )
        assert manifest["machine"] == "alpha"
        assert manifest["faults"] == "unroll=raise"
        assert manifest["config"]["coalesce"] == "all"

    def test_bundle_idempotent(self, tmp_path):
        first = self._crash(tmp_path).pass_failures[0].bundle
        second = self._crash(tmp_path).pass_failures[0].bundle
        assert first == second
        assert len(list(tmp_path.glob("repro_crash_*"))) == 1

    def test_replay_reproduces(self, tmp_path):
        failure = self._crash(tmp_path).pass_failures[0]
        result = replay_bundle(failure.bundle)
        assert result.reproduced
        assert result.failure.signature == failure.signature

    def test_replay_detects_non_reproduction(self, tmp_path):
        failure = self._crash(tmp_path).pass_failures[0]
        bundle = load_bundle(failure.bundle)
        bundle.manifest["faults"] = ""  # disarm the plan
        result = replay_bundle(bundle)
        assert not result.reproduced

    def test_load_rejects_non_bundle(self, tmp_path):
        with pytest.raises(ReproError):
            load_bundle(tmp_path)

    def test_load_rejects_corrupt_manifest(self, tmp_path):
        bad = tmp_path / "repro_crash_deadbeef0000"
        bad.mkdir()
        (bad / "manifest.json").write_text("{truncated")
        with pytest.raises(ReproError):
            load_bundle(bad)


# -- bisection and reduction -------------------------------------------------
class TestBisect:
    def _bundle(self, tmp_path, plan="unroll=raise"):
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse(plan),
            on_pass_failure="skip",
            crash_dir=str(tmp_path),
        )
        return load_bundle(program.pass_failures[0].bundle)

    def test_bisect_pins_injected_pass(self, tmp_path):
        result = bisect_bundle(
            self._bundle(tmp_path), reduce=False
        )
        assert result.culprit == ["unroll"]
        assert result.attempts > 1

    def test_bisect_pins_corrupting_pass(self, tmp_path):
        result = bisect_bundle(
            self._bundle(tmp_path, plan="coalesce=corrupt"), reduce=False
        )
        assert result.culprit == ["coalesce"]

    def test_bisect_finds_unroll_factor(self, tmp_path):
        result = bisect_bundle(
            self._bundle(tmp_path), reduce=False
        )
        assert result.unroll_factor == 2

    def test_reducer_output_still_fails(self, tmp_path):
        bundle = self._bundle(tmp_path)
        result = bisect_bundle(bundle)
        assert result.reduced_source is not None
        assert result.reduced_lines < result.original_lines
        # The shrunk source must still reproduce the failure signature.
        replay = replay_bundle(bundle, source=result.reduced_source)
        assert replay.reproduced

    def test_reduce_source_respects_predicate(self):
        kept = "int f(int x) { return x; }\n"
        source = "// drop me\n// and me\n" + kept

        def predicate(text):
            return kept in text

        assert reduce_source(source, predicate).strip() == kept.strip()


# -- simulator watchdog ------------------------------------------------------
LOOP_FOREVER = """
int spin(int n) {
    int i;
    i = 0;
    while (0 < 1) {
        i = i + n;
    }
    return i;
}
"""


class TestWatchdog:
    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_timeout_carries_context(self, backend):
        program = compile_minic(LOOP_FOREVER, "alpha", "vpo")
        sim = program.simulator(max_steps=5_000, backend=backend)
        with pytest.raises(SimulationTimeout) as excinfo:
            sim.call("spin", 1)
        timeout = excinfo.value
        assert timeout.limit == 5_000
        assert timeout.steps > 5_000
        assert timeout.function == "spin"
        assert timeout.block
        assert "step limit" in str(timeout)
        assert "exceeded" in str(timeout)

    def test_env_default_max_steps(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_STEPS", "4000")
        program = compile_minic(LOOP_FOREVER, "alpha", "vpo")
        sim = program.simulator()
        assert sim.max_steps == 4000
        with pytest.raises(SimulationTimeout):
            sim.call("spin", 1)

    def test_sim_fault_hook_stalls_block(self):
        program = compile_minic(DOT, "alpha", "vpo")
        plan = FaultPlan.parse("sim:dot/entry=stall")
        sim = program.simulator(fault_hook=plan.sim_hook())
        a = sim.alloc_array("a", size=64)
        b = sim.alloc_array("b", size=64)
        with pytest.raises(SimulationTimeout):
            sim.call("dot", a, b, 4)


# -- bench-runner fault tolerance -------------------------------------------
class TestBenchFaultTolerance:
    def test_failed_cell_recorded_not_raised(self):
        from repro.bench.runner import run_matrix

        records = run_matrix(
            programs=["dotproduct"],
            machines=["alpha"],
            variants=["vpo", "no-such-variant"],
            width=8, height=8, jobs=1,
        )
        by_variant = {r["variant"]: r for r in records}
        assert by_variant["vpo"]["status"] == "ok"
        failed = by_variant["no-such-variant"]
        assert failed["status"] == "failed"
        assert failed["error"]
        assert failed["cycles"] == 0
        assert failed["output_ok"] is False

    def test_compare_marks_failed_cells(self):
        from repro.bench.runner import FAILED, diff_runs

        record = {
            "program": "dot", "machine": "alpha", "variant": "vpo",
            "width": 8, "height": 8, "cycles": 100, "status": "ok",
            "error": "",
        }
        failed = dict(record, status="failed", cycles=0, error="boom")
        (diff,) = diff_runs([record], [failed])
        assert diff.outcome == FAILED
        assert "error anchor='' run='boom'" in diff.describe("anchor", "run")

    def test_eliminated_annotation_skips_failed_vpo(self):
        from repro.bench.runner import _annotate_eliminated

        records = [
            {"program": "dot", "machine": "alpha", "variant": "vpo",
             "loads": 0, "stores": 0, "status": "failed"},
            {"program": "dot", "machine": "alpha",
             "variant": "coalesce-all", "loads": 5, "stores": 2,
             "status": "ok"},
        ]
        _annotate_eliminated(records)
        assert records[1]["loads_eliminated"] == 0


# -- compile-cache corruption hardening -------------------------------------
class TestCacheHardening:
    def _cache(self, tmp_path):
        from repro.service.artifacts import ArtifactStore

        return ArtifactStore(tmp_path)

    @staticmethod
    def _payload(module) -> bytes:
        from repro.bench.cache import CACHE_SCHEMA

        return json.dumps(
            {"schema": CACHE_SCHEMA, "module": module, "machine": "alpha"}
        ).encode()

    @staticmethod
    def _fetch(cache, key, fresh):
        """One compile-cache read of ``key``: the cache's shape check
        on a hit, ``fresh`` published on a miss."""
        from repro.bench.cache import validate_payload

        return cache.fetch_or_compute(
            key, lambda: (fresh, fresh),
            decode=lambda data: validate_payload(json.loads(data)),
        )

    def test_truncated_entry_is_a_logged_miss(self, tmp_path):
        from repro.service.artifacts import ROLE_COMPILE

        cache = self._cache(tmp_path)
        self._fetch(cache, "k", self._payload("m"))
        path = cache.artifact_path("k")
        path.write_text(path.read_text()[:10])  # torn write
        fresh = self._payload("fresh")
        assert self._fetch(cache, "k", fresh) == (fresh, ROLE_COMPILE)
        drops = [e for e in cache.events() if e["ev"] == "corrupt-drop"]
        assert len(drops) == 1 and drops[0]["key"] == "k"

    def test_wrong_shape_entry_is_dropped(self, tmp_path):
        from repro.service.artifacts import ROLE_COMPILE

        cache = self._cache(tmp_path)
        self._fetch(cache, "k", self._payload(42))
        fresh = self._payload("m")
        assert self._fetch(cache, "k", fresh) == (fresh, ROLE_COMPILE)
        assert cache.counters()["corruption_drops"] == 1

    def test_clear_removes_stray_temp_files(self, tmp_path):
        cache = self._cache(tmp_path)
        self._fetch(cache, "k", self._payload("m"))
        (tmp_path / "orphan.tmp").write_text("partial")
        lease = cache.acquire("other")
        lease.stop()  # a dead holder's lease and lock stay behind
        assert cache.clear() == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_faulty_compiles_bypass_cache(self, tmp_path, monkeypatch):
        from repro.bench.cache import cached_compile_minic

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULTS", "unroll=raise")
        program = cached_compile_minic(
            DOT, "alpha", "coalesce-all", on_pass_failure="skip",
        )
        assert program.degraded
        assert not program.cache_hit
        assert list(tmp_path.glob("*.json")) == []

    def test_disk_only_plan_never_reaches_the_passes(
        self, tmp_path, monkeypatch
    ):
        # A pass-level plan turns check elision off; a plan of disk
        # kinds must not, or the cache would keep the weaker program
        # under the key every clean run reads.
        from repro.bench.cache import cached_compile_minic
        from repro.bench.programs import get_benchmark
        from repro.ir import format_module

        source = get_benchmark("blockstage").source
        clean = compile_minic(source, "alpha", "coalesce-all")
        assert clean.checks_elided > 0
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULTS", "artifact:read=corrupt-artifact@99")
        cold = cached_compile_minic(source, "alpha", "coalesce-all")
        monkeypatch.delenv("REPRO_FAULTS")
        warm = cached_compile_minic(source, "alpha", "coalesce-all")
        assert (cold.cache_hit, warm.cache_hit) == (False, True)
        assert warm.checks_elided == clean.checks_elided
        assert format_module(warm.module) == format_module(clean.module)

    def test_environment_disk_plan_counts_arrivals_per_call(
        self, tmp_path, monkeypatch
    ):
        # REPRO_FAULTS is parsed afresh for each call, so an unnumbered
        # corrupt-artifact is every call's first read: each warm hit is
        # corrupted, dropped and recompiled.
        from repro.bench.cache import cached_compile_minic

        store = self._cache(tmp_path)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert not cached_compile_minic(DOT, cache=store).cache_hit
        assert cached_compile_minic(DOT, cache=store).cache_hit
        monkeypatch.setenv("REPRO_FAULTS", "artifact:read=corrupt-artifact")
        for _ in range(3):
            assert not cached_compile_minic(DOT, cache=store).cache_hit
        monkeypatch.delenv("REPRO_FAULTS")
        assert cached_compile_minic(DOT, cache=store).cache_hit
        events = [e["ev"] for e in store.events()]
        assert events.count("fault") == 3
        assert store.counters()["corruption_drops"] == 3
        assert store.counters()["compiles"] == 4


# -- CLI surfaces ------------------------------------------------------------
class TestResilienceCLI:
    def test_compile_with_injection_recovers(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "dot.c"
        source.write_text(DOT)
        code = main([
            "compile", str(source),
            "--config", "coalesce-all",
            "--inject", "unroll=raise",
            "--on-pass-failure", "skip",
            "--crash-dir", str(tmp_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "recovered: pass 'unroll'" in captured.err
        assert list(tmp_path.glob("repro_crash_*"))

    def test_replay_and_bisect_commands(self, tmp_path, capsys):
        from repro.__main__ import main

        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("licm=raise"),
            on_pass_failure="skip",
            crash_dir=str(tmp_path),
        )
        bundle = program.pass_failures[0].bundle
        assert main(["replay", bundle]) == 0
        assert "reproduced" in capsys.readouterr().out
        assert main(["bisect", bundle, "--no-reduce"]) == 0
        assert "licm" in capsys.readouterr().out

    def test_chaos_command(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "dot.c"
        source.write_text(DOT)
        code = main([
            "chaos", str(source),
            "--seed", "1234",
            "--crash-dir", str(tmp_path / "crashes"),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "fully recovered (0 problem(s))" in captured.out

    def test_run_max_steps_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "spin.c"
        source.write_text(LOOP_FOREVER)
        with pytest.raises(SimulationTimeout):
            main([
                "run", str(source), "--entry", "spin",
                "--args", "1", "--max-steps", "3000",
            ])


# -- crash-bundle disk cap ---------------------------------------------------
class TestBundleCap:
    def fake_bundle(self, directory, name, created):
        from repro.resilience.bundle import BUNDLE_PREFIX

        bundle = directory / f"{BUNDLE_PREFIX}{name}"
        bundle.mkdir(parents=True)
        (bundle / "manifest.json").write_text(
            json.dumps({"created_unix": created})
        )
        return bundle

    def test_prune_removes_oldest_first(self, tmp_path):
        from repro.resilience.bundle import prune_bundles

        old = self.fake_bundle(tmp_path, "aaaa00000001", 100)
        mid = self.fake_bundle(tmp_path, "bbbb00000002", 200)
        new = self.fake_bundle(tmp_path, "cccc00000003", 300)
        removed = prune_bundles(tmp_path, max_bundles=2)
        assert removed == [str(old)]
        assert not old.exists() and mid.exists() and new.exists()

    def test_prune_is_a_noop_under_the_cap(self, tmp_path):
        from repro.resilience.bundle import prune_bundles

        self.fake_bundle(tmp_path, "aaaa00000001", 100)
        assert prune_bundles(tmp_path, max_bundles=5) == []

    def test_prune_missing_directory(self, tmp_path):
        from repro.resilience.bundle import prune_bundles

        assert prune_bundles(tmp_path / "nowhere") == []

    def test_default_cap_from_env(self, monkeypatch):
        from repro.resilience.bundle import (
            DEFAULT_MAX_BUNDLES,
            default_max_bundles,
        )

        monkeypatch.delenv("REPRO_MAX_BUNDLES", raising=False)
        assert default_max_bundles() == DEFAULT_MAX_BUNDLES
        monkeypatch.setenv("REPRO_MAX_BUNDLES", "7")
        assert default_max_bundles() == 7
        monkeypatch.setenv("REPRO_MAX_BUNDLES", "0")
        assert default_max_bundles() == 1  # floor: always keep the newest
        monkeypatch.setenv("REPRO_MAX_BUNDLES", "junk")
        assert default_max_bundles() == DEFAULT_MAX_BUNDLES

    def test_compile_honours_max_bundles(self, tmp_path):
        # Two distinct failures write two bundles; a cap of 1 keeps only
        # the newer one.
        compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("unroll=raise"),
            on_pass_failure="skip", crash_dir=str(tmp_path),
            max_bundles=1,
        )
        first = list(tmp_path.glob("repro_crash_*"))
        assert len(first) == 1
        compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("licm=raise"),
            on_pass_failure="skip", crash_dir=str(tmp_path),
            max_bundles=1,
        )
        survivors = list(tmp_path.glob("repro_crash_*"))
        assert len(survivors) == 1
        assert survivors != first

    def test_cli_max_bundles_flag(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "dot.c"
        source.write_text(DOT)
        for plan in ("unroll=raise", "licm=raise", "cleanup=raise"):
            assert main([
                "compile", str(source),
                "--config", "coalesce-all",
                "--inject", plan,
                "--on-pass-failure", "skip",
                "--crash-dir", str(tmp_path / "crashes"),
                "--max-bundles", "2",
            ]) == 0
            capsys.readouterr()
        assert len(list((tmp_path / "crashes").glob("repro_crash_*"))) == 2


# -- the 'sleep' fault kind --------------------------------------------------
class TestSleepFault:
    def test_parse_and_round_trip(self):
        plan = FaultPlan.parse("coalesce=sleep:0.5@2")
        [spec] = plan.specs
        assert spec.kind == "sleep"
        assert spec.seconds == 0.5
        assert spec.hit == 2
        assert str(FaultPlan.parse(str(plan))) == str(plan)

    def test_sleep_delays_then_compiles_clean(self):
        import time

        plan = FaultPlan.parse("coalesce=sleep:0.15")
        started = time.monotonic()
        program = compile_minic(
            DOT, "alpha", "coalesce-all", faults=plan,
        )
        assert time.monotonic() - started >= 0.15
        assert program.pass_failures == []  # a sleep is a delay, not a crash
        assert _behaviour(program) == _behaviour(
            compile_minic(DOT, "alpha", "naive")
        )

    def test_sleep_is_interruptible(self):
        import time

        from repro.errors import DeadlineExceeded

        deadline = time.monotonic() + 0.1

        def cancel():
            if time.monotonic() > deadline:
                raise DeadlineExceeded(0.1, time.monotonic())

        plan = FaultPlan.parse("coalesce=sleep:30")
        started = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            compile_minic(
                DOT, "alpha", "coalesce-all", faults=plan, cancel=cancel,
            )
        assert time.monotonic() - started < 1.0  # not the full 30s

    def test_cancel_checked_before_any_work(self):
        from repro.errors import DeadlineExceeded

        def cancel():
            raise DeadlineExceeded(0.0, 0.0)

        with pytest.raises(DeadlineExceeded):
            compile_minic(DOT, "alpha", "vpo", cancel=cancel)


# -- machine-readable CLI output ---------------------------------------------
class TestJsonCLI:
    def _bundle(self, tmp_path):
        program = compile_minic(
            DOT, "alpha", "coalesce-all",
            faults=FaultPlan.parse("licm=raise"),
            on_pass_failure="skip",
            crash_dir=str(tmp_path),
        )
        return program.pass_failures[0].bundle

    def test_replay_json(self, tmp_path, capsys):
        from repro.__main__ import main

        bundle = self._bundle(tmp_path)
        assert main(["replay", bundle, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reproduced"] is True
        assert payload["bundle"] == bundle

    def test_replay_json_bad_bundle_exit_code(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["replay", str(tmp_path / "nope"), "--json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert "error" in payload

    def test_bisect_json(self, tmp_path, capsys):
        from repro.__main__ import main

        bundle = self._bundle(tmp_path)
        assert main(["bisect", bundle, "--no-reduce", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["culprit"] == ["licm"]
        assert payload["attempts"] >= 1

    def test_chaos_json(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "dot.c"
        source.write_text(DOT)
        assert main([
            "chaos", str(source), "--seed", "1234",
            "--crash-dir", str(tmp_path / "crashes"), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problems"] == []
        assert payload["recovered"] >= 1
