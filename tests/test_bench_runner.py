"""The bench runner layer: compile-session cache, parallel matrix
execution, baseline store and the --compare regression gate."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import cache as cache_mod
from repro.bench import harness, runner
from repro.bench.cache import (
    cache_key,
    cached_compile_minic,
    revive_program,
    serialize_program,
)
from repro.bench.programs import get_benchmark
from repro.ir import format_module
from repro.pipeline import compile_minic, get_config
from repro.service.artifacts import ArtifactStore

DOT = get_benchmark("dotproduct").source

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_dot(program):
    sim = program.simulator()
    a = sim.alloc_array("a", size=2 * 8)
    b = sim.alloc_array("b", size=2 * 8)
    sim.write_words(a, [1, 2, 3, 4, 5, 6, 7, 8], 2)
    sim.write_words(b, [8, 7, 6, 5, 4, 3, 2, 1], 2)
    result = sim.call("dotproduct", a, b, 8)
    return result, sim.report().total_cycles


class TestCompileCache:
    def test_hit_on_identical_source(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        first = cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        second = cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        assert not first.cache_hit
        assert second.cache_hit
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 1)
        assert format_module(first.module) == format_module(second.module)

    def test_revived_program_simulates_identically(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        cold = cached_compile_minic(
            DOT, "alpha", "coalesce-all", cache=cache
        )
        warm = cached_compile_minic(
            DOT, "alpha", "coalesce-all", cache=cache
        )
        assert warm.cache_hit
        assert _run_dot(cold) == _run_dot(warm)
        assert warm.coalesced_loops == cold.coalesced_loops
        # a revived program ran no pass, so it reports none
        assert "cleanup" in cold.pass_stats
        assert warm.pass_stats == {}

    def test_miss_on_config_change(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        other = cached_compile_minic(
            DOT, "alpha", "vpo", cache=cache, unroll_factor=2
        )
        assert not other.cache_hit
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (0, 2)
        assert len(cache) == 2

    def test_miss_on_machine_change(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        other = cached_compile_minic(DOT, "m88100", "vpo", cache=cache)
        assert not other.cache_hit

    def test_miss_on_pass_list_fingerprint_change(
        self, tmp_path, monkeypatch
    ):
        cache = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        monkeypatch.setattr(
            cache_mod, "pass_fingerprint", lambda: "0" * 16
        )
        other = cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        assert not other.cache_hit
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (0, 2)

    def test_corrupted_cache_file_recovery(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        key = cache_key(DOT, "alpha", get_config("vpo"))
        entry = tmp_path / f"{key}.json"
        assert entry.exists()
        entry.write_text("{not json at all")
        program = cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        assert not program.cache_hit          # corrupt entry => miss
        assert _run_dot(program)              # and a working recompile
        # the corrupt file was replaced by a fresh entry; next call hits
        assert cached_compile_minic(
            DOT, "alpha", "vpo", cache=cache
        ).cache_hit

    def test_unrevivable_payload_falls_back_to_compile(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        key = cache_key(DOT, "alpha", get_config("vpo"))
        entry = tmp_path / f"{key}.json"
        # Re-frame the poisoned payload with a valid checksum: the
        # integrity check must pass so the *revive* path is what fails.
        payload = json.loads(cache.read(key))
        payload["module"] = "r[0] = garbage !!!"
        blob = json.dumps(payload).encode("utf-8")
        entry.write_bytes(cache._encode(blob))
        program = cached_compile_minic(DOT, "alpha", "vpo", cache=cache)
        assert not program.cache_hit
        assert _run_dot(program)
        assert cache.stats()["corruption_drops"] == 1

    def test_sanitize_configs_are_never_cached(self, tmp_path):
        cache = ArtifactStore(tmp_path)
        program = cached_compile_minic(
            DOT, "alpha", "vpo", cache=cache, sanitize=True
        )
        assert not program.cache_hit
        assert len(cache) == 0

    def test_serialize_revive_round_trip(self):
        config = get_config("coalesce-all")
        program = compile_minic(DOT, "alpha", config)
        payload = serialize_program(program)
        revived = revive_program(payload, program.machine, config)
        assert revived is not None
        assert format_module(revived.module) == format_module(
            program.module
        )
        assert [r.applied for r in revived.coalesce_reports] == [
            r.applied for r in program.coalesce_reports
        ]

    def test_cache_disabled_by_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert cache_mod.default_cache() is None
        monkeypatch.setenv("REPRO_CACHE", "on")
        assert cache_mod.default_cache().directory == tmp_path

    def test_import_leaves_the_service_package_out(self):
        # The store is imported when a cache is first opened, so timing
        # an import of the bench layer does not pay for the service.
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.bench; print(sorted(m for m in sys.modules"
             " if m.split('.')[:2] == ['repro', 'service']))"],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(REPO_ROOT / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"

    def test_entry_written_the_parents_way_is_a_hit(self, tmp_path):
        """Bytes on disk are the cache's compatibility surface: an entry
        framed and keyed as earlier releases wrote it (``CACHE_SCHEMA``
        2, the ``repro-artifact 1`` header, the SHA-256 key over schema,
        fingerprint, machine, config and source) must revive as a hit,
        without a compile."""
        import hashlib
        from dataclasses import asdict

        config = get_config("coalesce-all")
        program = compile_minic(DOT, "alpha", config)
        payload = json.dumps({
            "schema": 2,
            "module_name": program.module.name,
            "module": format_module(program.module),
            "machine": "alpha",
            "coalesce_reports": [asdict(r) for r in program.coalesce_reports],
        }).encode()
        key = hashlib.sha256("\x00".join((
            "schema=2",
            f"passes={cache_mod.pass_fingerprint()}",
            "machine=alpha",
            f"config={json.dumps(asdict(config), sort_keys=True)}",
            DOT,
        )).encode()).hexdigest()
        digest = hashlib.sha256(payload).hexdigest()
        (tmp_path / f"{key}.json").write_bytes(
            f"repro-artifact 1 sha256={digest} bytes={len(payload)}\n"
            .encode() + payload
        )
        cache = ArtifactStore(tmp_path)
        warm = cached_compile_minic(DOT, "alpha", config, cache=cache)
        assert warm.cache_hit
        assert format_module(warm.module) == format_module(program.module)
        assert cache.counters()["compiles"] == 0


def _record(program="dotproduct", machine="alpha", variant="vpo",
            cycles=1000, width=8, height=8, **extra):
    record = {
        "program": program, "machine": machine, "variant": variant,
        "width": width, "height": height, "cycles": cycles,
        "loads": 10, "stores": 5, "memory_accesses": 15,
        "output_ok": True, "compile_cache_hit": False,
        "timing": {"name": "cell", "calls": 1, "seconds": 0.0,
                   "self_seconds": 0.0},
    }
    record.update(extra)
    return record


class TestCompareGate:
    def _baseline(self, records):
        return runner.make_run_document(records, tag="test", width=8)

    def test_pass_when_cycles_match(self):
        base = self._baseline([_record(cycles=1000)])
        rows = runner.compare_runs([_record(cycles=1000)], base, 2.0)
        assert [r.status for r in rows] == ["ok"]
        assert runner.gate_passed(rows)

    def test_small_growth_within_tolerance_passes(self):
        base = self._baseline([_record(cycles=1000)])
        rows = runner.compare_runs([_record(cycles=1010)], base, 2.0)
        assert [r.status for r in rows] == ["ok"]
        assert runner.gate_passed(rows)

    def test_regression_beyond_tolerance_fails(self):
        base = self._baseline([_record(cycles=1000)])
        rows = runner.compare_runs([_record(cycles=1100)], base, 2.0)
        assert [r.status for r in rows] == ["regression"]
        assert not runner.gate_passed(rows)
        assert rows[0].delta_percent == pytest.approx(10.0)

    def test_improvement_passes(self):
        base = self._baseline([_record(cycles=1000)])
        rows = runner.compare_runs([_record(cycles=900)], base, 2.0)
        assert [r.status for r in rows] == ["improved"]
        assert runner.gate_passed(rows)

    def test_missing_program_in_baseline_fails(self):
        base = self._baseline([_record(program="image_xor")])
        rows = runner.compare_runs([_record(program="mirror")], base, 2.0)
        # The unmeasured baseline record surfaces as a skipped row; the
        # unmatched current record still fails the gate as missing.
        assert [r.status for r in rows] == ["missing", "skipped"]
        assert not runner.gate_passed(rows)

    def test_size_mismatch_is_missing(self):
        base = self._baseline([_record(width=16, height=16)])
        rows = runner.compare_runs(
            [_record(width=48, height=48)], base, 2.0
        )
        assert [r.status for r in rows] == ["missing", "skipped"]

    def test_extra_baseline_records_show_as_skipped(self):
        base = self._baseline(
            [_record(), _record(program="image_xor", cycles=5)]
        )
        rows = runner.compare_runs([_record()], base, 2.0)
        assert len(rows) == 2 and runner.gate_passed(rows)
        skipped = [r for r in rows if r.status == "skipped"]
        assert len(skipped) == 1
        assert skipped[0].program == "image_xor"
        assert skipped[0].baseline_cycles == 5
        assert skipped[0].current_cycles is None
        table = runner.format_compare_table(rows, 2.0)
        assert "skipped" in table and "PASS" in table

    def test_format_compare_table_mentions_failures(self):
        base = self._baseline([_record(cycles=1000)])
        rows = runner.compare_runs([_record(cycles=2000)], base, 2.0)
        table = runner.format_compare_table(rows, 2.0)
        assert "regression" in table and "FAIL" in table

    def test_load_run_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "records": []}))
        with pytest.raises(ValueError):
            runner.load_run(str(path))


class TestRunMatrix:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        # worker processes read REPRO_CACHE_DIR from the environment
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    MATRIX = dict(
        programs=["dotproduct", "image_xor"],
        machines=["alpha"],
        variants=["vpo", "coalesce-all"],
        width=8,
    )

    def test_parallel_matches_serial_byte_identically(self):
        serial = runner.run_matrix(jobs=1, **self.MATRIX)
        parallel = runner.run_matrix(jobs=2, **self.MATRIX)

        def comparable(records):
            # everything except host measurement fields (wall clocks,
            # rates): those differ run-to-run by design
            return [
                {
                    k: v for k, v in record.items()
                    if k not in runner.HOST_METRIC_FIELDS
                }
                for record in records
            ]

        assert comparable(serial) == comparable(parallel)

    def test_records_annotated_with_eliminated_accesses(self):
        records = runner.run_matrix(jobs=1, **self.MATRIX)
        by_variant = {
            (r["program"], r["variant"]): r for r in records
        }
        for program in self.MATRIX["programs"]:
            vpo = by_variant[(program, "vpo")]
            coal = by_variant[(program, "coalesce-all")]
            assert vpo["loads_eliminated"] == 0
            assert (
                coal["loads_eliminated"]
                == vpo["loads"] - coal["loads"]
            )
            assert coal["loads_eliminated"] > 0

    def test_save_and_load_round_trip(self, tmp_path):
        records = runner.run_matrix(
            jobs=1, programs=["dotproduct"], machines=["alpha"],
            variants=["vpo"], width=8,
        )
        doc = runner.make_run_document(records, tag="t", width=8)
        path = tmp_path / "BENCH_t.json"
        runner.save_run(doc, str(path))
        loaded = runner.load_run(str(path))
        assert loaded["records"] == records
        assert loaded["tag"] == "t"
        assert "git_sha" in loaded
        # a self-compare always passes
        rows = runner.compare_runs(records, loaded, 0.0)
        assert runner.gate_passed(rows)


def _nodes(tree):
    yield tree
    for child in tree.get("children", ()):
        yield from _nodes(child)


def _span_names(tree):
    return {node["name"] for node in _nodes(tree)}


COMPILE_SPANS = {"compile", "frontend", "cleanup", "simplify_cfg", "lower"}


class TestCellTiming:
    """A record's timing tree describes the call that made it."""

    CELL = ("dotproduct", "alpha", "coalesce-all")

    def test_repeat_in_one_process_is_a_hit_without_compile_spans(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = harness.run_benchmark(*self.CELL, width=8, height=8)
        assert not cold.compile_cache_hit
        names = _span_names(cold.timing)
        assert {"cell", "cache", "sim.exec"} | COMPILE_SPANS <= names
        for node in _nodes(cold.timing):
            inner = sum(c["seconds"] for c in node.get("children", ()))
            assert inner <= node["seconds"], node["name"]

        warm = harness.run_benchmark(*self.CELL, width=8, height=8)
        assert warm.compile_cache_hit
        assert warm.cycles == cold.cycles
        assert "cache" in _span_names(warm.timing)
        assert not COMPILE_SPANS & _span_names(warm.timing)
        assert warm.sim_instrs_per_sec is not None

    def test_first_entry_translation_is_timed_under_exec(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result = harness.run_benchmark(*self.CELL, width=8, height=8,
                                       sim_backend="compiled")
        (run,) = [n for n in _nodes(result.timing) if n["name"] == "sim.exec"]
        (translate,) = [c for c in run.get("children", ())
                        if c["name"] == "sim.translate"]
        assert translate["calls"] > 0
        # The rate is of execution: translation is not part of it.
        assert result.sim_instrs_per_sec == pytest.approx(
            result.instr_count / (run["seconds"] - translate["seconds"]))


@pytest.mark.bench_quick
class TestCliAndWarmCache:
    """End-to-end: the bench CLI in subprocesses, cold vs warm cache."""

    def _bench(self, tmp_path, out, extra=(), size="16"):
        cmd = [
            sys.executable, "-m", "repro", "bench",
            "--programs", "image_xor", "--machines", "alpha",
            "--size", size, "--out", str(out), *extra,
        ]
        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            "PATH": "/usr/bin:/bin",
        }
        started = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env,
            cwd=str(tmp_path),
        )
        return proc, time.perf_counter() - started

    def test_warm_cache_halves_repeat_run(self, tmp_path):
        out = tmp_path / "BENCH_a.json"
        cold_proc, cold = self._bench(tmp_path, out)
        assert cold_proc.returncode == 0, cold_proc.stderr
        warm_proc, warm = self._bench(tmp_path, tmp_path / "BENCH_b.json")
        assert warm_proc.returncode == 0, warm_proc.stderr
        a = json.loads(out.read_text())
        b = json.loads((tmp_path / "BENCH_b.json").read_text())
        assert not any(r["compile_cache_hit"] for r in a["records"])
        assert all(r["compile_cache_hit"] for r in b["records"])
        # the warm records replay no compile: their trees hold none
        assert all(
            COMPILE_SPANS <= _span_names(r["timing"]) for r in a["records"]
        )
        assert not any(
            COMPILE_SPANS & _span_names(r["timing"]) for r in b["records"]
        )
        assert [r["cycles"] for r in a["records"]] == [
            r["cycles"] for r in b["records"]
        ]
        # Since the sparse-dataflow rewrite, compilation at this size is
        # a few tens of milliseconds, so interpreter+startup time — paid
        # by both runs — dominates and the cache can no longer halve the
        # wall clock.  The functional assertions above carry the test;
        # here we only require the warm run not be meaningfully slower.
        assert warm <= cold * 1.5, (
            f"warm run {warm:.2f}s slower than cold {cold:.2f}s"
        )

    def test_compare_gate_fails_on_injected_regression(self, tmp_path):
        out = tmp_path / "BENCH_base.json"
        proc, _ = self._bench(tmp_path, out)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        for record in doc["records"]:
            record["cycles"] = int(record["cycles"] * 0.9)
        injected = tmp_path / "BENCH_injected.json"
        injected.write_text(json.dumps(doc))

        # current cycles are ~11% above the doctored baseline => fail
        proc, _ = self._bench(
            tmp_path, tmp_path / "BENCH_c.json",
            extra=("--compare", str(injected)),
        )
        assert proc.returncode == 1
        assert "regression" in proc.stdout

        # against the true baseline the same run passes
        proc, _ = self._bench(
            tmp_path, tmp_path / "BENCH_d.json",
            extra=("--compare", str(out)),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout


@pytest.mark.bench_full
class TestPaperTablesWarmCache:
    """A warm compile-session cache serves a repeat ``python -m repro
    tables --size 48`` run without compiling: the store's journal shows
    the cold run publishing every key it compiled and the warm run
    hitting each of them and publishing nothing.  (Simulation, not
    compilation, dominates a table run's wall clock, so the saving is
    counted rather than timed.)"""

    def test_tables_48_twice(self, tmp_path):
        from repro.service.artifacts import ArtifactStore

        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "REPRO_CACHE_DIR": str(tmp_path / "cache"),
            "PATH": "/usr/bin:/bin",
        }
        cmd = [sys.executable, "-m", "repro", "tables", "--size", "48"]
        store = ArtifactStore(tmp_path / "cache")

        def run():
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        def keys(events, ev):
            return {event["key"] for event in events if event["ev"] == ev}

        cold_out = run()
        cold = store.events()
        warm_out = run()
        warm = store.events()[len(cold):]
        assert cold_out == warm_out            # identical tables
        compiled = keys(cold, "compile")
        assert compiled and keys(cold, "publish") == compiled
        assert keys(warm, "compile") == keys(warm, "publish") == set()
        assert keys(warm, "hit") == compiled
