"""The compile cache's revive memo: a warm hit revives once per process.

A warm ``cached_compile_minic`` still reads, checks and journals its
artifact through the store; only the decode, parse and revive are
skipped when the same verified bytes were revived before.  The revived
program is then shared read-only, by later hits and by threads.
"""

import sys
import threading
from dataclasses import replace

import pytest

from repro.bench.cache import (
    REVIVE_MEMO_ENTRIES,
    cache_key,
    cached_compile_minic,
    revived_programs,
)
from repro.bench.harness import cell_recipe
from repro.pipeline import get_config
from repro.resilience.faults import FaultPlan
from repro.service.artifacts import ArtifactStore
from repro.sim.plan import Plan

DOT = """
int dot(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""
CALL = Plan("dot", [("a", 2, [1, 2, 3, 4]), ("b", 2, [5, 6, 7, 8])],
            ["a", "b", 4], result=70)


@pytest.fixture(autouse=True)
def empty_memo():
    revived_programs().clear()
    yield
    revived_programs().clear()


def memo_key(store: ArtifactStore, source: str) -> tuple:
    """The memo's key for ``source``'s artifact in ``store``."""
    import hashlib

    key = cache_key(source, "alpha", get_config("vpo"))
    return key, hashlib.sha256(store.read(key)).digest()


def hits(store: ArtifactStore) -> int:
    return sum(1 for event in store.events() if event["ev"] == "hit")


class TestReviveMemo:
    def test_warm_hits_share_one_revived_program(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = cached_compile_minic(DOT, cache=store)
        first = cached_compile_minic(DOT, cache=store)
        second = cached_compile_minic(DOT, cache=store)
        assert first is second and first is not cold
        assert first.cache_hit
        record = first.measure(CALL)
        assert record.output_ok
        assert second.measure(CALL) == record
        assert cold.measure(CALL) == replace(record, compile_cache_hit=False)

    def test_a_compiled_program_never_enters_the_memo(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cold = cached_compile_minic(DOT, cache=store)
        assert len(revived_programs()) == 0
        assert not cold.cache_hit and cold.pass_stats
        assert not cold.measure(CALL).compile_cache_hit
        warm = cached_compile_minic(DOT, cache=store)
        assert revived_programs().get(memo_key(store, DOT)) is warm
        assert not warm.pass_stats

    def test_one_entry_past_the_bound_evicts_the_least_recent(
        self, tmp_path
    ):
        # Every source's artifact holds one payload, so each is a hit
        # that revives without compiling.
        store = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, cache=store)
        payload = store.read(cache_key(DOT, "alpha", get_config("vpo")))
        sources = [f"{DOT}// copy {i}\n" for i in range(
            REVIVE_MEMO_ENTRIES + 1)]
        for source in sources:
            key = cache_key(source, "alpha", get_config("vpo"))
            store.fetch_or_compute(key, lambda: (None, payload))
        memo = revived_programs()
        assert memo.capacity == REVIVE_MEMO_ENTRIES
        programs = [cached_compile_minic(source, cache=store)
                    for source in sources[:-1]]
        assert len(memo) == REVIVE_MEMO_ENTRIES
        assert cached_compile_minic(sources[0], cache=store) is programs[0]
        cached_compile_minic(sources[-1], cache=store)  # one past
        assert len(memo) == REVIVE_MEMO_ENTRIES
        assert memo_key(store, sources[0]) in memo
        assert memo_key(store, sources[1]) not in memo
        assert cached_compile_minic(sources[1], cache=store) is not (
            programs[1])


class TestStoreUnderTheMemo:
    def test_corrupt_read_of_a_memoized_key_drops_and_recompiles(
        self, tmp_path
    ):
        store = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, cache=store)
        warm = cached_compile_minic(DOT, cache=store)
        plan = FaultPlan.parse("artifact:read=corrupt-artifact@1")
        again = cached_compile_minic(DOT, cache=store, faults=plan)
        assert again is not warm and not again.cache_hit
        counters = store.counters()
        assert counters["corruption_drops"] == 1
        assert counters["compiles"] == 2
        # The recompile republished the same bytes: the memo serves them.
        assert cached_compile_minic(DOT, cache=store) is warm

    def test_a_rewritten_artifact_is_decoded_afresh(self, tmp_path):
        import json

        store = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, cache=store)
        warm = cached_compile_minic(DOT, cache=store)
        key = cache_key(DOT, "alpha", get_config("vpo"))
        payload = json.loads(store.read(key))
        payload["module"] = payload["module"].replace(
            "module module", "module rewritten", 1)
        store.artifact_path(key).unlink()
        store.fetch_or_compute(
            key, lambda: (None, json.dumps(payload).encode()))
        fresh = cached_compile_minic(DOT, cache=store)
        assert fresh is not warm and fresh.cache_hit
        assert fresh.module.name == "rewritten"
        assert fresh.measure(CALL) == warm.measure(CALL)

    def test_every_warm_hit_journals_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cached_compile_minic(DOT, cache=store)
        before = revived_programs().stats()["hits"]
        for count in range(1, 4):
            cached_compile_minic(DOT, cache=store)
            assert hits(store) == count
        assert revived_programs().stats()["hits"] - before == 2


class TestSharedReadOnly:
    def test_threads_measuring_one_revived_program_agree(self, tmp_path):
        # More threads than cores and a short switch interval: the
        # program's facts (layout, registration, closure keys, block
        # costs) are filled while the threads race to first use them.
        source, preset, overrides, plan = cell_recipe(
            "convolution", "alpha", "coalesce-all", 16, 16)
        store = ArtifactStore(tmp_path)
        reference = cached_compile_minic(
            source, "alpha", preset, cache=store, **overrides)
        runs = [dict(backend=backend, simulate_caches=caches)
                for backend in ("compiled", "interp")
                for caches in (True, False)]
        want = [reference.measure(plan, 8, **run) for run in runs]
        program = cached_compile_minic(
            source, "alpha", preset, cache=store, **overrides)
        assert program.cache_hit
        got = {}

        def measure(thread: int) -> None:
            for run in range(len(runs)):  # each thread starts elsewhere
                run = (run + thread) % len(runs)
                got[thread, run] = program.measure(plan, 8, **runs[run])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=measure, args=(n,))
                       for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 4 * len(runs)
        for (thread, run), record in got.items():
            assert record == replace(want[run], compile_cache_hit=True), (
                thread, runs[run])
