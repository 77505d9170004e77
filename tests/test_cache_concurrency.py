"""Concurrent and capped compile-cache behaviour.

The service shares one disk cache across worker threads *and* across
processes (several servers, CI shards, a human running ``bench`` at the
same time).  These tests pin the two guarantees that sharing relies on:

* a reader never observes a torn entry, no matter how many writers are
  racing on the same key (``store`` is write-to-temp + atomic rename);
* the cache stays bounded: LRU eviction by ``max_bytes``, with hits
  refreshing recency.
"""

import json
import os
import subprocess
import sys

from repro.bench.cache import (
    CACHE_SCHEMA,
    CompileCache,
    cache_key,
    cached_compile_minic,
    default_max_bytes,
)
from repro.pipeline import get_config

SRC = """
int dot(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""


def payload_for(tag: str, filler: int = 2048) -> dict:
    """A minimal well-formed cache payload ``lookup`` accepts."""
    return {
        "schema": CACHE_SCHEMA,
        "module": f"; module for {tag}\n" + "x" * filler,
        "machine": "alpha",
        "tag": tag,
    }


# -- cross-process atomicity -------------------------------------------------
HAMMER = r"""
import json, sys
sys.path.insert(0, {src_dir!r})
from repro.bench.cache import CompileCache, CACHE_SCHEMA

cache = CompileCache({cache_dir!r}, max_bytes=None)
tag = sys.argv[1]
payload = {{
    "schema": CACHE_SCHEMA,
    "module": "; module from " + tag + "\n" + tag * 4096,
    "machine": "alpha",
    "tag": tag,
}}
for round in range(60):
    cache.store("sharedkey", payload)
    seen = cache.lookup("sharedkey")
    if seen is None:
        continue  # a racing unlink/replace window: a miss is fine
    # What must NEVER happen is a half-written or interleaved entry.
    assert seen["schema"] == CACHE_SCHEMA, seen
    assert seen["module"].startswith("; module from "), seen["module"][:40]
    assert seen["tag"] in ("one", "two"), seen
    assert seen["module"].count(seen["tag"]) >= 4096, "torn payload"
print("clean")
"""


class TestCrossProcess:
    def test_two_processes_same_key_never_torn(self, tmp_path):
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        script = HAMMER.format(
            src_dir=src_dir, cache_dir=str(tmp_path / "shared")
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, tag],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for tag in ("one", "two")
        ]
        # Race a reader in this process against both writers.
        cache = CompileCache(tmp_path / "shared", max_bytes=None)
        while any(p.poll() is None for p in procs):
            seen = cache.lookup("sharedkey")
            if seen is not None:
                assert seen["schema"] == CACHE_SCHEMA
                assert seen["tag"] in ("one", "two")
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "clean" in out
        # The surviving entry is complete and loadable.
        final = cache.lookup("sharedkey")
        assert final is not None and final["tag"] in ("one", "two")
        # No stray temp files once the writers are done.
        assert list((tmp_path / "shared").glob("*.tmp")) == []

    def test_two_processes_compile_same_program(self, tmp_path):
        """The real end-to-end path: two fresh processes compile the
        same (source, machine, config) against one cache directory;
        both succeed and leave exactly one valid entry behind."""
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.bench.cache import CompileCache, "
            "cached_compile_minic\n"
            "cache = CompileCache({cache!r})\n"
            "program = cached_compile_minic({source!r}, 'alpha', "
            "'coalesce-all', cache=cache)\n"
            "print('coalesced', program.coalesced_loops)\n"
        ).format(
            src=src_dir, cache=str(tmp_path / "cc"), source=SRC
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "coalesced 1" in out
        cache = CompileCache(tmp_path / "cc")
        key = cache_key(SRC, "alpha", get_config("coalesce-all"))
        revived = cached_compile_minic(
            SRC, "alpha", "coalesce-all", cache=cache
        )
        assert revived.cache_hit
        assert cache.lookup(key) is not None


# -- cross-process single-flight ---------------------------------------------
def _src_dir() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )


COMPILER = """
import sys
sys.path.insert(0, {src!r})
from repro.bench.cache import CompileCache, cached_compile_minic
cache = CompileCache({cache!r}, lease_ttl=1.0)
program = cached_compile_minic(
    {source!r}, 'alpha', 'coalesce-all', cache=cache,
)
print('coalesced', program.coalesced_loops)
"""

HOLDER = """
import sys, time
sys.path.insert(0, {src!r})
from repro.service.artifacts import ArtifactStore
store = ArtifactStore({cache!r}, ttl=1.0)
lease = store.acquire(sys.argv[1])
assert lease is not None, 'could not acquire'
print('holding', flush=True)
time.sleep(300)  # "compiling" until SIGKILLed
"""


class TestCrossProcessSingleFlight:
    """The lease protocol across real process boundaries: one compile
    per cold key no matter how many processes race it, and a SIGKILLed
    holder's lease is stolen — never waited on forever."""

    def events(self, cache_dir):
        from repro.service.artifacts import ArtifactStore

        return ArtifactStore(cache_dir).events()

    def test_racing_processes_compile_exactly_once(self, tmp_path):
        cache_dir = str(tmp_path / "flight")
        script = COMPILER.format(
            src=_src_dir(), cache=cache_dir, source=SRC
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(3)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "coalesced 1" in out
        names = [e["ev"] for e in self.events(cache_dir)]
        # The single-flight contract, verified from the durable
        # journal: one compile, one publish, every other process
        # served from the winner's artifact.
        assert names.count("compile") == 1
        assert names.count("publish") == 1
        assert names.count("fallback") == 0

    def test_sigkilled_holder_is_stolen_and_completed(self, tmp_path):
        import signal

        from repro.service.artifacts import ArtifactStore

        cache_dir = str(tmp_path / "steal")
        key = cache_key(SRC, "alpha", get_config("coalesce-all"))
        holder = subprocess.Popen(
            [
                sys.executable, "-c",
                HOLDER.format(src=_src_dir(), cache=cache_dir), key,
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "holding"
            os.kill(holder.pid, signal.SIGKILL)  # mid-"compile"
        finally:
            holder.wait(timeout=30)  # reap: the pid probe must see death

        waiter = subprocess.run(
            [
                sys.executable, "-c",
                COMPILER.format(src=_src_dir(), cache=cache_dir, source=SRC),
            ],
            capture_output=True, text=True, timeout=120,
        )
        assert waiter.returncode == 0, waiter.stderr
        assert "coalesced 1" in waiter.stdout

        events = self.events(cache_dir)
        steals = [e for e in events if e["ev"] == "steal"]
        assert len(steals) == 1
        assert steals[0]["victim"] == holder.pid
        assert steals[0]["token"] == 2  # the fencing token advanced
        names = [e["ev"] for e in events]
        assert names.count("publish") == 1  # exactly one surviving writer
        # And the published artifact is genuinely usable.
        store = ArtifactStore(cache_dir)
        assert store.read(key) is not None
        assert not store.lease_path(key).exists()


# -- torn-entry recovery -----------------------------------------------------
class TestCorruptEntries:
    def test_truncated_entry_is_dropped_not_crashed(self, tmp_path):
        cache = CompileCache(tmp_path)
        cache.store("key", payload_for("good"))
        path = cache._path("key")
        path.write_text(path.read_text()[:37])  # simulate a torn write
        assert cache.lookup("key") is None
        assert not path.exists()  # the wreck was removed

    def test_wrong_schema_is_dropped(self, tmp_path):
        cache = CompileCache(tmp_path)
        bad = payload_for("old")
        bad["schema"] = CACHE_SCHEMA + 1
        cache.store("key", bad)
        assert cache.lookup("key") is None


# -- LRU size cap ------------------------------------------------------------
class TestSizeCap:
    def entry_bytes(self, tmp_path) -> int:
        probe = CompileCache(tmp_path / "probe", max_bytes=None)
        probe.store("probe", payload_for("probe"))
        return probe._path("probe").stat().st_size

    def test_store_evicts_oldest_beyond_max_bytes(self, tmp_path):
        size = self.entry_bytes(tmp_path)
        cache = CompileCache(tmp_path / "c", max_bytes=2 * size + size // 2)
        for index, tag in enumerate(("a", "b", "c")):
            cache.store(tag, payload_for(tag))
            # Distinct mtimes make the LRU order deterministic even on
            # coarse-resolution filesystems.
            os.utime(cache._path(tag), (1000 + index, 1000 + index))
        cache.store("d", payload_for("d"))
        assert not cache._path("a").exists()
        assert not cache._path("b").exists()
        assert cache._path("c").exists()
        assert cache._path("d").exists()
        assert cache.evictions == 2

    def test_lookup_refreshes_recency(self, tmp_path):
        size = self.entry_bytes(tmp_path)
        cache = CompileCache(tmp_path / "c", max_bytes=2 * size + size // 2)
        cache.store("a", payload_for("a"))
        cache.store("b", payload_for("b"))
        os.utime(cache._path("a"), (1000, 1000))
        os.utime(cache._path("b"), (1001, 1001))
        assert cache.lookup("a") is not None  # bumps a's mtime to "now"
        cache.store("c", payload_for("c"))
        assert cache._path("a").exists()   # recently used: kept
        assert not cache._path("b").exists()  # LRU victim

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = CompileCache(tmp_path, max_bytes=None)
        for index in range(8):
            cache.store(f"k{index}", payload_for(str(index)))
        assert len(cache) == 8
        assert cache.evictions == 0

    def test_default_max_bytes_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert default_max_bytes() == 12345
        assert CompileCache("/tmp/unused").max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert default_max_bytes() is None  # 0 lifts the cap
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "garbage")
        assert default_max_bytes() is not None  # falls back to default

    def test_stats_reports_shape(self, tmp_path):
        cache = CompileCache(tmp_path, max_bytes=None)
        cache.store("k", payload_for("k"))
        cache.lookup("k")
        cache.lookup("missing")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["max_bytes"] is None


# -- the cache CLI -----------------------------------------------------------
class TestCacheCLI:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.__main__ import main

        cache = CompileCache(tmp_path, max_bytes=None)
        cache.store("k1", payload_for("k1"))
        cache.store("k2", payload_for("k2"))

        assert main(["cache", "--dir", str(tmp_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:   2" in out

        assert main(["cache", "--dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["bytes"] > 0

        assert main(["cache", "--dir", str(tmp_path), "--clear"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert len(cache) == 0
