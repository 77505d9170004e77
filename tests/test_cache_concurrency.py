"""Concurrent and capped compile-cache behaviour.

The service shares one disk cache across worker threads *and* across
processes (several servers, CI shards, a human running ``bench`` at the
same time).  These tests pin the two guarantees that sharing relies on:

* a reader never observes a torn entry, no matter how many writers are
  racing on the same key (a publish is write-to-temp + fsync + link);
* the cache stays bounded: LRU eviction by ``max_bytes``, with hits
  refreshing recency.

Every entry is written the one way the store has, a
``fetch_or_compute`` whose ``produce`` returns the payload.
"""

import json
import os
import subprocess
import sys

from repro.bench.cache import (
    CACHE_SCHEMA,
    cache_key,
    cached_compile_minic,
    validate_payload,
)
from repro.pipeline import get_config
from repro.service.artifacts import (
    ROLE_COMPILE,
    ROLE_HIT,
    ArtifactStore,
    default_max_bytes,
)

SRC = """
int dot(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""


def payload_for(tag: str, filler: int = 2048, **fields) -> bytes:
    """A minimal well-formed cache payload, serialized."""
    return json.dumps({
        "schema": CACHE_SCHEMA,
        "module": f"; module for {tag}\n" + "x" * filler,
        "machine": "alpha",
        "tag": tag,
        **fields,
    }).encode()


def put(store: ArtifactStore, key: str, data: bytes) -> str:
    """Write ``data`` under ``key`` if it is absent; returns the role."""
    return store.fetch_or_compute(key, lambda: (data, data))[1]


def decode(data: bytes) -> dict:
    """The compile cache's shape check, without reviving a module."""
    return validate_payload(json.loads(data))


# -- cross-process atomicity -------------------------------------------------
HAMMER = r"""
import json, sys
sys.path.insert(0, {src_dir!r})
from repro.bench.cache import CACHE_SCHEMA
from repro.service.artifacts import ArtifactStore

store = ArtifactStore({cache_dir!r}, max_bytes=None)
tag = sys.argv[1]
payload = json.dumps({{
    "schema": CACHE_SCHEMA,
    "module": "; module from " + tag + "\n" + tag * 4096,
    "machine": "alpha",
    "tag": tag,
}}).encode()

def decode(data):
    # What must NEVER happen is a half-written or interleaved entry; an
    # AssertionError is not a ValueError, so it is not dropped quietly.
    try:
        seen = json.loads(data)
    except ValueError:
        raise AssertionError("unparseable payload served")
    assert seen["schema"] == CACHE_SCHEMA, seen
    assert seen["module"].startswith("; module from "), seen["module"][:40]
    assert seen["tag"] in ("one", "two"), seen
    assert seen["module"].count(seen["tag"]) >= 4096, "torn payload"
    return seen

for round in range(60):
    store.fetch_or_compute(
        "sharedkey", lambda: (decode(payload), payload), decode=decode
    )
    if round % 6 == 2:
        # Force a rewrite, so the two processes race publishes too.
        store.drop("sharedkey", "hammer: republish")
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
        store = ArtifactStore(tmp_path / "shared", max_bytes=None)
        while any(p.poll() is None for p in procs):
            data = store.read("sharedkey")
            if data is not None:
                seen = decode(data)
                assert seen["tag"] in ("one", "two")
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "clean" in out
        # The surviving entry is complete and loadable.
        final = decode(store.read("sharedkey"))
        assert final["tag"] in ("one", "two")
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
            "from repro.bench.cache import cached_compile_minic\n"
            "from repro.service.artifacts import ArtifactStore\n"
            "cache = ArtifactStore({cache!r})\n"
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
        store = ArtifactStore(tmp_path / "cc")
        key = cache_key(SRC, "alpha", get_config("coalesce-all"))
        revived = cached_compile_minic(
            SRC, "alpha", "coalesce-all", cache=store
        )
        assert revived.cache_hit
        assert decode(store.read(key))["machine"] == "alpha"


# -- cross-process single-flight ---------------------------------------------
def _src_dir() -> str:
    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )


COMPILER = """
import sys
sys.path.insert(0, {src!r})
from repro.bench.cache import cached_compile_minic
from repro.service.artifacts import ArtifactStore
cache = ArtifactStore({cache!r}, ttl=1.0)
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
        store = ArtifactStore(tmp_path)
        put(store, "key", payload_for("good"))
        path = store.artifact_path("key")
        path.write_text(path.read_text()[:37])  # simulate a torn write
        value, role = store.fetch_or_compute(
            "key", lambda: ("fresh", payload_for("fresh")), decode=decode
        )
        assert (value, role) == ("fresh", ROLE_COMPILE)  # never served
        assert store.counters()["corruption_drops"] == 1
        assert decode(store.read("key"))["tag"] == "fresh"

    def test_wrong_schema_is_dropped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        put(store, "key", payload_for("old", schema=CACHE_SCHEMA + 1))
        value, role = store.fetch_or_compute(
            "key", lambda: ("fresh", payload_for("fresh")), decode=decode
        )
        assert (value, role) == ("fresh", ROLE_COMPILE)
        drops = [e for e in store.events() if e["ev"] == "corrupt-drop"]
        assert [e["reason"] for e in drops] == ["schema mismatch"]


# -- LRU size cap ------------------------------------------------------------
class TestSizeCap:
    def entry_bytes(self, tmp_path) -> int:
        probe = ArtifactStore(tmp_path / "probe", max_bytes=None)
        put(probe, "probe", payload_for("probe"))
        return probe.artifact_path("probe").stat().st_size

    def test_store_evicts_oldest_beyond_max_bytes(self, tmp_path):
        size = self.entry_bytes(tmp_path)
        store = ArtifactStore(tmp_path / "c", max_bytes=2 * size + size // 2)
        for index, tag in enumerate(("a", "b", "c")):
            put(store, tag, payload_for(tag))
            # Distinct mtimes make the LRU order deterministic even on
            # coarse-resolution filesystems.
            os.utime(store.artifact_path(tag), (1000 + index, 1000 + index))
        put(store, "d", payload_for("d"))
        assert not store.artifact_path("a").exists()
        assert not store.artifact_path("b").exists()
        assert store.artifact_path("c").exists()
        assert store.artifact_path("d").exists()
        assert store.stats()["evictions"] == 2

    def test_lookup_refreshes_recency(self, tmp_path):
        size = self.entry_bytes(tmp_path)
        store = ArtifactStore(tmp_path / "c", max_bytes=2 * size + size // 2)
        put(store, "a", payload_for("a"))
        put(store, "b", payload_for("b"))
        os.utime(store.artifact_path("a"), (1000, 1000))
        os.utime(store.artifact_path("b"), (1001, 1001))
        assert put(store, "a", b"unused") == ROLE_HIT  # a's mtime: "now"
        put(store, "c", payload_for("c"))
        assert store.artifact_path("a").exists()   # recently used: kept
        assert not store.artifact_path("b").exists()  # LRU victim

    def test_lock_files_go_with_their_artifacts(self, tmp_path):
        size = self.entry_bytes(tmp_path)
        store = ArtifactStore(tmp_path / "c", max_bytes=2 * size + size // 2)
        for index, tag in enumerate("abcde"):
            put(store, tag, payload_for(tag))
            os.utime(store.artifact_path(tag), (1000 + index, 1000 + index))

        def stems(pattern):
            return sorted(path.stem
                          for path in store.directory.glob(pattern))

        held = store.acquire("held")  # a live lease keeps its lock
        assert stems("*.json") == ["d", "e"]
        assert stems("*.lock") == ["d", "e", "held"]
        held.release()  # nothing was published under it
        assert stems("*.lock") == ["d", "e"]
        for tag in ("d", "e"):
            store.drop(tag, "test says so")
        assert stems("*.lock") == []

    def test_unbounded_cache_never_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=None)
        for index in range(8):
            put(store, f"k{index}", payload_for(str(index)))
        assert len(store) == 8
        assert store.stats()["evictions"] == 0

    def test_default_max_bytes_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "12345")
        assert default_max_bytes() == 12345
        assert ArtifactStore("/tmp/unused").max_bytes == 12345
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert default_max_bytes() is None  # 0 lifts the cap
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "garbage")
        assert default_max_bytes() is not None  # falls back to default

    def test_stats_reports_shape(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=None)
        put(store, "k", payload_for("k"))   # a miss: compiled
        put(store, "k", payload_for("k"))   # a hit
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["max_bytes"] is None


# -- the cache CLI -----------------------------------------------------------
class TestCacheCLI:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.__main__ import main

        store = ArtifactStore(tmp_path, max_bytes=None)
        put(store, "k1", payload_for("k1"))
        put(store, "k2", payload_for("k2"))

        assert main(["cache", "--dir", str(tmp_path), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:   2" in out

        assert main(["cache", "--dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2
        assert payload["bytes"] > 0

        assert main(["cache", "--dir", str(tmp_path), "--clear"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert len(store) == 0
