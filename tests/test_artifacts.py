"""The crash-safe artifact store: integrity framing, link-once
publish, the lease protocol (heartbeats, staleness, fenced steals),
disk-fault injection, and the latency ring.

A publish always carries its holder's lease: :func:`publish` below takes
and releases one around it, as ``fetch_or_compute`` does.

These are the single-process halves of the guarantees; the true
multi-process races live in ``test_cache_concurrency.py`` and the
``chaos --disk`` harness.
"""

import errno
import json
import os
import sys
import threading
import time

import pytest

from repro.resilience.faults import DISK_FAULT_KINDS, FaultPlan
from repro.service.artifacts import (
    ROLE_COMPILE,
    ROLE_DEDUP,
    ROLE_FALLBACK,
    ROLE_HIT,
    ArtifactStore,
    Lease,
    default_lease_ttl,
)
from repro.service.server import LatencyRing

KEY = "a" * 64
OTHER = "b" * 64


def make_store(tmp_path, **kwargs) -> ArtifactStore:
    kwargs.setdefault("ttl", 0.5)
    return ArtifactStore(tmp_path / "store", **kwargs)


def publish(store: ArtifactStore, key: str, payload: bytes,
            faults=None) -> str:
    """One leased publish of ``payload``, drawing from ``faults``;
    returns its status."""
    lease = store.acquire(key, faults)
    assert lease is not None, "the key's lease is held elsewhere"
    try:
        return store.publish(key, payload, lease, faults)
    finally:
        lease.release()


# -- integrity framing -------------------------------------------------------
class TestFraming:
    def test_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        assert publish(store, KEY, b"payload bytes") == "published"
        assert store.read(KEY) == b"payload bytes"

    def test_empty_payload_round_trips(self, tmp_path):
        store = make_store(tmp_path)
        assert publish(store, KEY, b"") == "published"
        assert store.read(KEY) == b""

    def test_truncated_artifact_is_dropped(self, tmp_path):
        store = make_store(tmp_path)
        publish(store, KEY, b"x" * 100)
        path = store.artifact_path(KEY)
        path.write_bytes(path.read_bytes()[:-10])
        assert store.read(KEY) is None
        assert not path.exists()  # the wreck was unlinked
        assert store.counters()["corruption_drops"] == 1

    def test_flipped_byte_is_dropped(self, tmp_path):
        store = make_store(tmp_path)
        publish(store, KEY, b"x" * 100)
        path = store.artifact_path(KEY)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.read(KEY) is None
        assert store.counters()["corruption_drops"] == 1

    def test_garbage_header_is_dropped(self, tmp_path):
        store = make_store(tmp_path)
        store.artifact_path(KEY).parent.mkdir(parents=True, exist_ok=True)
        store.artifact_path(KEY).write_bytes(b"not an artifact at all")
        assert store.read(KEY) is None
        assert not store.artifact_path(KEY).exists()

    def test_missing_artifact_is_a_plain_miss(self, tmp_path):
        store = make_store(tmp_path)
        assert store.read(KEY) is None
        assert store.counters()["corruption_drops"] == 0


# -- link-once publish -------------------------------------------------------
class TestLinkOnce:
    def test_second_publish_cannot_replace(self, tmp_path):
        store = make_store(tmp_path)
        assert publish(store, KEY, b"first") == "published"
        assert publish(store, KEY, b"second") == "exists"
        assert store.read(KEY) == b"first"

    def test_no_temp_litter(self, tmp_path):
        store = make_store(tmp_path)
        publish(store, KEY, b"first")
        publish(store, KEY, b"second")
        assert list(store.directory.glob("*.tmp")) == []

    def test_republish_after_drop(self, tmp_path):
        store = make_store(tmp_path)
        publish(store, KEY, b"first")
        store.drop(KEY, "test says so")
        assert publish(store, KEY, b"second") == "published"
        assert store.read(KEY) == b"second"


# -- the lease protocol ------------------------------------------------------
class TestKeyLock:
    def test_a_waiter_relocks_a_lock_file_unlinked_under_it(self, tmp_path):
        # The waiter opens the lock file and blocks in flock; the holder
        # unlinks the file (as a dropped key's last user does) and lets
        # go.  The waiter must end up holding the file at the path, not
        # the unlinked inode a newcomer could no longer contend for.
        store = make_store(tmp_path)
        store.directory.mkdir(parents=True)
        path = store.lock_path(KEY)
        seen = {}

        def waiter():
            with store._key_lock(KEY):
                seen["at_path"] = path.exists()

        with store._key_lock(KEY):
            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.2)  # let the waiter open the file and block
            os.unlink(path)
        thread.join(timeout=5)
        assert seen == {"at_path": True}


class TestLeases:
    def test_acquire_is_exclusive(self, tmp_path):
        store = make_store(tmp_path)
        lease = store.acquire(KEY)
        assert lease is not None and lease.token == 1
        assert store.acquire(KEY) is None
        lease.release()
        assert not store.lease_path(KEY).exists()
        second = store.acquire(KEY)
        assert second is not None
        second.release()

    def test_heartbeat_keeps_the_lease_fresh(self, tmp_path):
        store = make_store(tmp_path, ttl=0.4)
        lease = store.acquire(KEY)
        try:
            time.sleep(0.9)  # > 2 TTLs: only heartbeats keep it alive
            info = store._read_lease(KEY)
            assert info is not None
            assert not store._lease_stale(info)
        finally:
            lease.release()

    def test_dead_pid_is_stale_immediately(self, tmp_path):
        store = make_store(tmp_path)
        lease = store.acquire(KEY)
        lease.stop()  # heartbeat off, file left behind (simulated crash)
        info = store._read_lease(KEY)
        info["pid"] = 2 ** 22 + os.getpid()  # vanishingly unlikely to exist
        assert store._lease_stale(info)

    def test_silent_lease_goes_stale_by_mtime(self, tmp_path):
        plan = FaultPlan.parse("artifact:lease=stale-lease@1")
        store = make_store(tmp_path, ttl=0.3)
        lease = store.acquire(KEY, plan)
        assert lease is not None
        info = store._read_lease(KEY)
        assert store._lease_stale(info)  # backdated past the TTL

    def test_steal_advances_the_fencing_token(self, tmp_path):
        plan = FaultPlan.parse("artifact:lease=stale-lease@1")
        store = make_store(tmp_path, ttl=0.3)
        holder = store.acquire(KEY, plan)
        rival = make_store(tmp_path)
        observed = rival._read_lease(KEY)
        thief = rival.steal(KEY, observed)
        assert thief is not None and thief.token == 2
        assert not holder.still_mine()
        assert thief.still_mine()
        thief.release()

    def test_steal_aborts_on_nonce_mismatch(self, tmp_path):
        store = make_store(tmp_path)
        lease = store.acquire(KEY)
        lease.stop()
        observed = store._read_lease(KEY)
        observed["nonce"] = "somebody else's snapshot"
        # Even though the file itself never changed, the observation
        # does not match: a rival got here first in the real ordering.
        assert store.steal(KEY, observed) is None

    def test_stolen_holder_is_fenced_at_publish(self, tmp_path):
        plan = FaultPlan.parse("artifact:lease=stale-lease@1")
        store = make_store(tmp_path, ttl=0.3)
        holder = store.acquire(KEY, plan)
        rival = make_store(tmp_path)
        thief = rival.steal(KEY, rival._read_lease(KEY))
        assert thief is not None
        # The revived original tries to write its (now untrusted) result.
        assert store.publish(KEY, b"from the dead", lease=holder) == "fenced"
        assert store.read(KEY) is None  # nothing reached the final name
        assert rival.publish(KEY, b"the winner", lease=thief) == "published"
        assert rival.read(KEY) == b"the winner"
        thief.release()
        counters = rival.counters()
        assert counters["steals"] == 1
        assert counters["fenced_publishes"] == 1
        assert counters["publishes"] == 1


# -- fetch_or_compute --------------------------------------------------------
class TestFetchOrCompute:
    def test_compile_then_hit(self, tmp_path):
        store = make_store(tmp_path)
        calls = []

        def produce():
            calls.append(1)
            return {"v": 1}, b"bytes-1"

        value, role = store.fetch_or_compute(KEY, produce)
        assert role == ROLE_COMPILE and value == {"v": 1}
        value, role = store.fetch_or_compute(KEY, produce)
        assert role == ROLE_HIT and value == b"bytes-1"
        assert len(calls) == 1
        assert not store.lease_path(KEY).exists()

    def test_decode_failure_drops_and_recompiles(self, tmp_path):
        store = make_store(tmp_path)
        publish(store, KEY, b"stale generation")

        def decode(data):
            if data == b"stale generation":
                raise ValueError("schema moved on")
            return data

        value, role = store.fetch_or_compute(
            KEY, lambda: (b"fresh", b"fresh"), decode=decode
        )
        assert role == ROLE_COMPILE and value == b"fresh"
        assert store.counters()["corruption_drops"] == 1
        assert store.read(KEY) == b"fresh"

    def test_waiter_dedups_on_the_holders_publish(self, tmp_path):
        store = make_store(tmp_path)
        rival = make_store(tmp_path)
        started = threading.Event()
        release = threading.Event()

        def slow_produce():
            started.set()
            release.wait(timeout=10)
            return b"slow", b"slow"

        outcome = {}

        def holder():
            outcome["holder"] = store.fetch_or_compute(KEY, slow_produce)

        thread = threading.Thread(target=holder)
        thread.start()
        assert started.wait(timeout=10)

        def never():  # the waiter must not compile
            raise AssertionError("waiter compiled")

        polls = []

        def cancel():
            # The rival's second poll: it has found the lease held and
            # waited once, so the holder may publish now.
            polls.append(1)
            if len(polls) == 2:
                release.set()

        value, role = rival.fetch_or_compute(
            KEY, never, wait_timeout=10, cancel=cancel
        )
        thread.join(timeout=10)
        assert outcome["holder"] == (b"slow", ROLE_COMPILE)
        assert (value, role) == (b"slow", ROLE_DEDUP)
        counters = store.counters()
        assert counters["compiles"] == 1
        assert counters["dedup_hits"] == 1

    def test_threads_racing_one_cold_key_compile_once(self, tmp_path):
        # flock locks belong to the open file description, and every
        # acquire opens the lock file afresh, so threads of one process
        # contend for the lease exactly like separate processes do.
        store = make_store(tmp_path)
        # Waiters in the holder's process are woken by its release, not
        # by the poll: with a 60 s poll they must still finish in time.
        store.poll_interval = 60
        barrier = threading.Barrier(8)
        produced = []
        roles = []

        def produce():
            produced.append(threading.get_ident())
            time.sleep(0.3)  # hold the lease while every rival arrives
            return b"value", b"value"

        def racer():
            barrier.wait(timeout=10)
            roles.append(store.fetch_or_compute(KEY, produce)[1])

        threads = [threading.Thread(target=racer) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the racers finely
        try:
            for thread in threads:
                thread.start()
            joined_by = time.monotonic() + 30  # one budget for all eight
            for thread in threads:
                thread.join(timeout=max(0.0, joined_by - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(produced) == 1
        assert sorted(roles) == sorted([ROLE_COMPILE] + [ROLE_DEDUP] * 7)
        assert store.counters()["compiles"] == 1
        # The per-process tally saw every racer (no lost update).
        assert store.tally == {ROLE_COMPILE: 1, ROLE_DEDUP: 7}

    def test_wait_deadline_degrades_to_local_compile(self, tmp_path):
        store = make_store(tmp_path)
        lease = store.acquire(KEY)  # somebody else is (forever) busy
        try:
            rival = make_store(tmp_path)
            value, role = rival.fetch_or_compute(
                KEY, lambda: (b"local", b"local"), wait_timeout=0.2
            )
            assert (value, role) == (b"local", ROLE_FALLBACK)
            assert rival.read(KEY) is None  # fallback never publishes
            assert rival.counters()["fallbacks"] == 1
        finally:
            lease.release()

    def test_cancel_is_honoured_while_waiting(self, tmp_path):
        store = make_store(tmp_path)
        lease = store.acquire(KEY)
        try:
            rival = make_store(tmp_path)

            def cancel():
                raise TimeoutError("request deadline")

            with pytest.raises(TimeoutError):
                rival.fetch_or_compute(
                    KEY, lambda: (b"x", b"x"),
                    wait_timeout=30, cancel=cancel,
                )
        finally:
            lease.release()


# -- injected disk faults ----------------------------------------------------
class TestDiskFaults:
    def test_torn_write_is_caught_by_the_reader(self, tmp_path):
        plan = FaultPlan.parse("artifact:publish=torn-write@1")
        store = make_store(tmp_path)
        assert publish(store, KEY, b"p" * 200, plan) == "torn"
        clean = make_store(tmp_path)
        assert clean.read(KEY) is None  # dropped, never served
        counters = clean.counters()
        assert counters["torn_publishes"] == 1
        assert counters["corruption_drops"] == 1

    def test_corrupt_artifact_fault_damages_then_drops(self, tmp_path):
        store = make_store(tmp_path)
        publish(store, KEY, b"good bytes")
        plan = FaultPlan.parse("artifact:read=corrupt-artifact@1")
        assert store.read(KEY, plan) is None
        assert store.counters()["corruption_drops"] == 1
        # The next read is an honest miss (the wreck was unlinked).
        assert store.read(KEY, plan) is None

    def test_enospc_fault_degrades_to_error(self, tmp_path):
        plan = FaultPlan.parse("artifact:publish=enospc@1")
        store = make_store(tmp_path)
        assert publish(store, KEY, b"payload", plan) == "error"
        assert store.read(KEY) is None
        counters = store.counters()
        assert counters["disk_errors"] == 1
        assert counters["publishes"] == 0

    def test_key_qualified_sites_count_per_key(self, tmp_path):
        plan = FaultPlan.parse(
            f"artifact:publish:{KEY[:12]}=torn-write@1"
        )
        store = make_store(tmp_path)
        # OTHER is untargeted: its publish goes through.
        assert publish(store, OTHER, b"other", plan) == "published"
        assert publish(store, KEY, b"mine", plan) == "torn"

    def test_disk_kinds_refuse_to_execute_at_pass_sites(self, tmp_path):
        from repro.errors import ReproError
        from repro.resilience.faults import FaultSpec

        plan = FaultPlan()
        for kind in DISK_FAULT_KINDS:
            with pytest.raises(ReproError):
                plan.execute(FaultSpec("unroll", kind))

    def test_disk_only_classification(self):
        assert FaultPlan.parse("artifact:read=corrupt-artifact").disk_only()
        assert FaultPlan.parse(
            "seed=1,rate=0.1,kinds=torn-write|enospc"
        ).disk_only()
        assert not FaultPlan.parse("unroll=raise").disk_only()
        assert not FaultPlan.parse(
            "artifact:read=corrupt-artifact,unroll=raise"
        ).disk_only()
        assert not FaultPlan.parse(
            "seed=1,kinds=torn-write|raise"
        ).disk_only()
        assert not FaultPlan().disk_only()  # empty plan: nothing to key on


# -- OSError bypass (graceful degradation) -----------------------------------
class TestDiskErrorBypass:
    def test_unusable_directory_never_raises(self, tmp_path):
        # The store's directory is a regular *file*: every mkdir/open
        # underneath raises OSError, which must degrade to miss/error.
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        store = ArtifactStore(blocker, ttl=0.5)
        assert store.read(KEY) is None
        assert store.acquire(KEY) is None
        # A lease object as a holder would have it; the disk fails first.
        lease = Lease(store, KEY, "nonce", token=1, ttl=store.ttl)
        assert store.publish(KEY, b"payload", lease) == "error"
        assert store.events() == []
        assert store.counters()["publishes"] == 0

    def test_fetch_or_compute_falls_back_on_dead_disk(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        store = ArtifactStore(blocker, ttl=0.2)
        value, role = store.fetch_or_compute(
            KEY, lambda: (b"computed", b"computed"), wait_timeout=0.3
        )
        assert value == b"computed"
        assert role == ROLE_FALLBACK  # degraded, never an error

    def test_dead_disk_falls_back_without_waiting(self, tmp_path):
        # A disk error on the lease is not a rival holding it: nobody
        # will publish, so the default 20 s wait would buy nothing.
        from repro.bench.cache import cached_compile_minic

        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache = ArtifactStore(blocker)
        assert cache.wait_timeout >= 10.0
        started = time.monotonic()
        program = cached_compile_minic(
            "int add(int a, int b) { return a + b; }",
            "alpha", "vpo", cache=cache,
        )
        assert time.monotonic() - started < 2.0
        assert dict(cache.tally) == {"fallback": 1}
        assert not program.cache_hit

    def test_mkstemp_enospc_degrades_publish(self, tmp_path, monkeypatch):
        import tempfile as _tempfile

        store = make_store(tmp_path)

        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(_tempfile, "mkstemp", full_disk)
        assert publish(store, KEY, b"payload") == "error"
        events = store.events()
        assert any(
            e["ev"] == "disk-error" and e.get("errno") == errno.ENOSPC
            for e in events
        )

    def test_cached_compile_survives_dead_cache_dir(self, tmp_path):
        from repro.bench.cache import cached_compile_minic

        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache = ArtifactStore(blocker, ttl=0.2)
        cache.wait_timeout = 0.3
        program = cached_compile_minic(
            "int add(int a, int b) { return a + b; }",
            "alpha", "coalesce-all", cache=cache,
        )
        assert program is not None
        assert not program.cache_hit


# -- the durable journal -----------------------------------------------------
class TestJournal:
    def test_events_survive_into_a_fresh_store(self, tmp_path):
        store = make_store(tmp_path)
        store.fetch_or_compute(KEY, lambda: (b"v", b"v"))
        store.fetch_or_compute(KEY, lambda: (b"v", b"v"))
        fresh = make_store(tmp_path)
        names = [e["ev"] for e in fresh.events()]
        assert names.count("compile") == 1
        assert names.count("publish") == 1
        assert names.count("hit") == 1

    def test_torn_journal_lines_are_skipped(self, tmp_path):
        store = make_store(tmp_path)
        publish(store, KEY, b"v")
        with open(store.events_path, "ab") as handle:
            handle.write(b'{"t": 1, "pid": 2, "ev": "hi')  # cut mid-write
        events = store.events()
        assert [e["ev"] for e in events] == ["publish"]

    def test_counters_shape(self, tmp_path):
        store = make_store(tmp_path)
        counters = store.counters()
        for field in (
            "publishes", "compiles", "log_hits", "dedup_hits", "steals",
            "fenced_publishes", "corruption_drops", "disk_errors",
            "fallbacks", "torn_publishes", "faults_injected",
        ):
            assert counters[field] == 0


# -- configuration -----------------------------------------------------------
class TestConfig:
    def test_default_lease_ttl_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEASE_TTL", raising=False)
        assert default_lease_ttl() == 5.0
        monkeypatch.setenv("REPRO_LEASE_TTL", "2.5")
        assert default_lease_ttl() == 2.5
        monkeypatch.setenv("REPRO_LEASE_TTL", "garbage")
        assert default_lease_ttl() == 5.0
        monkeypatch.setenv("REPRO_LEASE_TTL", "-3")
        assert default_lease_ttl() == 5.0

    def test_cache_stats_include_journal_counters(self, tmp_path):
        cache = ArtifactStore(tmp_path, max_bytes=None, ttl=0.7)
        stats = cache.stats()
        assert stats["lease_ttl"] == 0.7
        assert stats["dedup_hits"] == 0
        assert stats["steals"] == 0


# -- the latency ring --------------------------------------------------------
class TestLatencyRing:
    def test_empty_snapshot(self):
        ring = LatencyRing()
        snap = ring.snapshot()
        assert snap["count"] == 0 and snap["window"] == 0
        assert snap["p50"] is None and snap["p99"] is None

    def test_single_sample(self):
        ring = LatencyRing()
        ring.record(0.25)
        snap = ring.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == snap["p90"] == snap["p99"] == 0.25

    def test_nearest_rank_percentiles(self):
        ring = LatencyRing()
        for ms in range(1, 101):  # 0.001 .. 0.100
            ring.record(ms / 1000.0)
        snap = ring.snapshot()
        assert snap["p50"] == pytest.approx(0.050)
        assert snap["p90"] == pytest.approx(0.090)
        assert snap["p99"] == pytest.approx(0.099)

    def test_window_wraps_but_lifetime_count_keeps_growing(self):
        ring = LatencyRing(capacity=8)
        for _ in range(20):
            ring.record(1.0)
        ring.record(9.0)
        snap = ring.snapshot()
        assert snap["count"] == 21
        assert snap["window"] == 8
        assert snap["p99"] == 9.0  # the spike is still in the window

    def test_thread_safety_smoke(self):
        ring = LatencyRing(capacity=64)

        def pound():
            for _ in range(500):
                ring.record(0.001)

        threads = [threading.Thread(target=pound) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        snap = ring.snapshot()
        assert snap["count"] == 2000
        assert snap["window"] == 64
