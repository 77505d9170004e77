"""Compile-service tests: protocol, breaker, classification, and the
live server (deadlines, load shedding, degradation, graceful shutdown).

Integration tests run a real :class:`CompileServer` on a Unix socket
under ``tmp_path`` with an isolated compile cache, and talk to it with
the real :class:`ServiceClient` — the same code paths ``python -m repro
serve`` / ``submit`` exercise.
"""

import json
import os
import threading
import time

import pytest

from repro.errors import DeadlineExceeded, FaultInjected, ParseError
from repro.pipeline import compile_minic
from repro.resilience import (
    DEGRADE,
    FATAL,
    RETRYABLE,
    FaultPlan,
    classify_failure,
    is_retryable,
)
from repro.service import protocol
from repro.service.artifacts import ArtifactStore
from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    MODE_DEGRADED,
    MODE_FULL,
    MODE_PROBE,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.service.client import (
    ServiceClient,
    ServiceUnavailable,
    parse_array_specs,
    wait_until_ready,
)
from repro.service.server import CompileServer

DOT_SRC = """
int dot(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""
DOT_ARRAYS = [
    ("a", 2, [3, 1, 4, 1, 5, 9, 2, 6]),
    ("b", 2, [1, 1, 1, 1, 1, 1, 1, 1]),
]
DOT_N = 8
DOT_EXPECTED = 31

ADD_SRC = "int add(int a, int b) { return a + b; }"


# -- protocol ----------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"id": 7, "op": "compile", "source": "int f() {}"}
        assert protocol.decode(protocol.encode(message).rstrip(b"\n")) \
            == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json {")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2, 3]")  # not an object

    def test_decode_rejects_oversized_frame(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"x" * (protocol.MAX_LINE_BYTES + 1))

    @pytest.mark.parametrize("message, complaint_part", [
        ({"op": "explode"}, "unknown op"),
        ({"op": "compile"}, "'source'"),
        ({"op": "simulate", "source": "x"}, "'entry'"),
        ({"op": "bench"}, "'program'"),
        ({"op": "ping", "deadline": -1}, "'deadline'"),
        ({"op": "ping", "deadline": "soon"}, "'deadline'"),
    ])
    def test_validate_request_complaints(self, message, complaint_part):
        complaint = protocol.validate_request(message)
        assert complaint is not None and complaint_part in complaint

    def test_validate_request_accepts_well_formed(self):
        assert protocol.validate_request(
            {"op": "compile", "source": "x", "deadline": 2.5}
        ) is None

    def test_make_response_marks_retryable_statuses(self):
        for status in protocol.RETRYABLE_STATUSES:
            assert protocol.make_response(1, status)["retryable"]
        assert not protocol.make_response(1, protocol.STATUS_OK)["retryable"]
        assert not protocol.make_response(
            1, protocol.STATUS_ERROR
        )["retryable"]
        # explicit override wins (e.g. a retryable classified error)
        assert protocol.make_response(
            1, protocol.STATUS_ERROR, retryable=True
        )["retryable"]

    def test_default_socket_path_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_SOCKET", "/tmp/custom.sock")
        assert protocol.default_socket_path() == "/tmp/custom.sock"

    def test_bind_refuses_live_server(self, tmp_path):
        path = str(tmp_path / "live.sock")
        listener = protocol.bind(path)
        try:
            with pytest.raises(protocol.ProtocolError):
                protocol.bind(path)
        finally:
            listener.close()

    def test_bind_replaces_stale_socket(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        protocol.bind(path).close()  # dead server leaves the file behind
        assert os.path.exists(path)
        listener = protocol.bind(path)
        listener.close()


# -- failure classification --------------------------------------------------
class TestClassify:
    def test_deadline_is_retryable(self):
        exc = DeadlineExceeded(1.0, 1.5)
        assert classify_failure(exc) == RETRYABLE
        assert is_retryable(exc)

    def test_parse_error_is_fatal(self):
        assert classify_failure(ParseError("bad", 1, 1)) == FATAL

    def test_injected_fault_degrades(self):
        assert classify_failure(FaultInjected("coalesce", "raise")) == DEGRADE

    def test_connection_errors_are_retryable(self):
        assert classify_failure(ConnectionResetError()) == RETRYABLE
        assert classify_failure(TimeoutError()) == RETRYABLE

    def test_unknown_exception_is_fatal_for_simulate(self):
        exc = RuntimeError("boom")
        assert classify_failure(exc, "simulate") == FATAL
        assert classify_failure(exc, "compile") == DEGRADE


# -- circuit breaker ---------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=30.0):
        clock = FakeClock()
        return CircuitBreaker(threshold, cooldown, clock=clock), clock

    def test_closed_serves_full(self):
        breaker, _ = self.make()
        assert breaker.acquire() == MODE_FULL
        assert breaker.state == CLOSED

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure(("coalesce",))
        assert breaker.state == CLOSED
        breaker.record_failure(("unroll",))
        assert breaker.state == OPEN
        assert breaker.bad_passes == {"coalesce", "unroll"}
        assert breaker.times_opened == 1

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make(threshold=3)
        breaker.record_failure(("coalesce",))
        breaker.record_failure(("coalesce",))
        breaker.record_success()
        breaker.record_failure(("coalesce",))
        assert breaker.state == CLOSED  # streak restarted at 1

    def test_open_serves_degraded_until_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=30.0)
        breaker.record_failure(("coalesce",))
        assert breaker.acquire() == MODE_DEGRADED
        assert breaker.served_degraded == 1
        clock.now += 29.0
        assert breaker.acquire() == MODE_DEGRADED
        clock.now += 2.0
        assert breaker.acquire() == MODE_PROBE
        assert breaker.state == HALF_OPEN

    def test_only_one_probe_at_a_time(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure(("coalesce",))
        clock.now += 2.0
        assert breaker.acquire() == MODE_PROBE
        assert breaker.acquire() == MODE_DEGRADED  # probe still in flight

    def test_probe_success_closes_and_forgets_bad_passes(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure(("coalesce",))
        clock.now += 2.0
        assert breaker.acquire() == MODE_PROBE
        breaker.record_success(probe=True)
        assert breaker.state == CLOSED
        assert breaker.bad_passes == set()
        assert breaker.times_closed == 1
        assert breaker.acquire() == MODE_FULL

    def test_probe_failure_reopens(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure(("coalesce",))
        clock.now += 2.0
        assert breaker.acquire() == MODE_PROBE
        breaker.record_failure(("coalesce",), probe=True)
        assert breaker.state == OPEN
        assert breaker.acquire() == MODE_DEGRADED  # cooldown restarted
        clock.now += 2.0
        assert breaker.acquire() == MODE_PROBE

    def test_release_probe_lets_the_next_request_probe(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure(("coalesce",))
        clock.now += 2.0
        assert breaker.acquire() == MODE_PROBE
        breaker.release_probe()  # probe died without a verdict
        assert breaker.acquire() == MODE_PROBE

    def test_snapshot_shape(self):
        breaker, _ = self.make()
        breaker.record_failure(("coalesce",))
        snap = breaker.snapshot()
        assert snap["state"] == CLOSED
        assert snap["consecutive_failures"] == 1
        assert snap["bad_passes"] == ["coalesce"]

    def test_half_open_concurrent_probes_admit_exactly_one(self):
        # Eight threads hit the cooled-down breaker at once: the probe
        # slot must admit exactly one (the rest serve degraded), with
        # no torn state transition.
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure(("coalesce",))
        clock.now += 2.0
        modes = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def race():
            barrier.wait()
            mode = breaker.acquire()
            with lock:
                modes.append(mode)

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert modes.count(MODE_PROBE) == 1
        assert modes.count(MODE_DEGRADED) == 7
        assert breaker.state == HALF_OPEN
        # The lone probe's verdict still decides the transition.
        breaker.record_success(probe=True)
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_under_concurrency_reopens(self):
        breaker, clock = self.make(threshold=1, cooldown=1.0)
        breaker.record_failure(("coalesce",))
        clock.now += 2.0
        barrier = threading.Barrier(6)
        modes = []
        lock = threading.Lock()

        def race():
            barrier.wait()
            mode = breaker.acquire()
            with lock:
                modes.append(mode)
            if mode == MODE_PROBE:
                breaker.record_failure(("coalesce",), probe=True)

        threads = [threading.Thread(target=race) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert modes.count(MODE_PROBE) == 1
        assert breaker.state == OPEN
        # Cooldown restarted by the failed probe; degrade until then.
        assert breaker.acquire() == MODE_DEGRADED
        clock.now += 2.0
        assert breaker.acquire() == MODE_PROBE

    def test_board_keys_by_machine_and_config(self):
        board = BreakerBoard(clock=FakeClock())
        a = board.get("alpha", "vpo")
        b = board.get("alpha", "coalesce-all")
        assert a is not b
        assert board.get("alpha", "vpo") is a
        a.record_failure(("coalesce",))
        snap = board.snapshot()
        assert snap["alpha/vpo"]["consecutive_failures"] == 1
        assert snap["alpha/coalesce-all"]["consecutive_failures"] == 0


# -- live-server helpers -----------------------------------------------------
@pytest.fixture
def service(tmp_path):
    """A factory for live servers on tmp sockets (all stopped on exit)."""
    servers = []

    def start(**kwargs):
        kwargs.setdefault(
            "socket_path", str(tmp_path / f"srv{len(servers)}.sock")
        )
        kwargs.setdefault("cache", ArtifactStore(tmp_path / "cache"))
        server = CompileServer(**kwargs)
        server.start()
        assert wait_until_ready(server.socket_path, timeout=10.0)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()


def client_for(server, **kwargs):
    kwargs.setdefault("retries", 5)
    kwargs.setdefault("backoff_base", 0.01)
    return ServiceClient(server.socket_path, **kwargs)


# -- live-server integration -------------------------------------------------
class TestServerBasics:
    def test_compile_ok_then_cache_hit(self, service):
        server = service()
        client = client_for(server)
        first = client.compile(ADD_SRC)
        assert first["status"] == "ok"
        assert first["cache_hit"] is False
        second = client.compile(ADD_SRC)
        assert second["status"] == "ok"
        assert second["cache_hit"] is True

    def test_simulate_matches_local_compile(self, service):
        server = service()
        client = client_for(server)
        response = client.simulate(
            DOT_SRC, "dot", ["a", "b", DOT_N],
            arrays=DOT_ARRAYS, config="coalesce-all",
        )
        assert response["status"] == "ok"
        assert response["result"] == DOT_EXPECTED
        assert response["coalesced_loops"] >= 1
        assert response["cycles"] > 0

    def test_dump_stops_at_the_staged_array(self, service):
        # dump 64 on a 4-element array must not read the neighbouring
        # simulated memory past its end.
        server = service()
        client = client_for(server)
        response = client.simulate(
            DOT_SRC, "dot", ["a", "b", 4],
            arrays=[("a", 2, [1, 2, 3, 4]), ("b", 2, [10, 20, 30, 40])],
            config="coalesce-all", dump=64,
        )
        assert response["status"] == "ok"
        assert response["result"] == 300
        assert response["arrays"] == {
            "a": [1, 2, 3, 4], "b": [10, 20, 30, 40],
        }

    def test_malformed_call_is_rejected_before_compiling(self, service):
        # The source does not parse, so a ParseError would mean the
        # call was checked only after compile work began.
        server = service()
        client = client_for(server)
        cases = [
            ([["a", 2]], ["a", 4], "want [name, width, values]"),
            ([["a", 2, [1, "x"]]], ["a", 2], "'x' is not an integer"),
            ([["a", 2, [1.5]]], ["a", 1], "1.5 is not an integer"),
            ([["a", 2, [1, 2]]], [None], "None is neither an integer"),
            ([["a", 2, [1, 2]], ["a", 2, [3, 4]]], ["a", 2],
             "array 'a' is staged twice"),
            ([], ["b", 1], "argument 'b' is neither an integer"),
            ([["a", 2, [1, 2]]], [["a", 0, 1], 2],
             "argument ['a', 0, 1] is neither an integer"),
            ([["a", 2, [1, 2]]], [["b", 0], 2], "no array named 'b'"),
            ([["a", 2, [1, 2]]], [["a", "0"], 2],
             "offset '0' is not inside"),
            ([["a", 2, [1, 2]]], [["a", -2], 2], "offset -2 is not inside"),
            ([["a", 2, [1, 2]]], [["a", 4], 2],
             "offset 4 is not inside the 4 bytes of 'a'"),
            # A well-formed call with a bad simulator option: the
            # optional fourth item holds the request's extra fields.
            ([["a", 2, [1, 2]]], ["a", 2],
             "unknown sim_backend 'bogus'", {"sim_backend": "bogus"}),
            ([["a", 2, [1, 2]]], ["a", 2],
             "bad max_steps 'abc': want an integer >= 1",
             {"max_steps": "abc"}),
            ([["a", 2, [1, 2]]], ["a", 2], "bad max_steps 0",
             {"max_steps": 0}),
            ([["a", 2, [1, 2]]], ["a", 2], "bad max_steps 2.5",
             {"max_steps": 2.5}),
            ([["a", 2, [1, 2]]], ["a", 2],
             "bad dump 'x': want an integer >= 0", {"dump": "x"}),
        ]
        for arrays, args, complaint, *extra in cases:
            response = client.request(
                "simulate", source="int f( {", entry="f",
                arrays=arrays, args=args, **(extra[0] if extra else {}),
            )
            assert response["status"] == "error", response
            assert response["error_type"] == "ReproError", response
            assert response["classification"] == "fatal", response
            assert response["retryable"] is False
            assert complaint in response["error"], response
        assert server.cache.stats()["misses"] == 0  # no compile lookup

    def test_bench_size_below_one_is_rejected_before_any_work(
        self, service
    ):
        server = service()
        client = client_for(server)
        cases = [
            ({"size": size}, f"bad size {size!r}")
            for size in (0, -4, "16", True, 2.5)
        ] + [
            ({"program": "nosuch"}, "unknown benchmark 'nosuch'"),
            ({"variant": "naive"}, "unknown variant 'naive'"),
            ({"max_steps": "abc"}, "bad max_steps 'abc'"),
            ({"sim_backend": "bogus"}, "unknown sim_backend 'bogus'"),
        ]
        for fields, complaint in cases:
            response = client.request(
                "bench", **{"program": "image_add", **fields},
            )
            assert response["status"] == "error", response
            assert response["error_type"] == "ReproError", response
            assert response["classification"] == "fatal", response
            assert response["retryable"] is False
            assert complaint in response["error"], response
        assert server.cache.stats()["misses"] == 0  # no compile lookup

    def test_parse_error_is_fatal_not_retryable(self, service):
        server = service()
        client = client_for(server)
        response = client.compile("int f( {")
        assert response["status"] == "error"
        assert response["error_type"] == "ParseError"
        assert response["classification"] == "fatal"
        assert response["retryable"] is False
        assert client.attempts_made == 1  # no pointless retries

    def test_bad_octal_literal_is_a_fatal_parse_error(self, service):
        server = service()
        client = client_for(server)
        response = client.compile("int f(){ return 08; }")
        assert response["status"] == "error", response
        assert response["error_type"] == "ParseError", response
        assert response["classification"] == "fatal", response
        assert "1:17: bad octal literal '08'" in response["error"]
        assert client.attempts_made == 1

    def test_unknown_disabled_pass_is_an_error(self, service):
        server = service()
        client = client_for(server)
        response = client.compile(
            ADD_SRC, overrides={"disabled_passes": ["clenaup"]}
        )
        assert response["status"] == "error"
        assert response["error_type"] == "ReproError"
        assert "clenaup" in response["error"]
        assert response["retryable"] is False

    def test_unknown_override_is_an_error(self, service):
        server = service()
        client = client_for(server)
        response = client.compile(ADD_SRC, overrides={"verify": False})
        assert response["status"] == "error"
        assert "bad overrides" in response["error"]
        assert response["retryable"] is False

    def test_unknown_op_rejected(self, service):
        server = service()
        client = client_for(server)
        response = client.request("ping")  # sanity: ping works
        assert response["status"] == "ok"
        raw = client._attempt({"id": 9, "op": "explode"})
        assert raw["status"] == "error" and "unknown op" in raw["error"]

    def test_status_payload_shape(self, service):
        server = service(workers=3, queue_limit=7)
        client = client_for(server)
        client.compile(ADD_SRC)
        status = client.status()
        info = status["server"]
        assert info["workers"] == 3
        assert info["queue_limit"] == 7
        assert info["completed"] >= 1
        assert info["ok"] >= 1
        assert status["cache"]["entries"] >= 1
        assert isinstance(status["breakers"], dict)

    def test_graceful_shutdown_drains_accepted_work(self, service):
        server = service(workers=1)
        client = client_for(server)
        results = {}

        def slow():
            results["slow"] = client_for(server, retries=0)._attempt({
                "id": 1, "op": "compile", "source": DOT_SRC,
                "config": "coalesce-all",
                "faults": "coalesce=sleep:0.4",
            })

        def queued():
            results["queued"] = client_for(server, retries=0)._attempt({
                "id": 2, "op": "compile", "source": ADD_SRC,
            })

        threads = [threading.Thread(target=slow)]
        threads[0].start()
        time.sleep(0.15)  # the slow request is now in the worker
        threads.append(threading.Thread(target=queued))
        threads[1].start()
        time.sleep(0.05)  # ...and the fast one is in the queue
        assert client.shutdown_server()["status"] == "ok"
        for thread in threads:
            thread.join(timeout=15)
        # Both accepted requests were answered before the workers exited.
        assert results["slow"]["status"] == "ok"
        assert results["queued"]["status"] == "ok"
        assert server._stopped.wait(timeout=15)
        assert not server.running
        assert not os.path.exists(server.socket_path)
        # New connections are refused once the socket is gone.
        assert not client_for(server, retries=0).ping()


class TestDedupAndFrontEnd:
    def test_concurrent_cold_compiles_share_one_lease(
        self, service, monkeypatch
    ):
        import repro.bench.cache as cache_module

        compile_for_real = cache_module.compile_minic

        def slow_compile(*args, **kwargs):
            time.sleep(0.3)  # hold the lease while the rival arrives
            return compile_for_real(*args, **kwargs)

        monkeypatch.setattr(cache_module, "compile_minic", slow_compile)
        server = service(workers=2)
        barrier = threading.Barrier(2)
        responses = []

        def send():
            client = client_for(server)
            barrier.wait(timeout=10)
            responses.append(client.compile(DOT_SRC, config="coalesce-all"))

        threads = [threading.Thread(target=send) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert [r["status"] for r in responses] == ["ok", "ok"]
        assert server.cache.counters()["compiles"] == 1
        assert client_for(server).status()["single_flight_shared"] == 1

    def test_request_disk_plan_ends_with_its_request(
        self, service, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        server = service()
        assert server.faults is None
        client = client_for(server)
        first = client.compile(
            ADD_SRC, faults="artifact:read=corrupt-artifact"
        )
        assert first["status"] == "ok"
        fired = [e for e in server.cache.events() if e["ev"] == "fault"]
        assert len(fired) == 1  # the plan acted on its own request
        # Three clean requests, each on a key whose first read the plan
        # would corrupt if it were still drawn from.
        for machine in ("m88100", "m68030", "alpha"):
            source = DOT_SRC if machine == "alpha" else ADD_SRC
            assert client.compile(source, machine=machine)["status"] == "ok"
        assert [
            e for e in server.cache.events() if e["ev"] == "fault"
        ] == fired

    def test_server_disk_plan_counts_across_requests(self, service):
        # A cold compile reads its key twice (the miss, then the
        # re-check under the lease), so the third read of the key is
        # the second request's: only a plan that outlives requests
        # reaches it.
        server = service(
            faults=FaultPlan.parse("artifact:read=corrupt-artifact@3")
        )
        client = client_for(server)
        for _ in range(2):
            assert client.compile(ADD_SRC)["status"] == "ok"
        events = [e["ev"] for e in server.cache.events()]
        assert events.count("fault") == 1
        assert server.cache.counters()["corruption_drops"] == 1
        assert server.cache.counters()["compiles"] == 2

    def test_closed_reader_ends_the_connection_like_eof(self, tmp_path):
        import socket

        from repro.service.server import _Connection

        server = CompileServer(
            socket_path=str(tmp_path / "unused.sock"),
            cache=ArtifactStore(tmp_path / "cache"),
        )
        ours, theirs = socket.socketpair()
        try:
            conn = _Connection(ours)
            conn.rfile.close()  # shutdown() got there between two reads
            server._connection_loop(conn)  # returns; never raises
        finally:
            theirs.close()

    def test_lease_ttl_without_cache_dir_sets_both_waits(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        for ttl in (30.0, 0.2):
            server = CompileServer(
                socket_path=str(tmp_path / "unused.sock"), lease_ttl=ttl,
            )
            store = server.cache
            fresh = ArtifactStore(tmp_path / "fresh", ttl=ttl)
            assert store.ttl == ttl
            assert (store.wait_timeout, store.poll_interval) == (
                fresh.wait_timeout, fresh.poll_interval
            )
        assert ArtifactStore(tmp_path / "long", ttl=30.0).wait_timeout \
            == 120.0


class TestBenchOp:
    """A ``bench`` request is a ``simulate`` of its cell's recipe."""

    def test_bench_honours_request_faults(self, service):
        server = service()
        response = client_for(server).bench(
            "dotproduct", size=4, faults="coalesce=raise",
        )
        assert response["status"] == "degraded", response
        assert "coalesce" in response["recovered_passes"], response
        assert response["output_ok"] is True, response

    def test_bench_honours_max_steps(self, service):
        server = service()
        response = client_for(server, retries=0)._attempt({
            "id": 1, "op": "bench", "program": "dotproduct", "size": 4,
            "max_steps": 10,
        })
        assert response["status"] == "error", response
        assert response["error_type"] == "SimulationTimeout", response
        assert "10-step limit" in response["error"], response

    def test_bench_compiles_into_the_server_store(
        self, service, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        server = service()
        response = client_for(server).bench("dotproduct", size=4)
        assert response["status"] == "ok", response
        assert response["cache_hit"] is False
        assert server.cache.stats()["misses"] == 1
        assert not (tmp_path / "env-cache").exists()
        # Routed with the requests of its config, to the same breaker.
        assert response["config"] == "coalesce-all"
        assert list(server.breakers.snapshot()) == ["alpha/coalesce-all"]

    @pytest.mark.parametrize("machine, variant", [
        ("alpha", "coalesce-all"), ("m68030", "coalesce-loads"),
    ])
    def test_bench_answer_is_the_harness_record(
        self, service, tmp_path, monkeypatch, machine, variant
    ):
        from dataclasses import fields

        from repro.bench.harness import run_benchmark
        from repro.bench.runner import HOST_METRIC_FIELDS
        from repro.pipeline import Measurement

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        server = service()
        response = client_for(server).bench(
            "image_add", machine=machine, variant=variant, size=8,
        )
        assert response["status"] == "ok", response
        record = run_benchmark("image_add", machine, variant, 8, 8)
        simulated = [
            f.name for f in fields(Measurement)
            if f.name not in HOST_METRIC_FIELDS
        ]
        assert len(simulated) == 16
        assert {f: response[f] for f in simulated} == {
            f: getattr(record, f) for f in simulated
        }
        assert response["output_ok"] is True
        assert (response["program"], response["machine"],
                response["variant"]) == ("image_add", machine, variant)


class TestLoadShedding:
    def test_full_queue_rejects_and_retry_succeeds(self, service):
        server = service(workers=1, queue_limit=1)
        slow_request = {
            "id": 1, "op": "compile", "source": DOT_SRC,
            "config": "coalesce-all", "faults": "coalesce=sleep:0.8",
        }
        threads = []
        results = []

        def run(message):
            results.append(
                client_for(server, retries=0)._attempt(message)
            )

        threads.append(
            threading.Thread(target=run, args=(slow_request,))
        )
        threads[0].start()
        time.sleep(0.2)  # worker is now stalled in the sleep fault
        threads.append(threading.Thread(target=run, args=(
            {"id": 2, "op": "compile", "source": ADD_SRC},
        )))
        threads[1].start()
        time.sleep(0.1)  # queue now holds request 2
        shed = client_for(server, retries=0)._attempt(
            {"id": 3, "op": "compile", "source": ADD_SRC}
        )
        assert shed["status"] == "rejected"
        assert shed["retryable"] is True
        # With retries, the same request rides out the congestion.
        retrier = client_for(server, retries=10, backoff_base=0.05)
        response = retrier.compile(ADD_SRC)
        assert response["status"] == "ok"
        for thread in threads:
            thread.join(timeout=15)
        assert all(r["status"] == "ok" for r in results)
        assert server.stats.snapshot()["rejected"] >= 1

    def test_retries_exhausted_raises_service_unavailable(self, tmp_path):
        client = ServiceClient(
            str(tmp_path / "nobody-home.sock"),
            retries=2, backoff_base=0.001,
        )
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.request("ping")
        assert excinfo.value.attempts == 3

    def test_backoff_is_jittered_and_capped(self):
        import random

        client = ServiceClient(
            "/tmp/unused.sock", backoff_base=0.1, backoff_cap=0.5,
            rng=random.Random(42),
        )
        delays = [client._backoff(attempt) for attempt in range(8)]
        assert all(0 <= d <= 0.5 for d in delays)
        assert len(set(delays)) > 1  # jittered, not a fixed schedule

    def budgeted_client(self, tmp_path, **kwargs):
        """A client against a dead socket with a fake clock advanced
        only by its own sleeps, so the retry schedule is observable."""
        import random

        clock = FakeClock()
        sleeps = []

        def fake_sleep(pause):
            sleeps.append(pause)
            clock.now += pause

        kwargs.setdefault("retries", 10)
        kwargs.setdefault("backoff_base", 0.4)
        kwargs.setdefault("backoff_cap", 5.0)
        client = ServiceClient(
            str(tmp_path / "nobody-home.sock"),
            rng=random.Random(0), sleep=fake_sleep, clock=clock,
            **kwargs,
        )
        return client, sleeps

    def test_backoff_never_sleeps_past_the_deadline(self, tmp_path):
        # A request with a 1s budget must not schedule sleeps that
        # overshoot it: the server would answer 'timeout' anyway, and
        # the caller has long stopped waiting.
        client, sleeps = self.budgeted_client(tmp_path)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.request("compile", source=ADD_SRC, deadline=1.0)
        assert "deadline of 1s exhausted" in str(excinfo.value)
        assert sum(sleeps) <= 1.0 + 1e-9
        # The budget, not the retry count, ended the loop.
        assert excinfo.value.attempts < 11

    def test_final_sleep_is_clamped_to_the_remaining_budget(self, tmp_path):
        client, sleeps = self.budgeted_client(
            tmp_path, backoff_base=0.75, backoff_cap=10.0,
        )
        with pytest.raises(ServiceUnavailable):
            client.request("compile", source=ADD_SRC, deadline=1.0)
        budget_left = 1.0
        for pause in sleeps:
            assert pause <= budget_left + 1e-9
            budget_left -= pause

    def test_unbudgeted_requests_keep_the_full_retry_schedule(self, tmp_path):
        client, sleeps = self.budgeted_client(tmp_path, retries=4)
        with pytest.raises(ServiceUnavailable) as excinfo:
            client.request("ping")  # no deadline field
        assert excinfo.value.attempts == 5
        assert len(sleeps) == 4  # one sleep between each attempt pair


class TestDeadlines:
    def test_deadline_kills_stalled_compile_within_2x(self, service):
        server = service(workers=1)
        started = time.monotonic()
        response = client_for(server, retries=0)._attempt({
            "id": 1, "op": "compile", "source": DOT_SRC,
            "config": "coalesce-all",
            "faults": "coalesce=sleep:30", "deadline": 0.3,
        })
        elapsed = time.monotonic() - started
        assert response["status"] == "timeout"
        assert response["retryable"] is True
        assert response["deadline"] == 0.3
        assert elapsed < 0.6  # killed within 2x the deadline
        assert server.stats.snapshot()["timeouts"] == 1
        # The worker survived: the next request is served normally.
        assert client_for(server).compile(ADD_SRC)["status"] == "ok"

    @pytest.mark.parametrize("request_fields", [
        {"op": "compile", "source": ADD_SRC},
        {"op": "simulate", "source": ADD_SRC, "entry": "add",
         "args": [1, 2]},
        {"op": "bench", "program": "dotproduct", "size": 4},
    ], ids=["compile", "simulate", "bench"])
    def test_deadline_covers_queue_wait(self, service, request_fields):
        server = service(workers=1)
        blocker = threading.Thread(
            target=lambda: client_for(server, retries=0)._attempt({
                "id": 1, "op": "compile", "source": DOT_SRC,
                "config": "coalesce-all", "faults": "coalesce=sleep:0.6",
            })
        )
        blocker.start()
        time.sleep(0.15)
        # This request spends ~0.45s queued behind the blocker — more
        # than its whole 0.2s budget, so it times out at dequeue.
        response = client_for(server, retries=0)._attempt({
            "id": 2, "deadline": 0.2, **request_fields,
        })
        assert response["status"] == "timeout", response
        blocker.join(timeout=15)

    def test_default_deadline_applies_when_request_sets_none(self, service):
        server = service(workers=1, default_deadline=0.25)
        response = client_for(server, retries=0)._attempt({
            "id": 1, "op": "compile", "source": DOT_SRC,
            "config": "coalesce-all", "faults": "coalesce=sleep:30",
        })
        assert response["status"] == "timeout"
        assert response["deadline"] == 0.25

    def test_deadline_kills_runaway_simulation(self, service):
        server = service(workers=1)
        runaway = """
        int spin(int n) {
            int i, s;
            s = 0;
            for (i = 0; i != 2; i = i) { s = s + 1; }
            return s;
        }
        """
        started = time.monotonic()
        response = client_for(server, retries=0)._attempt({
            "id": 1, "op": "simulate", "source": runaway,
            "entry": "spin", "args": [1], "deadline": 0.4,
        })
        elapsed = time.monotonic() - started
        assert response["status"] == "timeout"
        assert elapsed < 2.0


class TestDegradation:
    FAULTS = "coalesce=raise@1,coalesce=raise@2,coalesce=raise@3"

    def test_breaker_opens_serves_degraded_and_recovers(self, service):
        server = service(
            workers=1,
            faults=FaultPlan.parse(self.FAULTS),
            breaker_threshold=3,
            breaker_cooldown=0.4,
        )
        client = client_for(server)

        # Three consecutive injected coalesce crashes: each is recovered
        # in-pipeline (fallback), served degraded, and counted.
        for arrival in range(3):
            response = client.compile(DOT_SRC, config="coalesce-all")
            assert response["status"] == "degraded"
            assert response["recovered_passes"] == ["coalesce"]
        # The circuit is now open: served degraded *pre-emptively*, with
        # the bad pass disabled up front (disabled_passes nonempty) and
        # the fault site never reached.
        opened = client.compile(DOT_SRC, config="coalesce-all")
        assert opened["status"] == "degraded"
        assert opened["breaker"] == "open"
        assert "coalesce" in opened["disabled_passes"]
        assert opened["pass_failures"] == []

        snap = server.breakers.snapshot()["alpha/coalesce-all"]
        assert snap["state"] == "open"
        assert snap["times_opened"] == 1

        # After the cooldown the half-open probe runs the full pipeline;
        # the fault plan is exhausted, so it succeeds and closes.
        time.sleep(0.45)
        probe = client.compile(DOT_SRC, config="coalesce-all")
        assert probe["status"] == "ok"
        assert probe["breaker"] == "closed"
        assert probe["coalesced_loops"] >= 1
        snap = server.breakers.snapshot()["alpha/coalesce-all"]
        assert snap["state"] == "closed"
        assert snap["times_closed"] == 1

    def test_degraded_simulate_matches_unoptimized_baseline(self, service):
        baseline = compile_minic(DOT_SRC, "alpha", "naive")
        sim = baseline.simulator()
        addresses = []
        for name, width, values in DOT_ARRAYS:
            address = sim.alloc_array(name, size=len(values) * width)
            sim.write_words(address, values, width)
            addresses.append(address)
        expected = sim.call("dot", *addresses, DOT_N)

        server = service(
            workers=1,
            faults=FaultPlan.parse("coalesce=raise"),  # every arrival
            breaker_threshold=1,
        )
        client = client_for(server)
        response = client.simulate(
            DOT_SRC, "dot", ["a", "b", DOT_N],
            arrays=DOT_ARRAYS, config="coalesce-all",
        )
        assert response["status"] == "degraded"
        assert response["result"] == expected == DOT_EXPECTED

    def test_other_configs_unaffected_by_open_breaker(self, service):
        server = service(
            workers=1,
            faults=FaultPlan.parse("coalesce=raise"),
            breaker_threshold=1,
        )
        client = client_for(server)
        bad = client.compile(DOT_SRC, config="coalesce-all")
        assert bad["status"] == "degraded"
        # vpo never runs coalesce; its breaker is separate and closed.
        good = client.compile(DOT_SRC, config="vpo")
        assert good["status"] == "ok"
        assert good["breaker"] == "closed"


class TestMixedWorkloadAcceptance:
    """The ISSUE's end-to-end robustness bar: a 50-request mixed
    workload against a fault-injected server completes with zero
    dropped requests, every answer either correct-or-flagged-degraded,
    and the circuit breaker observed opening and re-closing."""

    def test_fifty_requests_zero_dropped(self, service):
        server = service(
            workers=3,
            queue_limit=6,   # small enough that shedding really happens
            faults=FaultPlan.parse(
                "coalesce=raise@1,coalesce=raise@2,coalesce=raise@3"
            ),
            breaker_threshold=3,
            breaker_cooldown=0.3,
        )
        lock = threading.Lock()
        responses = []

        def submit(index):
            client = client_for(server, retries=10, backoff_base=0.02)
            kind = index % 3
            if kind == 0:
                response = client.compile(DOT_SRC, config="coalesce-all")
            elif kind == 1:
                response = client.simulate(
                    DOT_SRC, "dot", ["a", "b", DOT_N],
                    arrays=DOT_ARRAYS, config="coalesce-all",
                )
            else:
                response = client.compile(ADD_SRC, config="vpo")
            with lock:
                responses.append((index, kind, response))

        threads = [
            threading.Thread(target=submit, args=(index,))
            for index in range(50)
        ]
        for thread in threads:
            thread.start()
            time.sleep(0.015)  # a steady arrival stream, not one burst
        for thread in threads:
            thread.join(timeout=120)

        # Zero dropped: every request got a served answer.
        assert len(responses) == 50
        for index, kind, response in responses:
            assert response["status"] in ("ok", "degraded"), (
                index, response
            )
            if kind == 1:  # every simulate — degraded or not — is correct
                assert response["result"] == DOT_EXPECTED, (index, response)

        # The injected crashes really degraded some answers...
        statuses = [r["status"] for _, _, r in responses]
        assert statuses.count("degraded") >= 3
        # ...and the breaker did its full open -> half-open -> closed arc.
        snap = server.breakers.snapshot()["alpha/coalesce-all"]
        assert snap["times_opened"] >= 1
        assert snap["times_closed"] >= 1
        assert snap["state"] == "closed"
        # Nothing fell on the floor server-side either.
        counts = server.stats.snapshot()
        assert counts["completed"] == counts["ok"] + counts["degraded"]
        assert counts["in_flight"] == 0


# -- client helpers ----------------------------------------------------------
class TestClientHelpers:
    def test_parse_array_specs(self):
        assert parse_array_specs(["a:2:1,2,3", "b:4:0x10"]) == [
            ("a", 2, [1, 2, 3]),
            ("b", 4, [16]),
        ]

    def test_parse_array_specs_rejects_garbage(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            parse_array_specs(["missing-colons"])

    def test_wait_until_ready_times_out(self, tmp_path):
        assert not wait_until_ready(
            str(tmp_path / "never.sock"), timeout=0.2, interval=0.05
        )


# -- CLI ---------------------------------------------------------------------
class TestServiceCLI:
    @pytest.fixture
    def served(self, tmp_path, monkeypatch):
        """An in-process server plus a ``main()``-level CLI against it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        server = CompileServer(
            socket_path=str(tmp_path / "cli.sock"),
            cache=ArtifactStore(tmp_path / "cli-cache"),
        )
        server.start()
        assert wait_until_ready(server.socket_path, timeout=10.0)
        yield server
        server.shutdown()

    def test_submit_compile_and_simulate(self, served, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "dot.c"
        source.write_text(DOT_SRC)
        assert main([
            "submit", str(source), "--socket", served.socket_path,
            "--config", "coalesce-all",
        ]) == 0
        out = capsys.readouterr().out
        assert "status: ok" in out

        assert main([
            "submit", str(source), "--socket", served.socket_path,
            "--config", "coalesce-all", "--entry", "dot",
            "--array", "a:2:3,1,4,1,5,9,2,6",
            "--array", "b:2:1,1,1,1,1,1,1,1", "--args", "a", "b", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert f"result: {DOT_EXPECTED}" in out

    def test_run_and_submit_parse_call_args_alike(
        self, served, tmp_path, capsys
    ):
        # Hex and negative integers are integers to both commands; a
        # token that names a staged array is that array.
        from repro.__main__ import main

        source = tmp_path / "kernels.c"
        source.write_text(DOT_SRC + ADD_SRC)
        calls = [
            (["--entry", "dot", "--array", "a:2:3,1,4,1,5,9,2,6",
              "--array", "b:2:1,1,1,1,1,1,1,1", "--args", "a", "b", "0x4"],
             "result: 9"),
            (["--entry", "add", "--args", "-3", "0x10"], "result: 13"),
        ]
        for call, expected in calls:
            assert main(["run", str(source), *call]) == 0
            assert expected in capsys.readouterr().out
            assert main([
                "submit", str(source), "--socket", served.socket_path,
                *call,
            ]) == 0
            assert expected in capsys.readouterr().out

    def test_submit_json_output(self, served, tmp_path, capsys):
        import json

        from repro.__main__ import main

        source = tmp_path / "add.c"
        source.write_text(ADD_SRC)
        assert main([
            "submit", str(source), "--socket", served.socket_path,
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["machine"] == "alpha"

    def test_submit_parse_error_exits_nonzero(self, served, tmp_path,
                                              capsys):
        from repro.__main__ import main

        source = tmp_path / "bad.c"
        source.write_text("int f( {")
        assert main([
            "submit", str(source), "--socket", served.socket_path,
        ]) == 1
        assert "status: error" in capsys.readouterr().out

    def test_submit_unreachable_exits_3(self, tmp_path, capsys):
        from repro.__main__ import main

        source = tmp_path / "add.c"
        source.write_text(ADD_SRC)
        assert main([
            "submit", str(source),
            "--socket", str(tmp_path / "nobody.sock"),
            "--retries", "1", "--backoff-base", "0.001",
        ]) == 3

    #: What ``cache --stats --json`` and a status's ``cache`` carry:
    #: the shape, this process's tally and the journal's counters.
    STATS_KEYS = {
        "directory", "entries", "bytes", "max_bytes", "hits", "misses",
        "evictions", "lease_ttl", "publishes", "compiles", "log_hits",
        "dedup_hits", "steals", "fenced_publishes", "corruption_drops",
        "disk_errors", "fallbacks", "torn_publishes", "faults_injected",
    }

    def test_status_and_cache_stats_keep_the_keys_readers_use(
        self, served, tmp_path, capsys
    ):
        # CI and the service benchmark read these by name.
        from repro.__main__ import main

        source = tmp_path / "add.c"
        source.write_text(ADD_SRC)
        for _ in range(2):  # one compile, one hit
            assert main([
                "submit", str(source), "--socket", served.socket_path,
            ]) == 0
        capsys.readouterr()
        assert main([
            "status", "--socket", served.socket_path, "--json",
        ]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["single_flight_shared"] == 0
        assert status["server"]["rejected"] == 0
        assert status["server"]["completed"] == 2
        assert set(status["cache"]) == self.STATS_KEYS
        assert status["cache"]["publishes"] == 1
        assert (status["cache"]["hits"], status["cache"]["misses"]) == (1, 1)

        assert main([
            "cache", "--dir", str(served.cache.directory), "--stats",
            "--json",
        ]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert set(stats) == self.STATS_KEYS | {"enabled"}
        assert (stats["dedup_hits"], stats["publishes"]) == (0, 1)
        assert (stats["corruption_drops"], stats["steals"]) == (0, 0)

    def test_status_and_shutdown(self, served, capsys):
        import json

        from repro.__main__ import main

        assert main([
            "status", "--socket", served.socket_path, "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "ok"
        assert payload["server"]["workers"] == served.workers

        assert main([
            "status", "--socket", served.socket_path, "--shutdown",
        ]) == 0
        assert "shutdown: ok" in capsys.readouterr().out
        served._stopped.wait(timeout=15)
        assert not served.running
