"""``python -m repro serve --fleet N`` — the supervised compile fleet.

One :class:`FleetSupervisor` process owns the public Unix socket and a
fleet of worker *processes* (each a full threaded
:class:`~repro.service.server.CompileServer` on a private socket)::

    clients ──▶ fleet socket ──▶ FleetSupervisor ──▶ worker-0.sock ──▶ W0
                                     │  (shard by       worker-1.sock ──▶ W1
                                     │   machine/config)     ...
                                     └── monitor thread: heartbeats,
                                         restart-with-backoff, hang SIGKILL

Why processes: a thread that segfaults, deadlocks, or is SIGKILLed
takes its whole process with it — the one failure mode PR 4's threaded
server cannot degrade through.  The fleet applies the paper's Fig. 5
discipline at the process boundary:

* **Sharding** — requests route by hash of ``(machine, config)``, so
  all the evidence a circuit breaker accumulates for one key lives in
  exactly one worker.  Killing worker 2 cannot touch the breaker state
  worker 1 holds for its shards.
* **Crash recovery** — a request whose worker dies mid-flight is
  requeued *exactly once* to the restarted worker, with its remaining
  deadline budget (not a fresh one) propagated across the process
  boundary.  Connection failures *before* the request was sent are not
  crashes — the supervisor just waits out the restart.
* **Quarantine** — a request that kills its worker twice is the prime
  suspect, not the worker.  It is answered directly by the supervisor:
  a degraded local compile (optimizer off, recovery on) plus a
  ``repro_crash_*`` quarantine bundle for offline diagnosis — degraded,
  not dead, and never a third worker funeral.
* **Hang recovery** — workers answer heartbeat pings inline in their
  connection threads (never queued behind compiles), so a wedged
  process (SIGSTOP, runaway loop) goes quiet and the monitor SIGKILLs
  it; the forwarding side observes the severed connection and takes the
  requeue path above.

The socket side (accept, connection threads, ``ping``/``status``/
``shutdown``) is :class:`~repro.service.server.FrontEnd`, the same code
the single-process server runs; the supervisor adds only what differs:
an in-flight cap, and forwarding instead of a queue.

Fleet-level chaos (``python -m repro chaos --fleet``) drives a mixed
workload while ``kill``/``hang``/``slowstart`` faults
(:data:`~repro.resilience.faults.FLEET_FAULT_KINDS`) SIGKILL and wedge
workers mid-compile, asserting the zero-lost-requests contract end to
end; the harness lives in :mod:`repro.service.chaos`.
"""

from __future__ import annotations

import hashlib
import os
import signal
import socket
import tempfile
import threading
import time
from typing import List, Optional, Tuple

from repro.errors import QuarantinedRequest
from repro.resilience.faults import FaultPlan
from repro.service import protocol
from repro.service.server import CompileServer, FrontEnd, _Connection, _Stats
from repro.service.supervisor import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_HEARTBEAT_TIMEOUT,
    WORKER_BACKOFF,
    WORKER_STOPPED,
    WORKER_UP,
    Worker,
    worker_command,
)

DEFAULT_FLEET_WORKERS = 4
#: A request that crashes its worker may be requeued this many times
#: before quarantine ("exactly once" is the whole point).
REQUEUE_LIMIT = 1
#: Recv budget for unbudgeted requests; budgeted ones use 2x remaining.
FORWARD_TIMEOUT = 120.0
#: Connect budget for one forward attempt to a worker socket.
CONNECT_TIMEOUT = 1.0
#: Deadline the quarantine fallback compile runs under when the
#: original request carried none.
QUARANTINE_DEADLINE = 30.0

#: The ops the fleet forwards to workers (everything else is answered
#: by the supervisor itself).
FORWARDED_OPS = ("compile", "simulate", "bench")


def shard_key(request: dict) -> str:
    """The routing key of one request: ``machine/config``, the key of
    the breaker it reports to (a bench request's config is its variant)."""
    machine = str(request.get("machine", "alpha"))
    if request.get("op") == "bench":
        return f"{machine}/{request.get('variant', 'coalesce-all')}"
    return f"{machine}/{request.get('config', 'vpo')}"


def shard_index(request: dict, workers: int) -> int:
    """Worker index for one request in a ``workers``-wide fleet.

    sha256, not ``hash()``: stable across processes and
    ``PYTHONHASHSEED``, so a restarted supervisor routes the same keys
    to the same slots.
    """
    digest = hashlib.sha256(shard_key(request).encode()).digest()
    return int.from_bytes(digest[:4], "big") % max(1, workers)


class _FleetStats(_Stats):
    FIELDS = _Stats.FIELDS + (
        "forwarded", "requeued", "quarantined", "hang_kills",
    )


class FleetSupervisor(FrontEnd):
    """The fleet front end: accept, shard, forward, recover.

    Parameters mirror :class:`CompileServer` where they exist there;
    the worker-facing ones (``worker_threads``, ``queue_limit``,
    breaker knobs, ``crash_dir``, ``worker_inject``) are passed through
    to each spawned worker's command line.  At most ``workers x
    queue_limit`` requests are in flight; more are answered
    ``rejected``.
    """

    THREAD_PREFIX = "fleet"
    DRAINING = "fleet is draining"
    PONG = {"fleet": True}

    def __init__(
        self,
        socket_path: Optional[str] = None,
        workers: int = DEFAULT_FLEET_WORKERS,
        worker_threads: int = 2,
        queue_limit: int = 16,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: Optional[float] = None,
        default_deadline: Optional[float] = None,
        crash_dir: Optional[str] = None,
        worker_inject: str = "",
        fleet_faults: Optional[FaultPlan] = None,
        run_dir: Optional[str] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        cache_dir: Optional[str] = None,
        lease_ttl: Optional[float] = None,
    ):
        super().__init__(socket_path, _FleetStats())
        self.run_dir = run_dir or tempfile.mkdtemp(prefix="repro-fleet-")
        os.makedirs(self.run_dir, exist_ok=True)
        self.default_deadline = default_deadline
        self.crash_dir = crash_dir or os.environ.get("REPRO_CRASH_DIR")
        # The shared artifact cache: explicit flags (not environment
        # plumbing) so every life of every worker slot lands on the
        # same store with the same lease TTL — the cross-process dedup
        # guarantees depend on that.
        self.cache_dir = cache_dir
        self.lease_ttl = lease_ttl
        self.fleet_faults = fleet_faults
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_in_flight = max(1, workers) * max(1, queue_limit)
        self.supervisor_log = os.path.join(self.run_dir, "supervisor.log")
        self._log_lock = threading.Lock()
        self._workers: List[Worker] = []
        for index in range(max(1, workers)):
            wsock = os.path.join(self.run_dir, f"worker-{index}.sock")
            wlog = os.path.join(self.run_dir, f"worker-{index}.log")
            self._workers.append(Worker(
                index=index,
                socket_path=wsock,
                log_path=wlog,
                command=worker_command(
                    wsock, index,
                    threads=worker_threads,
                    queue_limit=queue_limit,
                    breaker_threshold=breaker_threshold,
                    breaker_cooldown=breaker_cooldown,
                    crash_dir=self.crash_dir,
                    inject=worker_inject,
                    cache_dir=self.cache_dir,
                    lease_ttl=self.lease_ttl,
                ),
            ))
        self._local: Optional[CompileServer] = None
        self._local_lock = threading.Lock()

    # -- logging ------------------------------------------------------------
    def _log(self, message: str) -> None:
        line = f"[{time.strftime('%H:%M:%S')}] {message}\n"
        with self._log_lock:
            try:
                with open(self.supervisor_log, "a") as handle:
                    handle.write(line)
            except OSError:
                pass

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        super().start()
        self._log(
            f"fleet up on {self.socket_path}: {len(self._workers)} "
            f"workers, run dir {self.run_dir}"
        )
        for worker in self._workers:
            self._spawn(worker)
        self._start_thread(self._monitor_loop, "fleet-monitor")

    def _drain(self) -> None:
        """Wait out in-flight forwards, then stop the workers."""
        self._log("fleet shutting down")
        drain_until = time.monotonic() + 30.0
        while (
            self.stats.snapshot()["in_flight"] > 0
            and time.monotonic() < drain_until
        ):
            time.sleep(0.05)
        for worker in self._workers:
            worker.stop()
        self._log("fleet stopped")

    # -- worker management --------------------------------------------------
    def _spawn(self, worker: Worker) -> None:
        extra: List[str] = []
        if self.fleet_faults is not None:
            spec = self.fleet_faults.draw(f"worker:{worker.index}:spawn")
            if spec is not None and spec.kind == "slowstart":
                extra = ["--slowstart", str(spec.seconds or 0.5)]
                self._log(
                    f"worker {worker.index}: slowstart fault "
                    f"({spec.seconds or 0.5:g}s bind delay)"
                )
        worker.spawn(extra)
        self._log(
            f"worker {worker.index}: spawned pid {worker.pid} "
            f"(life {worker.restarts + 1})"
        )

    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            for worker in self._workers:
                if self._stopping.is_set():
                    return
                if worker.state == WORKER_STOPPED:
                    continue
                if worker.exited():
                    if worker.state != WORKER_BACKOFF:
                        pause = worker.note_death()
                        self._log(
                            f"worker {worker.index}: died "
                            f"(exit {worker.last_exit}); restart in "
                            f"{pause:.2f}s (streak {worker.streak})"
                        )
                    elif time.monotonic() >= worker.restart_at:
                        self._spawn(worker)
                    continue
                worker.heartbeat(
                    timeout=min(0.5, self.heartbeat_timeout)
                )
                if worker.heartbeat_stale(self.heartbeat_timeout):
                    worker.heartbeat_kills += 1
                    self.stats.bump("hang_kills")
                    self._log(
                        f"worker {worker.index}: heartbeat stale "
                        f"(> {self.heartbeat_timeout:g}s); SIGKILL"
                    )
                    worker.kill(why="heartbeat timeout")
            self._stopping.wait(self.heartbeat_interval)

    def shard_of(self, request: dict) -> int:
        """Worker index serving this request's (machine, config) key."""
        return shard_index(request, len(self._workers))

    # -- work ops -------------------------------------------------------------
    def _accept_work(
        self, conn: _Connection, request: dict, received_at: float
    ) -> None:
        request_id = request.get("id")
        if self.stats.snapshot()["in_flight"] >= self.max_in_flight:
            self.stats.bump("rejected")
            conn.send(protocol.make_response(
                request_id, protocol.STATUS_REJECTED,
                error=(
                    f"fleet has {self.max_in_flight} requests in "
                    "flight; retry with backoff"
                ),
            ))
            return
        self.stats.bump("accepted")
        self.stats.bump("in_flight")
        try:
            response = self._forward(request, received_at)
        except Exception as exc:  # noqa: BLE001 — the fleet must answer
            self.stats.bump("errors")
            response = protocol.make_response(
                request_id, protocol.STATUS_ERROR,
                error=f"{type(exc).__name__}: {exc}", retryable=False,
            )
        finally:
            self.stats.bump("in_flight", -1)
        status = response.get("status")
        if status in protocol.SERVED_STATUSES:
            self.stats.bump("completed")
            self.stats.bump(
                "ok" if status == protocol.STATUS_OK else "degraded"
            )
        elif status == protocol.STATUS_TIMEOUT:
            self.stats.bump("timeouts")
        elif status == protocol.STATUS_REJECTED:
            self.stats.bump("rejected")
        elif status != protocol.STATUS_SHUTTING_DOWN:
            self.stats.bump("errors")
        conn.send(response)

    # -- forwarding with crash recovery -------------------------------------
    def _forward(self, request: dict, received_at: float) -> dict:
        """Route one work request to its shard, surviving worker death.

        The recovery contract: a connection refused *before* the
        request was sent is the worker restarting (wait, no strike); a
        connection severed *after* the send, or a response timeout, is
        a crash strike against this request.  :data:`REQUEUE_LIMIT`
        strikes are forgiven; one more and the request is quarantined.
        """
        request_id = request.get("id")
        shard = self.shard_of(request)
        worker = self._workers[shard]
        budget = request.get("deadline", self.default_deadline)
        budget = float(budget) if budget is not None else None
        strikes = 0
        requeues = 0
        wait_started: Optional[float] = None
        while True:
            now = time.monotonic()
            if budget is not None:
                remaining = budget - (now - received_at)
                if remaining <= 0:
                    return protocol.make_response(
                        request_id, protocol.STATUS_TIMEOUT,
                        error=(
                            f"deadline of {budget:g}s spent before "
                            f"worker {shard} could answer"
                        ),
                        deadline=budget,
                        elapsed=round(now - received_at, 6),
                        worker=shard, requeued=requeues,
                    )
            else:
                remaining = None
            if self._stopping.is_set():
                return protocol.make_response(
                    request_id, protocol.STATUS_SHUTTING_DOWN,
                    error="fleet is draining", worker=shard,
                )
            forwarded = dict(request)
            if remaining is not None:
                # The restarted worker inherits the *remaining* budget,
                # not a fresh one: queue time, crash time, and restart
                # time all spend the same clock the client is watching.
                forwarded["deadline"] = remaining
            recv_timeout = (
                remaining * 2 + 0.5 if remaining is not None
                else FORWARD_TIMEOUT
            )
            outcome, payload = self._attempt(
                worker, forwarded, recv_timeout,
                # Arm fleet faults only once the worker is reachable: a
                # dispatch that never connected consumed no arrival.
                on_connected=lambda: self._arm_dispatch_fault(
                    shard, worker
                ),
            )
            if outcome != "unreachable":
                self.stats.bump("forwarded")
            if outcome == "ok":
                response = payload
                response.setdefault("worker", shard)
                if requeues:
                    response["requeued"] = requeues
                return response
            if outcome == "unreachable":
                # Nothing was delivered: the worker is down or still
                # binding.  Wait out the restart; no strike.
                if wait_started is None:
                    wait_started = time.monotonic()
                waited = time.monotonic() - wait_started
                if (
                    remaining is None
                    and waited > min(30.0, FORWARD_TIMEOUT)
                ):
                    return protocol.make_response(
                        request_id, protocol.STATUS_REJECTED,
                        error=(
                            f"worker {shard} unavailable for "
                            f"{waited:.1f}s; retry with backoff"
                        ),
                        worker=shard,
                    )
                time.sleep(0.05)
                continue
            wait_started = None
            # 'crashed' or 'hung': this request was in the worker when
            # it went dark.
            strikes += 1
            if outcome == "hung":
                self.stats.bump("hang_kills")
                worker.heartbeat_kills += 1
                worker.kill(
                    why=f"request {request_id!r} unanswered past "
                        f"{recv_timeout:.2f}s"
                )
            self._log(
                f"worker {shard}: {outcome} holding request "
                f"{request_id!r} (strike {strikes}: {payload})"
            )
            if strikes > REQUEUE_LIMIT:
                return self._quarantine(
                    request, received_at, shard, strikes, payload
                )
            self.stats.bump("requeued")
            requeues += 1

    def _attempt(
        self,
        worker: Worker,
        message: dict,
        recv_timeout: float,
        on_connected=None,
    ) -> Tuple[str, object]:
        """One forward attempt: ('ok', response) | ('unreachable' |
        'crashed' | 'hung', detail-string).

        Every dispatch opens with a *preflight ping on the same
        connection*.  A SIGKILLed worker's listen backlog can swallow
        one last ``connect()`` in the instant of its teardown — the
        connect succeeds, the send lands in a buffer nobody will ever
        read, and the recv sees a reset that is indistinguishable from
        a mid-request crash.  Only a live process can answer the
        preflight (workers answer pings inline in the connection
        thread), so a severed connection *before* the pong means the
        request was never delivered: no strike.  A sever *after* the
        pong means a live worker took the request down with it.
        """
        try:
            sock = protocol.connect(
                worker.socket_path, timeout=CONNECT_TIMEOUT
            )
        except OSError as exc:
            return "unreachable", f"{type(exc).__name__}: {exc}"
        sent = False
        response = None
        try:
            if worker.exited():
                # Cheap fast-path for the backlog ghost (the preflight
                # below catches the teardown window poll() misses).
                return "unreachable", "worker already dead at connect"
            try:
                sock.settimeout(min(2.0, recv_timeout))
                protocol.send_message(sock, {"id": 0, "op": "ping"})
                rfile = sock.makefile("rb")
                try:
                    pong = protocol.recv_message(rfile)
                    if pong is None or pong.get("status") != "ok":
                        return "unreachable", "no preflight pong"
                    # Delivery is now provable; arm per-dispatch faults
                    # only for dispatches that really happen.
                    if on_connected is not None:
                        on_connected()
                    sock.settimeout(recv_timeout)
                    protocol.send_message(sock, message)
                    sent = True
                    response = protocol.recv_message(rfile)
                finally:
                    rfile.close()
            except socket.timeout:
                if not sent:
                    return "unreachable", "no preflight pong in time"
                return "hung", f"no response within {recv_timeout:.2f}s"
            except (OSError, protocol.ProtocolError) as exc:
                kind = "crashed" if sent else "unreachable"
                return kind, f"{type(exc).__name__}: {exc}"
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if response is None:
            return "crashed", "connection severed before a response"
        return "ok", response

    def _arm_dispatch_fault(self, shard: int, worker: Worker) -> None:
        """Draw the ``worker:<shard>`` site; a kill/hang spec fires on
        a timer thread shortly after this dispatch (mid-compile)."""
        plan = self.fleet_faults
        if plan is None:
            return
        spec = plan.draw(f"worker:{shard}")
        if spec is None or spec.kind not in ("kill", "hang"):
            return
        pid = worker.pid
        if pid is None:
            return
        delay = spec.seconds or 0.05
        sig = signal.SIGKILL if spec.kind == "kill" else signal.SIGSTOP
        self._log(
            f"worker {shard}: arming {spec.kind} fault "
            f"({delay:g}s after dispatch, pid {pid})"
        )

        def fire() -> None:
            time.sleep(delay)
            if worker.pid == pid:  # not already restarted
                try:
                    os.kill(pid, sig)
                except OSError:
                    pass

        threading.Thread(
            target=fire, name=f"fleet-fault-{shard}", daemon=True
        ).start()

    # -- quarantine ---------------------------------------------------------
    def _local_server(self) -> CompileServer:
        """The embedded (never-started) server that answers quarantined
        requests in-process: no socket, no threads, just ``_process``."""
        with self._local_lock:
            if self._local is None:
                self._local = CompileServer(
                    socket_path=os.path.join(
                        self.run_dir, "quarantine.sock"
                    ),
                    workers=1,
                    default_deadline=QUARANTINE_DEADLINE,
                    faults=FaultPlan(),
                    crash_dir=self.crash_dir,
                )
            return self._local

    def _quarantine(
        self,
        request: dict,
        received_at: float,
        shard: int,
        strikes: int,
        detail: object,
    ) -> dict:
        """Answer a worker-killing request without risking a third
        worker: degraded local compile + a quarantine bundle."""
        from repro.resilience.bundle import write_quarantine_bundle

        self.stats.bump("quarantined")
        request_id = request.get("id")
        reason = (
            f"took down worker {shard} {strikes} time(s); last: {detail}"
        )
        self._log(f"quarantine request {request_id!r}: {reason}")
        bundle = ""
        if self.crash_dir and isinstance(request.get("source"), str):
            try:
                bundle = write_quarantine_bundle(
                    request, reason, self.crash_dir, worker=shard,
                )
            except OSError:
                pass

        extra = {
            "quarantined": True,
            "quarantine_reason": reason,
            "worker": shard,
            "requeued": max(0, strikes - 1),
        }
        if bundle:
            extra["bundle"] = bundle

        if request.get("op") not in ("compile", "simulate"):
            exc = QuarantinedRequest(request_id, reason)
            return protocol.make_response(
                request_id, protocol.STATUS_ERROR,
                error=str(exc), error_type="QuarantinedRequest",
                classification="fatal", retryable=False, **extra,
            )

        # The safest request we can make of the pipeline: request
        # faults stripped, optimizer off, recovery on — the Fig. 5
        # safe loop with no fast path left to guard.
        safe = dict(request)
        safe.pop("faults", None)
        overrides = dict(safe.get("overrides") or {})
        overrides.update(
            optimize=False, unroll=False, schedule=False,
            on_pass_failure="skip",
        )
        safe["overrides"] = overrides
        budget = request.get("deadline", self.default_deadline)
        if budget is not None:
            safe["deadline"] = float(budget)
        local = self._local_server()
        try:
            response = local._process(safe, received_at)
        except Exception as exc:  # noqa: BLE001 — answer, always
            failure = QuarantinedRequest(
                request_id, f"{reason}; local fallback failed: {exc}"
            )
            return protocol.make_response(
                request_id, protocol.STATUS_ERROR,
                error=str(failure), error_type="QuarantinedRequest",
                classification="fatal", retryable=False, **extra,
            )
        finally:
            local._tls.deadline = None

        status = response.get("status")
        if status in protocol.SERVED_STATUSES:
            # Served, but never 'ok': the answer is real yet the
            # request is radioactive — callers must see the flag.
            response["status"] = protocol.STATUS_DEGRADED
            response["retryable"] = False
        elif status != protocol.STATUS_TIMEOUT:
            response["error_type"] = "QuarantinedRequest"
            response["retryable"] = False
        response.update(extra)
        return response

    # -- status -------------------------------------------------------------
    def _status_payload(self, scrape: bool = True) -> dict:
        counts = self.stats.snapshot()
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        workers = []
        for worker in self._workers:
            info = worker.describe()
            if scrape and worker.state == WORKER_UP:
                try:
                    scraped = protocol.request_over_socket(
                        worker.socket_path,
                        {"id": 0, "op": "status"},
                        timeout=1.0,
                        connect_timeout=0.5,
                    )
                except (OSError, protocol.ProtocolError):
                    scraped = None
                if scraped is not None and scraped.get("status") == "ok":
                    info["server"] = scraped.get("server")
                    info["breakers"] = scraped.get("breakers")
                    info["latency"] = scraped.get("latency")
                else:
                    info["unreachable"] = True
            workers.append(info)
        cache = None
        if self.cache_dir:
            # All workers share one artifact store, so its journal is
            # the fleet-wide dedup ledger; read it here rather than
            # trusting any single worker's view.
            try:
                from repro.service.artifacts import ArtifactStore
                cache = ArtifactStore(
                    self.cache_dir, ttl=self.lease_ttl
                ).counters()
            except (OSError, ValueError):
                cache = None
        return {
            "fleet": {
                "socket": self.socket_path,
                "pid": os.getpid(),
                "workers": len(self._workers),
                "uptime_seconds": round(uptime, 3),
                "stopping": self._stopping.is_set(),
                "run_dir": self.run_dir,
                "supervisor_log": self.supervisor_log,
                "worker_restarts": sum(
                    w.restarts for w in self._workers
                ),
                "max_in_flight": self.max_in_flight,
                "requeue_limit": REQUEUE_LIMIT,
                "default_deadline": self.default_deadline,
                "faults": (
                    str(self.fleet_faults) if self.fleet_faults else ""
                ),
                "cache_dir": self.cache_dir,
                "lease_ttl": self.lease_ttl,
                **counts,
            },
            "cache": cache,
            "workers": workers,
        }
