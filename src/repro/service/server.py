"""``python -m repro serve`` — the concurrent compile server.

Architecture (all threads, one process)::

    accept thread ──▶ connection threads ──▶ bounded queue ──▶ workers
                          │  (parse, validate,    │  (load-shed      │
                          │   answer status/ping  │   when full:     │
                          │   inline)             │   'rejected')    │
                          └──────────── responses ◀──────────────────┘

Robustness properties, in the order a request meets them:

* **Backpressure + load shedding** — the request queue is bounded;
  past the high-water mark a request is answered ``rejected``
  (429-style) immediately instead of queueing unboundedly.  The client
  retries with backoff, so shed load is deferred, not dropped.
* **Deadlines** — each request carries a wall-clock budget measured
  from *enqueue* (queue time spends budget).  Workers install the
  deadline as the pipeline's cancellation probe, so a stuck compile is
  cut at the next pass boundary — and mid-stall for ``sleep`` faults,
  which honour the probe.  Simulations check it per executed block.
* **Circuit breakers** — every full-pipeline compile reports its
  outcome to the per-(machine, config) breaker.  After K consecutive
  pass failures the circuit opens and requests are served *degraded*:
  compiled with the offending passes disabled (the paper's Fig. 5
  safe-loop fallback, one layer up), flagged as such in the response.
  After a cooldown, one half-open probe runs the full pipeline; success
  re-closes the circuit.
* **Graceful degradation** — a degrade-class failure (see
  :mod:`repro.resilience.classify`) never kills the request: the server
  recompiles under ``on_pass_failure='fallback'`` and returns a correct,
  less-optimized program with ``status='degraded'``.

A ``bench`` request is served as a ``simulate`` of its benchmark cell
(:func:`repro.bench.harness.cell_recipe`), through the same breaker,
store, faults, deadline and :meth:`~repro.pipeline.CompiledProgram.measure`.

Workers share the disk compile cache across requests.  Two concurrent
requests for the same (source, machine, config) compile once: the
artifact store's lease lets one worker compile while the other waits,
is woken when the lease is released, and revives the published
artifact (``single_flight_shared`` in the status counts those waits).

:class:`FrontEnd` is the socket half both this server and the fleet
supervisor (:mod:`repro.service.fleet`) run: bind, accept, one thread
per connection, and the ops every front end answers inline (``ping``,
``status``, ``shutdown``, and the draining refusal).
"""

from __future__ import annotations

import math
import os
import queue
import socket
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro import timing
from repro.errors import DeadlineExceeded, ReproError
from repro.machine import get_machine
from repro.pipeline import compile_minic, get_config
from repro.resilience.classify import DEGRADE, classify_failure
from repro.resilience.faults import FaultPlan
from repro.service import protocol
from repro.service.artifacts import ROLE_DEDUP, ArtifactStore
from repro.service.breaker import (
    DEFAULT_COOLDOWN,
    DEFAULT_THRESHOLD,
    MODE_DEGRADED,
    MODE_PROBE,
    BreakerBoard,
)
from repro.sim import SIM_BACKENDS
from repro.sim.plan import Plan

DEFAULT_WORKERS = 2
DEFAULT_QUEUE_LIMIT = 16

_SHUTDOWN = object()  # worker sentinel


def _count(request: dict, key: str, least: int = 1) -> Optional[int]:
    """``request[key]``, which must be absent or an integer >= ``least``."""
    value = request.get(key)
    if value is not None and (type(value) is not int or value < least):
        raise ReproError(f"bad {key} {value!r}: want an integer >= {least}")
    return value


class _Connection:
    """One accepted client socket plus its write lock.

    The connection thread (rejections, status) and worker threads
    (results) both write responses; the lock keeps frames whole.
    """

    def __init__(self, sock):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.lock = threading.Lock()

    def send(self, message: dict) -> None:
        try:
            with self.lock:
                protocol.send_message(self.sock, message)
        except OSError:
            pass  # client went away; its loss

    def close(self) -> None:
        for closer in (self.rfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


class _Stats:
    """Thread-safe monotone counters for the status endpoint."""

    FIELDS = (
        "accepted", "completed", "ok", "degraded", "rejected",
        "timeouts", "errors", "protocol_errors", "in_flight",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {field: 0 for field in self.FIELDS}

    def bump(self, field: str, amount: int = 1) -> None:
        with self._lock:
            self._counts[field] += amount

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)


class LatencyRing:
    """Fixed-capacity ring of recent request durations.

    Cheap enough to record on every request (one float write under a
    lock), rich enough for the status surface: nearest-rank p50/p90/p99
    over the last ``capacity`` requests.  ``count`` is lifetime total,
    so a scraper can tell "quiet ring" from "freshly restarted".
    """

    DEFAULT_CAPACITY = 512

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, capacity)
        self._buffer = [0.0] * self.capacity
        self._count = 0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._buffer[self._count % self.capacity] = float(seconds)
            self._count += 1

    def snapshot(self) -> Dict[str, object]:
        """``{count, window, p50, p90, p99}`` (seconds, or None when
        nothing has been recorded yet)."""
        with self._lock:
            filled = min(self._count, self.capacity)
            data = sorted(self._buffer[:filled])
            total = self._count
        if not data:
            return {
                "count": 0, "window": 0,
                "p50": None, "p90": None, "p99": None,
            }

        def nearest_rank(quantile: float) -> float:
            index = max(0, math.ceil(quantile * len(data)) - 1)
            return round(data[min(index, len(data) - 1)], 6)

        return {
            "count": total,
            "window": len(data),
            "p50": nearest_rank(0.50),
            "p90": nearest_rank(0.90),
            "p99": nearest_rank(0.99),
        }


class FrontEnd:
    """The socket front end: accept, one thread per connection, and the
    ops answered inline.

    A subclass answers work ops in :meth:`_accept_work` (the server
    enqueues or sheds, the fleet forwards), reports :meth:`_status_payload`,
    and drains its own work in :meth:`_drain` during shutdown.
    """

    #: Thread-name prefix (``<prefix>-accept``, ``<prefix>-conn``).
    THREAD_PREFIX = "repro"
    #: The answer to a work op that arrives while shutting down.
    DRAINING = "server is draining"
    #: Extra fields of the ``ping`` answer.
    PONG: Dict[str, object] = {}

    def __init__(self, socket_path: Optional[str], stats: _Stats):
        self.socket_path = socket_path or protocol.default_socket_path()
        self.stats = stats
        self._listener = None
        self._threads: List[threading.Thread] = []
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._started_at: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and start accepting."""
        self._listener = protocol.bind(self.socket_path)
        self._started_at = time.monotonic()
        self._start_thread(self._accept_loop, f"{self.THREAD_PREFIX}-accept")

    def _start_thread(self, target, name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def serve_forever(self) -> None:
        """start() and block until a shutdown request (or Ctrl-C)."""
        self.start()
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            self.shutdown()

    def shutdown(self) -> None:
        """Graceful stop: refuse new work, drain, then exit.

        Idempotent and thread-safe; callable from a connection thread
        (the ``shutdown`` op spawns it on a side thread to avoid
        joining itself).
        """
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            self._stopping.set()
            if self._listener is not None:
                # Closing a socket another thread is blocked in accept()
                # on does not reliably wake it; shutdown() does, and the
                # self-connect nudge covers platforms where it doesn't.
                try:
                    self._listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    nudge = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    nudge.settimeout(0.25)
                    nudge.connect(self.socket_path)
                    nudge.close()
                except OSError:
                    pass
                try:
                    self._listener.close()
                except OSError:
                    pass
            self._drain()
            for thread in self._threads:
                if thread is not threading.current_thread():
                    thread.join(timeout=30.0)
            with self._conn_lock:
                connections = list(self._connections)
            for conn in connections:
                conn.close()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self._stopped.set()

    def _drain(self) -> None:
        """Let accepted work finish before the threads are joined."""

    @property
    def running(self) -> bool:
        return self._started_at is not None and not self._stopped.is_set()

    # -- accept / connection handling ---------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                break  # listener closed: shutting down
            conn = _Connection(sock)
            with self._conn_lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._connection_loop,
                args=(conn,),
                name=f"{self.THREAD_PREFIX}-conn",
                daemon=True,
            )
            thread.start()

    def _connection_loop(self, conn: _Connection) -> None:
        try:
            while True:
                try:
                    request = protocol.recv_message(conn.rfile)
                except protocol.ProtocolError as exc:
                    self.stats.bump("protocol_errors")
                    conn.send(protocol.make_response(
                        None, protocol.STATUS_ERROR,
                        error=str(exc), retryable=False,
                    ))
                    return
                except (OSError, ValueError):
                    # ValueError: shutdown() closed the reader between
                    # two reads ("readline of closed file") — an EOF.
                    return
                if request is None:
                    return  # clean EOF
                self._dispatch(conn, request)
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.close()

    def _dispatch(self, conn: _Connection, request: dict) -> None:
        received_at = time.monotonic()
        request_id = request.get("id")
        complaint = protocol.validate_request(request)
        if complaint is not None:
            self.stats.bump("protocol_errors")
            conn.send(protocol.make_response(
                request_id, protocol.STATUS_ERROR,
                error=complaint, retryable=False,
            ))
            return
        op = request["op"]
        if op == "ping":
            conn.send(protocol.make_response(
                request_id, protocol.STATUS_OK, pong=True, **self.PONG
            ))
            return
        if op == "status":
            conn.send(protocol.make_response(
                request_id, protocol.STATUS_OK, **self._status_payload()
            ))
            return
        if op == "shutdown":
            conn.send(protocol.make_response(
                request_id, protocol.STATUS_OK, stopping=True,
            ))
            threading.Thread(target=self.shutdown, daemon=True).start()
            return
        if self._stopping.is_set():
            conn.send(protocol.make_response(
                request_id, protocol.STATUS_SHUTTING_DOWN,
                error=self.DRAINING,
            ))
            return
        self._accept_work(conn, request, received_at)

    def _accept_work(
        self, conn: _Connection, request: dict, received_at: float
    ) -> None:
        raise NotImplementedError

    def _status_payload(self) -> dict:
        raise NotImplementedError


class CompileServer(FrontEnd):
    """The long-running compile/simulate/bench service."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        breaker_threshold: int = DEFAULT_THRESHOLD,
        breaker_cooldown: float = DEFAULT_COOLDOWN,
        default_deadline: Optional[float] = None,
        cache=None,
        faults: Optional[FaultPlan] = None,
        crash_dir: Optional[str] = None,
        start_delay: float = 0.0,
        worker_id: Optional[int] = None,
        exit_with_parent: bool = False,
        cache_dir: Optional[str] = None,
        lease_ttl: Optional[float] = None,
    ):
        from repro.bench.cache import cache_enabled, default_cache

        super().__init__(socket_path, _Stats())
        self.workers = max(1, workers)
        # Fleet-worker knobs: 'start_delay' delays the socket bind (the
        # 'slowstart' fleet fault), 'worker_id' tags status payloads so
        # the supervisor can tell shards apart, and 'exit_with_parent'
        # makes the process die when its supervisor does (orphan
        # watchdog polling the original parent pid).
        self.start_delay = max(0.0, start_delay)
        self.worker_id = worker_id
        self.exit_with_parent = exit_with_parent
        self._parent_pid = os.getppid() if exit_with_parent else None
        self.queue_limit = max(1, queue_limit)
        self.default_deadline = default_deadline
        if cache is not None:
            self.cache = cache
        elif cache_dir is not None:
            # An explicit shared directory (the fleet's): honoured even
            # when it differs from $REPRO_CACHE_DIR, still subject to
            # the REPRO_CACHE=off kill switch.
            self.cache = (
                ArtifactStore(cache_dir, ttl=lease_ttl)
                if cache_enabled() else None
            )
        else:
            self.cache = default_cache()
        if self.cache is not None and lease_ttl is not None:
            self.cache.ttl = lease_ttl
        self.latency = LatencyRing()
        self.breakers = BreakerBoard(breaker_threshold, breaker_cooldown)
        # One long-lived plan shared by every compile, so arrival counts
        # span requests: 'coalesce=raise@3' means "the third coalesce
        # the *server* runs", which is how tests stage transient faults
        # that the breaker then recovers from.  A disk-only plan reaches
        # the artifact store the same way, passed with each compile of
        # a request that brings no plan of its own.
        self.faults = (
            faults if faults is not None else FaultPlan.from_env()
        )
        self.crash_dir = crash_dir or os.environ.get("REPRO_CRASH_DIR")
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.queue_limit)
        self._tls = threading.local()
        if self.faults is not None:
            # One shared, thread-aware cancellation probe: each worker
            # parks its own deadline in thread-local state, so a 'sleep'
            # fault in one request can never be cut by another's clock.
            self.faults.cancel_check = self._cancel

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and spawn the accept + worker threads."""
        if self.start_delay:
            time.sleep(self.start_delay)
        super().start()
        if self.exit_with_parent:
            self._start_thread(self._orphan_watch, "repro-orphan-watch")
        for index in range(self.workers):
            self._start_thread(self._worker_loop, f"repro-worker-{index}")

    def _drain(self) -> None:
        # Sentinels queue *behind* already-accepted work: FIFO order
        # means every accepted request is answered before exit.
        for _ in range(self.workers):
            self._queue.put(_SHUTDOWN)

    def _orphan_watch(self) -> None:
        """Exit hard if the supervisor that spawned us disappears.

        A fleet worker with no supervisor has no one to restart it, no
        one heartbeating it, and a socket nobody routes to; lingering
        would leak a process per supervisor crash.  Reparenting (getppid
        changes, typically to 1) is the portable death signal.
        """
        while not self._stopping.is_set():
            if os.getppid() != self._parent_pid:
                os._exit(0)
            self._stopped.wait(0.5)
            if self._stopped.is_set():
                return

    def _accept_work(
        self, conn: _Connection, request: dict, received_at: float
    ) -> None:
        try:
            self._queue.put_nowait((request, conn, received_at))
            self.stats.bump("accepted")
        except queue.Full:
            # Load shedding: answer now, let the client back off.
            self.stats.bump("rejected")
            conn.send(protocol.make_response(
                request.get("id"), protocol.STATUS_REJECTED,
                error=(
                    f"request queue is full "
                    f"({self.queue_limit} outstanding); retry with backoff"
                ),
                queue_limit=self.queue_limit,
            ))

    # -- deadline plumbing --------------------------------------------------
    def _cancel(self) -> None:
        """The shared cancellation probe: raises when the *current
        thread's* request has outlived its deadline."""
        info = getattr(self._tls, "deadline", None)
        if info is None:
            return
        budget, deadline_at = info
        now = time.monotonic()
        if now > deadline_at:
            raise DeadlineExceeded(budget, budget + (now - deadline_at))

    def _arm_deadline(
        self, request: dict, enqueued_at: float
    ) -> Optional[float]:
        budget = request.get("deadline", self.default_deadline)
        if budget is None:
            self._tls.deadline = None
            return None
        budget = float(budget)
        self._tls.deadline = (budget, enqueued_at + budget)
        return budget

    # -- workers ------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            request, conn, enqueued_at = item
            self.stats.bump("in_flight")
            try:
                response = self._process(request, enqueued_at)
            except Exception as exc:  # noqa: BLE001 — a worker must survive anything
                self.stats.bump("errors")
                response = protocol.make_response(
                    request.get("id"), protocol.STATUS_ERROR,
                    error=f"{type(exc).__name__}: {exc}",
                    retryable=False,
                )
            finally:
                self.stats.bump("in_flight", -1)
                self._tls.deadline = None
                # Queue time spends deadline budget, so it counts here
                # too: the ring measures what the *client* experienced.
                self.latency.record(time.monotonic() - enqueued_at)
            conn.send(response)

    def _process(self, request: dict, enqueued_at: float) -> dict:
        request_id = request.get("id")
        budget = self._arm_deadline(request, enqueued_at)
        op = request["op"]
        try:
            with timing.root("request") as request_span:
                if op == "compile":
                    fields = self._do_compile(request)
                elif op == "simulate":
                    fields = self._do_simulate(request)
                else:
                    fields = self._do_bench(request)
        except DeadlineExceeded as exc:
            self.stats.bump("timeouts")
            return protocol.make_response(
                request_id, protocol.STATUS_TIMEOUT,
                error=str(exc), deadline=budget,
                elapsed=round(time.monotonic() - enqueued_at, 6),
            )
        except ReproError as exc:
            # A bench request is a simulate: a bad input is fatal.
            cls = classify_failure(
                exc, "compile" if op == "compile" else "simulate"
            )
            self.stats.bump("errors")
            return protocol.make_response(
                request_id, protocol.STATUS_ERROR,
                error=str(exc), error_type=type(exc).__name__,
                classification=cls, retryable=cls == "retryable",
            )
        status = (
            protocol.STATUS_DEGRADED if fields.pop("_degraded", False)
            else protocol.STATUS_OK
        )
        self.stats.bump("completed")
        self.stats.bump("degraded" if status != protocol.STATUS_OK else "ok")
        # Processing time: the queue wait before it is not in the span.
        fields.setdefault("wall_seconds", round(request_span.ns / 1e9, 6))
        return protocol.make_response(request_id, status, **fields)

    # -- the compile path ---------------------------------------------------
    def _compile_program(self, request: dict):
        """Compile under breaker control; returns (program, fields).

        ``fields['_degraded']`` flags a response that must be marked
        degraded (pass failures recovered, or served with the breaker
        open and passes pre-disabled).
        """
        machine = get_machine(request.get("machine", "alpha"))
        overrides = dict(request.get("overrides") or {})
        try:
            config = get_config(request.get("config", "vpo"), **overrides)
        except TypeError as exc:
            raise ReproError(f"bad overrides: {exc}") from None
        breaker = self.breakers.get(machine.name, config.name)
        request_plan = FaultPlan.parse(request.get("faults"))
        plan = request_plan if request_plan is not None else self.faults
        mode = breaker.acquire()

        if mode == MODE_DEGRADED:
            disabled = tuple(sorted(
                set(config.disabled_passes) | breaker.bad_passes
            ))
            program = compile_minic(
                request["source"], machine,
                replace(
                    config,
                    disabled_passes=disabled,
                    on_pass_failure="skip",
                ),
                faults=plan, cancel=self._cancel,
                crash_dir=self.crash_dir,
            )
            recovered = sorted({f.pass_name for f in program.pass_failures})
        else:
            # Full pipeline (closed circuit, or the half-open probe).
            # Pass faults are recovered in place, so an injected failure
            # degrades the answer instead of failing it; such a compile
            # bypasses the cache, while a disk-only plan acts on this
            # request's store operations alone.
            disabled = ()
            if plan is not None and not plan.disk_only():
                config = replace(config, on_pass_failure="fallback")
            try:
                from repro.bench.cache import cached_compile_minic

                program = cached_compile_minic(
                    request["source"], machine, config, cache=self.cache,
                    cancel=self._cancel, faults=plan,
                    crash_dir=self.crash_dir,
                )
            except Exception as exc:  # noqa: BLE001 — classified below
                if mode == MODE_PROBE:
                    breaker.release_probe()
                if classify_failure(exc, "compile") != DEGRADE:
                    raise  # fatal (bad input) or retryable (deadline)
                # Organic degrade-class failure on the cached fast path:
                # take the safe-loop move — recompile with recovery on.
                program = compile_minic(
                    request["source"], machine, config,
                    cancel=self._cancel, crash_dir=self.crash_dir,
                    on_pass_failure="fallback",
                )
            recovered = [f.pass_name for f in program.pass_failures]
            if program.degraded:
                breaker.record_failure(
                    tuple(sorted(set(recovered))), probe=mode == MODE_PROBE
                )
            else:
                breaker.record_success(probe=mode == MODE_PROBE)
        return program, {
            "_degraded": mode == MODE_DEGRADED or program.degraded,
            "machine": machine.name,
            "config": config.name,
            "breaker": breaker.snapshot()["state"],
            "disabled_passes": list(disabled),
            "pass_failures": [f.describe() for f in program.pass_failures],
            "cache_hit": program.cache_hit,
            "coalesced_loops": program.coalesced_loops,
            "recovered_passes": recovered,
        }

    def _do_compile(self, request: dict) -> dict:
        program, fields = self._compile_program(request)
        if request.get("include_rtl"):
            from repro.ir.printer import format_module

            fields["rtl"] = format_module(program.module)
        return fields

    def _do_simulate(
        self, request: dict, call: Optional[Plan] = None
    ) -> dict:
        # A malformed call is a fatal ReproError before any compile work.
        if call is None:
            call = Plan(
                request["entry"], request.get("arrays") or [],
                request.get("args") or [],
            )
        backend = request.get("sim_backend")
        if backend is not None and backend not in SIM_BACKENDS:
            raise ReproError(
                f"unknown sim_backend {backend!r}; known: "
                f"{', '.join(SIM_BACKENDS)}"
            )
        options = dict(backend=backend, max_steps=_count(request, "max_steps"))
        dump = _count(request, "dump", least=0) or 0
        program, fields = self._compile_program(request)
        self._cancel()  # queue+compile may have eaten the whole budget

        if getattr(self._tls, "deadline", None) is not None:
            # First-class cancellation: both engines poll cancel= per
            # block, so a deadline does not force the compiled backend
            # down the interpreter fallback the way a fault_hook would.
            options["cancel"] = self._cancel
        plan = FaultPlan.parse(request.get("faults"))
        if plan is None:
            plan = self.faults
        if plan is not None and not plan.disk_only():
            # Disk-only plans target the artifact store, not the
            # simulator; a sim hook would turn every drawn disk fault
            # into a bogus SimulationTimeout.
            options["fault_hook"] = plan.sim_hook()
        fields.update(vars(program.measure(call, dump, **options)))
        return fields

    def _do_bench(self, request: dict) -> dict:
        """A ``simulate`` of one benchmark cell's recipe."""
        from repro.bench.harness import cell_recipe

        size = _count(request, "size") or 16
        variant = request.get("variant", "coalesce-all")
        self._cancel()  # building the inputs can outlast a spent budget
        source, config, overrides, call = cell_recipe(
            request["program"], request.get("machine", "alpha"), variant,
            size, size,
        )
        fields = self._do_simulate(
            {**request, "source": source, "config": config,
             "overrides": overrides},
            call,
        )
        fields.update(program=request["program"], variant=variant)
        return fields

    # -- status -------------------------------------------------------------
    def _cache_status(self) -> Optional[dict]:
        """The store's stats plus this process's revive memo: programs
        held and hits (a warm answer that parsed nothing)."""
        if self.cache is None:
            return None
        from repro.bench.cache import revived_programs

        return {
            **self.cache.stats(), "revive_memo": revived_programs().stats(),
        }

    def _status_payload(self) -> dict:
        counts = self.stats.snapshot()
        uptime = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        return {
            "server": {
                "socket": self.socket_path,
                "pid": os.getpid(),
                "worker_id": self.worker_id,
                "uptime_seconds": round(uptime, 3),
                "workers": self.workers,
                "queue_depth": self._queue.qsize(),
                "queue_limit": self.queue_limit,
                "default_deadline": self.default_deadline,
                "stopping": self._stopping.is_set(),
                "faults": str(self.faults) if self.faults else "",
                **counts,
            },
            "breakers": self.breakers.snapshot(),
            "cache": self._cache_status(),
            # Requests that waited on another worker's lease and then
            # read its artifact instead of compiling (role 'dedup').
            "single_flight_shared": (
                self.cache.tally[ROLE_DEDUP] if self.cache is not None else 0
            ),
            "latency": self.latency.snapshot(),
        }
