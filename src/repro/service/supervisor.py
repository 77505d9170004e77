"""Process-level supervision for the compile fleet.

Each fleet worker is a complete :class:`~repro.service.server.
CompileServer` in its own OS process, listening on a private Unix
socket.  This module owns the *mechanics* of keeping such a process
alive:

* spawning (``python -m repro serve --socket <private> --worker-id N
  --exit-with-parent``) with stdout/stderr appended to a per-worker log
  file;
* liveness: process exit (clean or signalled) is detected by ``poll()``;
  a *wedged* process (SIGSTOP, runaway C loop, deadlock) is detected by
  heartbeat pings going unanswered past a timeout, and answered with
  SIGKILL — which works on stopped processes precisely because it is
  uncatchable;
* restart with exponential backoff, where the backoff exponent counts
  *consecutive short-lived* lives only: a worker that stayed up past
  :data:`STABLE_AFTER` seconds has proven the binary sound, so its next
  crash restarts fast again.

Routing, request requeue, and quarantine live one layer up in
:mod:`repro.service.fleet`; nothing here knows what a request is.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.service import protocol

#: Lifecycle of one worker slot (the *slot* is eternal; processes come
#: and go through it).
WORKER_STARTING = "starting"   # spawned, socket not yet answering pings
WORKER_UP = "up"               # answering heartbeats
WORKER_BACKOFF = "backoff"     # dead; restart scheduled
WORKER_STOPPED = "stopped"     # deliberately shut down

WORKER_STATES = (
    WORKER_STARTING, WORKER_UP, WORKER_BACKOFF, WORKER_STOPPED,
)

DEFAULT_HEARTBEAT_INTERVAL = 0.25
DEFAULT_HEARTBEAT_TIMEOUT = 2.0
RESTART_BACKOFF_BASE = 0.05
RESTART_BACKOFF_CAP = 2.0
#: Uptime after which a worker is considered proven and its crash
#: streak resets (a long-lived worker's eventual death is news, not a
#: crash loop).
STABLE_AFTER = 5.0
#: How long a freshly spawned worker may take to answer its first ping
#: before the supervisor gives up on this life and respawns.
SPAWN_GRACE = 15.0


def restart_backoff(
    streak: int,
    base: float = RESTART_BACKOFF_BASE,
    cap: float = RESTART_BACKOFF_CAP,
) -> float:
    """Seconds to wait before the next respawn after ``streak``
    consecutive short-lived lives (0 → ``base``)."""
    return min(cap, base * (2 ** max(0, streak)))


def worker_environment(env: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """A child environment that can ``import repro`` the way we did.

    The spawned interpreter inherits no ``sys.path`` surgery from the
    parent, so the package root is prepended to ``PYTHONPATH``
    explicitly — this works whether the parent ran from a checkout
    (``PYTHONPATH=src``) or an installed copy.
    """
    import repro

    env = dict(os.environ if env is None else env)
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    # Workers draw their own plans from --inject only; a stray
    # environment plan would double-inject every request.
    env.pop("REPRO_FAULTS", None)
    return env


def worker_command(
    socket_path: str,
    worker_id: int,
    threads: int = 2,
    queue_limit: int = 16,
    breaker_threshold: Optional[int] = None,
    breaker_cooldown: Optional[float] = None,
    default_deadline: Optional[float] = None,
    crash_dir: Optional[str] = None,
    inject: str = "",
    cache_dir: Optional[str] = None,
    lease_ttl: Optional[float] = None,
) -> List[str]:
    """The argv that runs one fleet worker.

    ``cache_dir``/``lease_ttl`` are explicit flags rather than
    environment plumbing so they survive worker restarts unchanged —
    every life of the slot shares the same artifact store and lease
    protocol, which the cross-process dedup guarantees depend on.
    """
    command = [
        sys.executable, "-m", "repro", "serve",
        "--socket", socket_path,
        "--workers", str(threads),
        "--queue-limit", str(queue_limit),
        "--worker-id", str(worker_id),
        "--exit-with-parent",
    ]
    if breaker_threshold is not None:
        command += ["--breaker-threshold", str(breaker_threshold)]
    if breaker_cooldown is not None:
        command += ["--breaker-cooldown", str(breaker_cooldown)]
    if default_deadline is not None:
        command += ["--default-deadline", str(default_deadline)]
    if crash_dir:
        command += ["--crash-dir", crash_dir]
    if inject:
        command += ["--inject", inject]
    if cache_dir:
        command += ["--cache-dir", cache_dir]
    if lease_ttl is not None:
        command += ["--lease-ttl", str(lease_ttl)]
    return command


class Worker:
    """One supervised worker slot: a private socket, a log file, and
    whatever process currently fills the slot.

    Thread-safety: the fleet's monitor thread drives state transitions;
    forwarding threads only read ``socket_path``/``pid`` and call
    :meth:`kill` (idempotent, signal-based).  The lock guards the
    spawn/stop transitions where ``proc`` changes hands.
    """

    def __init__(
        self,
        index: int,
        socket_path: str,
        log_path: str,
        command: Sequence[str],
    ):
        self.index = index
        self.socket_path = socket_path
        self.log_path = log_path
        self.command = list(command)
        self.env = worker_environment()

        self.proc: Optional[subprocess.Popen] = None
        self.state = WORKER_STOPPED
        self.spawned_at = 0.0
        self.last_ok = 0.0          # last successful heartbeat
        self.restart_at = 0.0       # when WORKER_BACKOFF may respawn
        self.restarts = 0           # lifetime respawns (not first spawn)
        self.streak = 0             # consecutive short-lived lives
        self.heartbeat_kills = 0    # hang-detector SIGKILLs delivered
        self.last_exit: Optional[int] = None
        self._log_handle = None
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------
    def spawn(self, extra_args: Sequence[str] = ()) -> None:
        """Start a process in this slot (stale socket removed first so
        the child's bind-probe never sees its dead predecessor)."""
        with self._lock:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            if self._log_handle is None:
                self._log_handle = open(self.log_path, "ab", buffering=0)
            self._log_handle.write(
                f"--- spawn worker {self.index} "
                f"(life {self.restarts + 1}) ---\n".encode()
            )
            self.proc = subprocess.Popen(
                self.command + list(extra_args),
                stdout=self._log_handle,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=self.env,
                start_new_session=True,
            )
            now = time.monotonic()
            self.spawned_at = now
            self.last_ok = now  # grace starts from spawn, not from 0
            self.state = WORKER_STARTING
            self.last_exit = None

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    def exited(self) -> bool:
        return self.proc is not None and self.proc.poll() is not None

    def uptime(self) -> float:
        return time.monotonic() - self.spawned_at if self.proc else 0.0

    def note_death(self) -> float:
        """Record the current process's death; returns the backoff to
        wait before respawning (and arms :attr:`restart_at`)."""
        self.last_exit = self.proc.poll() if self.proc is not None else None
        if self.uptime() >= STABLE_AFTER:
            self.streak = 0
        else:
            self.streak += 1
        pause = restart_backoff(self.streak)
        self.state = WORKER_BACKOFF
        self.restart_at = time.monotonic() + pause
        self.restarts += 1
        return pause

    # -- liveness probes ----------------------------------------------------
    def heartbeat(self, timeout: float = 0.5) -> bool:
        """One ping round trip; records success in :attr:`last_ok`."""
        try:
            response = protocol.request_over_socket(
                self.socket_path,
                {"id": 0, "op": "ping"},
                timeout=timeout,
                connect_timeout=timeout,
            )
        except (OSError, protocol.ProtocolError):
            return False
        if response is not None and response.get("status") == "ok":
            self.last_ok = time.monotonic()
            if self.state == WORKER_STARTING:
                self.state = WORKER_UP
            return True
        return False

    def heartbeat_stale(self, heartbeat_timeout: float) -> bool:
        """True when the hang detector should SIGKILL this process.

        A *starting* worker gets :data:`SPAWN_GRACE` instead — it may be
        legitimately slow to bind (the ``slowstart`` fault exists to
        exercise exactly this).
        """
        if self.proc is None or self.exited():
            return False
        allowance = (
            SPAWN_GRACE if self.state == WORKER_STARTING
            else heartbeat_timeout
        )
        return time.monotonic() - self.last_ok > allowance

    # -- signals ------------------------------------------------------------
    def kill(self, why: str = "") -> bool:
        """SIGKILL the current process (idempotent; False if none)."""
        proc = self.proc
        if proc is None or proc.poll() is not None:
            return False
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except OSError:
            return False
        if why and self._log_handle is not None:
            try:
                self._log_handle.write(
                    f"--- SIGKILL worker {self.index}: {why} ---\n".encode()
                )
            except OSError:
                pass
        return True

    def stop(self, timeout: float = 5.0) -> None:
        """Deliberate shutdown: polite drain request, then escalate."""
        with self._lock:
            proc = self.proc
            self.state = WORKER_STOPPED
            if proc is not None and proc.poll() is None:
                try:
                    protocol.request_over_socket(
                        self.socket_path,
                        {"id": 0, "op": "shutdown"},
                        timeout=1.0,
                        connect_timeout=1.0,
                    )
                except (OSError, protocol.ProtocolError):
                    pass
                try:
                    proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    try:
                        os.kill(proc.pid, signal.SIGKILL)
                    except OSError:
                        pass
                    try:
                        proc.wait(timeout=5.0)
                    except subprocess.TimeoutExpired:
                        pass
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            if self._log_handle is not None:
                try:
                    self._log_handle.close()
                except OSError:
                    pass
                self._log_handle = None

    # -- status -------------------------------------------------------------
    def describe(self) -> dict:
        return {
            "index": self.index,
            "pid": self.pid,
            "state": self.state,
            "socket": self.socket_path,
            "log": self.log_path,
            "restarts": self.restarts,
            "streak": self.streak,
            "heartbeat_kills": self.heartbeat_kills,
            "uptime_seconds": round(self.uptime(), 3),
            "heartbeat_age": round(
                time.monotonic() - self.last_ok, 3
            ) if self.proc is not None else None,
            "last_exit": self.last_exit,
        }
