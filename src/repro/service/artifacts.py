"""Crash-safe content-addressed artifact store with cross-process dedup.

An :class:`ArtifactStore` is the one object for a cache directory: the
compile cache (:mod:`repro.bench.cache`), the compile server, the fleet
and the chaos harness each open one on the same directory, and every
read and write goes through :meth:`ArtifactStore.fetch_or_compute`.

**Crash-safe publish.**  An artifact is a single file ``<key>.json``
whose first line is an integrity header::

    repro-artifact 1 sha256=<hex> bytes=<n>
    <payload bytes>

The payload is written to a temp file, fsync'd, then **hardlinked**
into place.  ``os.link`` never replaces an existing name, so publishing
is first-writer-wins: a revived stale writer gets ``EEXIST``, never a
clobber, and a reader can only ever observe *no* entry or a *complete*
entry under the final name.  Every read re-verifies length and
checksum; a mismatch (torn write, bit flip, hand truncation) is
journalled, the wreck unlinked, and the read reported as a miss —
never served.

**Lease-based single-flight.**  A cold key is guarded by
``<key>.lease``, created ``O_CREAT|O_EXCL`` and holding
``{pid, nonce, token, ttl, created}``.  The holder heartbeats the lease
mtime from a daemon thread every TTL/4; waiters block-with-deadline
until the artifact appears.  A waiter in the holder's own process
(another worker thread of the same server) is woken the moment the
lease is released; a waiter in another process polls.  If the holder
dies (``os.kill(pid, 0)`` fails — a same-host check; the fleet shares
one machine) or its heartbeat goes stale past the TTL, a waiter
**steals** the lease: re-verify the observed nonce under a per-key
``flock``, unlink, re-create with ``token = old + 1`` (the fencing
token).  Only a lease holder publishes, and its publish re-checks that
the lease still carries *its* nonce under the same flock that
serializes steals, so a revived holder cannot harm the winner.
Waiters that exhaust their deadline fall back to a local compile —
degraded to duplicate work, never to an error.

**Size cap.**  The store holds at most ``max_bytes`` of artifacts
(``REPRO_CACHE_MAX_BYTES``, default 256 MiB), pruned oldest-mtime-first
after every publish; a hit refreshes the artifact's mtime, so eviction
is LRU.

**Durable accounting.**  Every consequential transition — publish,
hit, compile, steal, fence, corrupt-drop, disk-error, fallback, fired
fault — is appended as a JSON line to ``events.log`` (``O_APPEND``, one
small write per event), so counters survive process exit and aggregate
*across* processes: ``cache --stats`` in a fresh process can report how
many compiles the whole fleet deduplicated.  ``dedup_hits`` counts
reads that saved another process's work: lease-waiters plus hits whose
publisher was a different pid.  Beside it, :attr:`ArtifactStore.tally`
counts this process's own ``fetch_or_compute`` roles and evictions.

**Fault injection.**  An operation handed a :class:`FaultPlan`
(``faults=`` on ``fetch_or_compute``, which passes it to that call's
reads, lease, steals and publish) draws at ``artifact:<op>:<key12>``
sites (alias ``artifact:<op>``) and honours the disk kinds where they
make physical sense; the store itself holds no plan:

=====================  ==================================================
``corrupt-artifact``   at *read*: flip the artifact's last payload byte
                       on disk first, so the checksum must catch it
``torn-write``         at *publish*: link a half-written image into
                       place, simulating a crash between write and
                       rename
``enospc``             at *publish*: raise ``OSError(ENOSPC)`` from the
                       write path, exercising graceful bypass
``stale-lease``        at *lease*: acquire but play dead — no
                       heartbeat, mtime backdated — so waiters steal
``lease-steal-race``   at *steal*: linger between staleness check and
                       re-acquisition, widening the race window
=====================  ==================================================

Any `OSError` from a real disk (not just injected ones) is journalled
as ``disk-error`` and downgrades the operation to a miss or an
unpublished compile — the cache degrades, the compile never fails
because of it.  A disk error on the lease compiles at once as the
``fallback`` role instead of waiting for a holder that cannot exist.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import json
import os
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

HEADER_MAGIC = "repro-artifact"
HEADER_VERSION = 1

#: Default lease TTL: a holder whose heartbeat is older than this is
#: presumed dead and its lease is stealable.  Heartbeats fire every
#: TTL/4, so four beats must be lost before a steal.
DEFAULT_LEASE_TTL = 5.0

#: Default size cap of the artifacts in one store; REPRO_CACHE_MAX_BYTES
#: overrides (0 or a negative value lifts the cap).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Cap on the event journal; appends stop (counters freeze, correctness
#: is unaffected) rather than filling the disk the store is guarding.
MAX_EVENT_LOG_BYTES = 32 * 1024 * 1024

#: How a ``fetch_or_compute`` call obtained its value.
ROLE_HIT = "hit"            # artifact already on disk
ROLE_DEDUP = "dedup"        # waited on another process's lease, then read
ROLE_COMPILE = "compile"    # held the lease and produced the artifact
ROLE_FALLBACK = "fallback"  # lease wait exhausted; compiled locally


def default_lease_ttl() -> float:
    """The configured lease TTL (``REPRO_LEASE_TTL``), in seconds."""
    raw = os.environ.get("REPRO_LEASE_TTL", "").strip()
    try:
        value = float(raw) if raw else DEFAULT_LEASE_TTL
    except ValueError:
        return DEFAULT_LEASE_TTL
    return value if value > 0 else DEFAULT_LEASE_TTL


def default_max_bytes() -> Optional[int]:
    """The configured size cap (``REPRO_CACHE_MAX_BYTES``) in bytes, or
    ``None`` for unbounded."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    try:
        value = int(raw) if raw else DEFAULT_MAX_BYTES
    except ValueError:
        return DEFAULT_MAX_BYTES
    return value if value > 0 else None


class Lease:
    """A held single-flight lease on one artifact key.

    Heartbeats from a daemon thread keep the lease file's mtime fresh;
    :meth:`release` stops the thread and unlinks the lease *only if it
    still carries this holder's nonce* — a stolen lease belongs to the
    thief and must not be removed out from under it.
    """

    def __init__(
        self,
        store: "ArtifactStore",
        key: str,
        nonce: str,
        token: int,
        ttl: float,
        silent: bool = False,
    ):
        self.store = store
        self.key = key
        self.nonce = nonce
        self.token = token
        self.ttl = ttl
        self.silent = silent       # a stale-lease fault: never heartbeat
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def path(self) -> Path:
        return self.store.lease_path(self.key)

    def start(self) -> None:
        """Begin heartbeating (no-op for a silent/faulted lease)."""
        if self.silent or self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._beat, name=f"lease-{self.key[:12]}", daemon=True
        )
        self._thread.start()

    def _beat(self) -> None:
        interval = max(self.ttl / 4.0, 0.05)
        while not self._stop.wait(interval):
            try:
                os.utime(self.path)
            except OSError:
                return  # lease stolen or directory gone: stop beating

    def still_mine(self) -> bool:
        """Whether the lease file on disk still carries our nonce."""
        try:
            info = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return False
        return isinstance(info, dict) and info.get("nonce") == self.nonce

    def stop(self) -> None:
        """Stop heartbeating but leave the lease file behind — the
        shape of a holder that died without releasing."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)

    def release(self) -> None:
        """Stop heartbeating, remove the lease if it is still ours, and
        wake the store's waiters in this process."""
        self.stop()
        try:
            with self.store._key_lock(self.key):
                if self.still_mine():
                    os.unlink(self.path)
        except OSError:
            pass
        with self.store._released:
            self.store._releases += 1
            self.store._released.notify_all()


class ArtifactStore:
    """One directory of integrity-checked, lease-guarded artifacts."""

    def __init__(
        self,
        directory: Union[str, Path],
        ttl: Optional[float] = None,
        max_bytes: Optional[int] = -1,
    ):
        self.directory = Path(directory)
        self.ttl = default_lease_ttl() if ttl is None else ttl
        # -1 means "use the configured default"; None lifts the cap.
        self.max_bytes = default_max_bytes() if max_bytes == -1 else max_bytes
        # This process's fetch_or_compute roles, and under 'evict' the
        # artifacts its prunes removed (the journal is every process's).
        self.tally: Counter = Counter()
        self._tally_lock = threading.Lock()
        # Lease releases in this process: a waiter sleeps on the
        # condition and skips the sleep if the count moved since its
        # last read, so a release between read and wait is not missed.
        self._released = threading.Condition()
        self._releases = 0

    @property
    def ttl(self) -> float:
        return self._ttl

    @ttl.setter
    def ttl(self, value: float) -> None:
        """Set the lease TTL and the two waits derived from it."""
        self._ttl = float(value)
        # How long a waiter blocks on somebody else's lease before
        # degrading to a local compile.  Long enough to ride out one
        # full steal cycle (TTL staleness + the thief's own compile).
        self.wait_timeout = max(4.0 * self._ttl, 10.0)
        # How often a waiter re-reads when no release in this process
        # wakes it (the holder is another process).
        self.poll_interval = min(max(self._ttl / 20.0, 0.01), 0.05)

    # -- paths ---------------------------------------------------------------
    def artifact_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def lease_path(self, key: str) -> Path:
        return self.directory / f"{key}.lease"

    @property
    def events_path(self) -> Path:
        return self.directory / "events.log"

    # -- plumbing ------------------------------------------------------------
    @contextmanager
    def _key_lock(self, key: str):
        """A per-key ``flock`` serializing lease mutations and fenced
        publishes across processes.  The kernel drops the lock when the
        fd closes — including by SIGKILL — so a dead holder can never
        wedge its rivals."""
        path = self.directory / f"{key}.lock"
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)

    def _event(self, ev: str, key: Optional[str] = None, **extra) -> None:
        """Append one JSON line to the durable event journal.

        Journal failures are swallowed: accounting must never break the
        operation it is accounting for.
        """
        record: Dict[str, object] = {
            "t": round(time.time(), 4), "pid": os.getpid(), "ev": ev,
        }
        if key is not None:
            record["key"] = key[:12]
        record.update(extra)
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                if self.events_path.stat().st_size > MAX_EVENT_LOG_BYTES:
                    return
            except OSError:
                pass
            fd = os.open(
                self.events_path,
                os.O_CREAT | os.O_WRONLY | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            pass

    def _disk_error(self, op: str, key: Optional[str], exc: OSError) -> None:
        self._event(
            "disk-error", key, op=op,
            errno=exc.errno if exc.errno is not None else 0,
        )

    def _count(self, outcome: str, n: int = 1) -> None:
        with self._tally_lock:
            self.tally[outcome] += n

    def _draw(self, op: str, key: str, faults=None):
        """One arrival of ``faults`` (if the call brings a plan) at this
        operation's key-qualified site (``artifact:<op>:<key12>``, alias
        ``artifact:<op>``)."""
        if faults is None:
            return None
        return faults.draw(
            f"artifact:{op}:{key[:12]}", aliases=(f"artifact:{op}",)
        )

    # -- integrity framing ---------------------------------------------------
    def _encode(self, payload: bytes) -> bytes:
        digest = hashlib.sha256(payload).hexdigest()
        header = (
            f"{HEADER_MAGIC} {HEADER_VERSION} "
            f"sha256={digest} bytes={len(payload)}\n"
        )
        return header.encode("ascii") + payload

    def _decode(self, blob: bytes) -> bytes:
        newline = blob.find(b"\n")
        if newline < 0:
            raise ValueError("missing artifact header")
        fields = blob[:newline].decode("ascii", "replace").split()
        if len(fields) != 4 or fields[0] != HEADER_MAGIC:
            raise ValueError("bad artifact header")
        if fields[1] != str(HEADER_VERSION):
            raise ValueError(f"unknown artifact version {fields[1]!r}")
        want_sha = fields[2].partition("=")[2]
        want_len = fields[3].partition("=")[2]
        payload = blob[newline + 1:]
        if not want_len.isdigit() or len(payload) != int(want_len):
            raise ValueError(
                f"payload length mismatch (torn write?): "
                f"have {len(payload)}, header says {want_len}"
            )
        if hashlib.sha256(payload).hexdigest() != want_sha:
            raise ValueError("payload checksum mismatch")
        return payload

    # -- read side -----------------------------------------------------------
    def _damage(self, path: Path) -> None:
        """Flip the last payload byte in place (``corrupt-artifact``)."""
        try:
            with open(path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size == 0:
                    return
                handle.seek(size - 1)
                byte = handle.read(1)
                handle.seek(size - 1)
                handle.write(bytes([byte[0] ^ 0xFF]))
        except OSError:
            pass

    def read(self, key: str, faults=None) -> Optional[bytes]:
        """The verified payload for ``key``, or None.

        A corrupt artifact (bad header, short payload, checksum
        mismatch) is unlinked, journalled, and reported as a miss —
        its bytes are never returned.
        """
        path = self.artifact_path(key)
        spec = self._draw("read", key, faults)
        if spec is not None and spec.kind == "corrupt-artifact":
            self._event("fault", key, kind=spec.kind, site=spec.site)
            self._damage(path)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._disk_error("read", key, exc)
            return None
        try:
            return self._decode(blob)
        except ValueError as exc:
            self.drop(key, str(exc))
            return None

    def drop(self, key: str, reason: str) -> None:
        """Unlink a corrupt/unusable artifact and journal why."""
        self._event("corrupt-drop", key, reason=reason[:120])
        try:
            os.unlink(self.artifact_path(key))
        except OSError:
            pass

    def _note_hit(self, key: str, waited: bool) -> None:
        """Journal a successful read and refresh LRU recency."""
        self._event("hit", key, waited=waited)
        try:
            os.utime(self.artifact_path(key))
        except OSError:
            pass

    # -- write side ----------------------------------------------------------
    def publish(
        self, key: str, payload: bytes, lease: Lease, faults=None
    ) -> str:
        """Write ``payload`` under ``key`` as the holder of ``lease``;
        returns how it went:
        ``published`` | ``exists`` | ``fenced`` | ``torn`` | ``error``.

        Link-once semantics: an existing artifact is never replaced.
        The link happens under the per-key flock only if the lease
        still carries the holder's nonce (the fencing rule); a holder
        whose lease was stolen gets ``fenced`` and its bytes never
        reach the final name.
        """
        spec = self._draw("publish", key, faults)
        torn = spec is not None and spec.kind == "torn-write"
        try:
            if spec is not None and spec.kind == "enospc":
                self._event("fault", key, kind=spec.kind, site=spec.site)
                raise OSError(
                    errno.ENOSPC, "no space left on device (injected)"
                )
            self.directory.mkdir(parents=True, exist_ok=True)
            blob = self._encode(payload)
            if torn:
                self._event("fault", key, kind=spec.kind, site=spec.site)
                blob = blob[: max(len(blob) // 2, 8)]
            fd, tmp = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                with self._key_lock(key):
                    if not lease.still_mine():
                        self._event("publish-fenced", key, token=lease.token)
                        return "fenced"
                    os.link(tmp, self.artifact_path(key))
            finally:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        except FileExistsError as exc:
            # Usually the link collision (a rival published first) —
            # but mkdir raises this too when the cache *path* exists as
            # a non-directory, which is a disk error, not a hit.
            if self.artifact_path(key).exists():
                self._event("publish-exists", key)
                return "exists"
            self._disk_error("publish", key, exc)
            return "error"
        except OSError as exc:
            self._disk_error("publish", key, exc)
            return "error"
        if torn:
            self._event("publish-torn", key, token=lease.token)
            return "torn"
        self._event("publish", key, token=lease.token)
        return "published"

    # -- leases --------------------------------------------------------------
    def _create_lease(
        self, key: str, token: int, silent: bool = False
    ) -> Optional[Lease]:
        """O_EXCL-create the lease file; None if somebody beat us."""
        nonce = os.urandom(8).hex()
        body = json.dumps({
            "pid": os.getpid(),
            "nonce": nonce,
            "token": token,
            "ttl": self.ttl,
            "created": round(time.time(), 4),
        }).encode()
        try:
            fd = os.open(
                self.lease_path(key),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                0o644,
            )
        except FileExistsError:
            return None
        try:
            os.write(fd, body)
            os.fsync(fd)
        finally:
            os.close(fd)
        return Lease(self, key, nonce, token, self.ttl, silent=silent)

    def acquire(self, key: str, faults=None) -> Optional[Lease]:
        """Try to become the single-flight holder for ``key``; None if
        another process holds it or the disk failed (journalled as a
        ``disk-error``).

        Under a ``stale-lease`` fault the lease is acquired but plays
        dead: mtime backdated past the TTL, no heartbeat — forcing
        waiters down the steal path while this holder compiles on.
        """
        try:
            return self._acquire(key, faults)
        except OSError:
            return None

    def _acquire(self, key: str, faults=None) -> Optional[Lease]:
        """:meth:`acquire`, raising a disk error after journalling it,
        so the caller can tell it from a lease held elsewhere."""
        spec = self._draw("lease", key, faults)
        silent = spec is not None and spec.kind == "stale-lease"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._key_lock(key):
                lease = self._create_lease(key, token=1, silent=silent)
        except OSError as exc:
            self._disk_error("lease", key, exc)
            raise
        if lease is None:
            return None
        if silent:
            self._event("fault", key, kind=spec.kind, site=spec.site)
            past = time.time() - (self.ttl * 2.0 + 1.0)
            try:
                os.utime(self.lease_path(key), (past, past))
            except OSError:
                pass
        else:
            lease.start()
        return lease

    def _read_lease(self, key: str) -> Optional[dict]:
        path = self.lease_path(key)
        try:
            raw = path.read_text()
            mtime = path.stat().st_mtime
        except OSError:
            return None
        try:
            info = json.loads(raw)
        except ValueError:
            info = None
        if not isinstance(info, dict):
            # A torn lease write: unreadable, unowned, immediately
            # stealable (nonce None can only match another torn read).
            info = {"pid": 0, "nonce": None, "token": 0, "ttl": 0.0}
        info["mtime"] = mtime
        return info

    def _lease_stale(self, info: dict) -> bool:
        """Dead holder (same-host pid probe) or heartbeat past TTL."""
        pid = info.get("pid")
        if isinstance(pid, int) and pid > 0:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except OSError:
                pass  # alive, or unknowable: fall through to the TTL
        try:
            ttl = float(info.get("ttl") or 0.0)
        except (TypeError, ValueError):
            ttl = 0.0
        ttl = ttl if ttl > 0 else self.ttl
        return time.time() - float(info.get("mtime", 0.0)) > ttl

    def steal(
        self, key: str, observed: dict, faults=None
    ) -> Optional[Lease]:
        """Take over a stale lease with the next fencing token.

        Under the per-key flock: re-read, confirm the lease is still
        the one we ``observed`` (same nonce) and still stale, unlink,
        re-create with ``token + 1``.  Any change since observation
        aborts the steal — a rival thief or a revived holder got there
        first, and the caller goes back to waiting.
        """
        spec = self._draw("steal", key, faults)
        if spec is not None and spec.kind == "lease-steal-race":
            self._event("fault", key, kind=spec.kind, site=spec.site)
            time.sleep(spec.seconds or 0.05)
        try:
            with self._key_lock(key):
                current = self._read_lease(key)
                if current is None:
                    return None
                if current.get("nonce") != observed.get("nonce"):
                    return None
                if not self._lease_stale(current):
                    return None
                try:
                    os.unlink(self.lease_path(key))
                except FileNotFoundError:
                    return None
                try:
                    token = int(current.get("token") or 0) + 1
                except (TypeError, ValueError):
                    token = 1
                lease = self._create_lease(key, token=token)
                if lease is not None:
                    self._event(
                        "steal", key,
                        token=token, victim=current.get("pid"),
                    )
                    lease.start()
                return lease
        except OSError as exc:
            self._disk_error("steal", key, exc)
            return None

    # -- the single-flight fetch --------------------------------------------
    def fetch_or_compute(
        self,
        key: str,
        produce: Callable[[], Tuple[object, bytes]],
        decode: Optional[Callable[[bytes], object]] = None,
        wait_timeout: Optional[float] = None,
        cancel: Optional[Callable[[], None]] = None,
        faults=None,
    ) -> Tuple[object, str]:
        """The full cross-process single-flight protocol for one key.

        ``produce`` computes the value and its serialized payload;
        ``decode`` revives a value from stored bytes (raising
        ``ValueError`` drops the artifact as unusable and recompiles).
        Returns ``(value, role)`` with role one of :data:`ROLE_HIT`,
        :data:`ROLE_DEDUP`, :data:`ROLE_COMPILE`, :data:`ROLE_FALLBACK`,
        and counts the role in :attr:`tally`.  ``cancel`` is the
        request-deadline probe: polled every iteration so a waiter
        honours its own deadline exactly like a local compile would.
        ``faults`` is the fault plan this call's reads, lease, steals
        and publish draw from.

        A disk error on the lease goes straight to the fallback: no
        holder exists to publish, so waiting could only use up
        ``wait_timeout``.
        """
        value, role = self._single_flight(
            key, produce, decode, wait_timeout, cancel, faults
        )
        self._count(role)
        return value, role

    def _single_flight(
        self, key, produce, decode, wait_timeout, cancel, faults
    ):
        timeout = self.wait_timeout if wait_timeout is None else wait_timeout
        deadline = time.monotonic() + timeout
        waited = False
        while True:
            if cancel is not None:
                cancel()
            releases = self._releases
            value = self._read_decoded(key, decode, faults)
            if value is not None:
                self._note_hit(key, waited)
                return value, (ROLE_DEDUP if waited else ROLE_HIT)
            try:
                lease = self._acquire(key, faults)
            except OSError:
                break
            if lease is None:
                info = self._read_lease(key)
                if info is not None and self._lease_stale(info):
                    lease = self.steal(key, info, faults)
                if lease is None:
                    if time.monotonic() >= deadline:
                        break
                    waited = True
                    with self._released:
                        if self._releases == releases:
                            self._released.wait(self.poll_interval)
                    continue
            try:
                # Re-check under the lease: the previous holder may
                # have published between our read and our acquire.
                value = self._read_decoded(key, decode, faults)
                if value is not None:
                    self._note_hit(key, waited)
                    return value, (ROLE_DEDUP if waited else ROLE_HIT)
                self._event("compile", key, token=lease.token)
                value, blob = produce()
                published = (
                    self.publish(key, blob, lease, faults) == "published"
                )
            finally:
                lease.release()
            if published:
                self.prune()
            return value, ROLE_COMPILE
        self._event("fallback", key)
        value, _blob = produce()
        return value, ROLE_FALLBACK

    def _read_decoded(self, key: str, decode, faults=None) -> Optional[object]:
        data = self.read(key, faults)
        if data is None:
            return None
        if decode is None:
            return data
        try:
            return decode(data)
        except ValueError as exc:
            self.drop(key, str(exc))
            return None

    # -- durable accounting --------------------------------------------------
    def events(self) -> List[dict]:
        """Every journalled event, oldest first (torn tail lines are
        skipped — the journal itself may be cut by a crash)."""
        try:
            raw = self.events_path.read_bytes()
        except OSError:
            return []
        out: List[dict] = []
        for line in raw.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "ev" in record:
                out.append(record)
        return out

    def counters(self) -> Dict[str, int]:
        """Fleet-wide counters aggregated from the event journal.

        ``dedup_hits`` is the headline number: reads that saved another
        process's compile — lease-waiters plus plain hits whose
        publisher was a different pid.
        """
        events = self.events()
        publisher: Dict[str, int] = {}
        for event in events:
            if event.get("ev") == "publish" and "key" in event:
                publisher.setdefault(str(event["key"]), int(event["pid"]))
        counts = {
            "publishes": 0, "compiles": 0, "log_hits": 0,
            "dedup_hits": 0, "steals": 0, "fenced_publishes": 0,
            "corruption_drops": 0, "disk_errors": 0, "fallbacks": 0,
            "torn_publishes": 0, "faults_injected": 0,
        }
        for event in events:
            ev = event.get("ev")
            if ev == "publish":
                counts["publishes"] += 1
            elif ev == "compile":
                counts["compiles"] += 1
            elif ev == "hit":
                counts["log_hits"] += 1
                owner = publisher.get(str(event.get("key")))
                if event.get("waited") or (
                    owner is not None and owner != event.get("pid")
                ):
                    counts["dedup_hits"] += 1
            elif ev == "steal":
                counts["steals"] += 1
            elif ev == "publish-fenced":
                counts["fenced_publishes"] += 1
            elif ev == "corrupt-drop":
                counts["corruption_drops"] += 1
            elif ev == "disk-error":
                counts["disk_errors"] += 1
            elif ev == "fallback":
                counts["fallbacks"] += 1
            elif ev == "publish-torn":
                counts["torn_publishes"] += 1
            elif ev == "fault":
                counts["faults_injected"] += 1
        return counts

    # -- the directory as a whole -------------------------------------------
    def _artifacts(self) -> List[Tuple[float, int, Path]]:
        """``(mtime, size, path)`` of every artifact on disk."""
        found = []
        if not self.directory.is_dir():
            return found
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted or dropped under us
            found.append((stat.st_mtime, stat.st_size, path))
        return found

    def __len__(self) -> int:
        return len(self._artifacts())

    def prune(self) -> int:
        """Evict oldest-mtime artifacts until the store fits
        ``max_bytes``; returns how many were evicted.

        Called after every publish, so the artifact just published is
        the newest and goes last.  Concurrent pruners racing on the
        same file are harmless: a lost unlink is just a miss.
        """
        if self.max_bytes is None:
            return 0
        entries = sorted(self._artifacts())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self._count("evict", evicted)
        return evicted

    def stats(self) -> Dict[str, object]:
        """On-disk shape, this process's :attr:`tally`, and the
        journal's counters for every process that used the directory."""
        entries = self._artifacts()
        tally = self.tally
        stats: Dict[str, object] = {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
            "max_bytes": self.max_bytes,
            "hits": tally[ROLE_HIT] + tally[ROLE_DEDUP],
            "misses": tally[ROLE_COMPILE] + tally[ROLE_FALLBACK],
            "evictions": tally["evict"],
            "lease_ttl": self.ttl,
        }
        stats.update(self.counters())
        return stats

    def clear(self) -> int:
        """Delete every artifact, stray temp file, lease, per-key lock
        and the event journal; returns how many artifacts went."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.json", "*.tmp", "*.lease", "*.lock"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        continue
                    removed += pattern == "*.json"
        try:
            self.events_path.unlink()
        except OSError:
            pass
        return removed
