"""Compile-as-a-service: the paper's graceful degradation, one layer up.

The paper's run-time story (Fig. 5, §2.2) is *degraded, not dead*: when
the preheader alias/alignment/trip-count checks fail, execution falls
back to the safe uncoalesced loop instead of faulting.  PR 3 moved that
discipline into the compiler (transactional passes, skip/fallback);
this package moves it up to the process boundary — the whole
compile+simulate pipeline exposed as a long-running, fault-tolerant
service:

* :mod:`repro.service.protocol` — the JSON-lines request/response
  protocol spoken over a local Unix socket;
* :mod:`repro.service.server` — ``python -m repro serve``: the socket
  front end (shared with the fleet), a bounded request queue with load
  shedding, a worker pool sharing the disk compile cache (concurrent
  identical compiles deduped by the artifact store's lease),
  per-request deadlines enforced at the pipeline's cancellation points,
  and per-(machine, config) circuit breakers that serve *degraded*
  compiles (offending passes disabled) while open;
* :mod:`repro.service.client` — ``python -m repro submit``: a client
  with exponential-backoff-plus-jitter retries for retryable failures
  (connection refused, load-shed rejections, deadline timeouts);
* :mod:`repro.service.breaker` — the circuit-breaker state machine
  (closed → open → half-open → closed);
* :mod:`repro.service.fleet` + :mod:`repro.service.supervisor` —
  ``python -m repro serve --fleet N``: a supervised multi-*process*
  worker fleet behind one socket, sharded by (machine, config) so
  breaker state stays per-shard, with heartbeat-based hang detection,
  exponential-backoff restarts, exactly-once requeue of in-flight
  requests from crashed workers, and quarantine (degraded local
  compile + crash bundle) for requests that kill workers repeatedly;
* :mod:`repro.service.artifacts` — the crash-safe content-addressed
  artifact store under the compile cache: integrity-framed entries
  published by fsync + link-once, a lease-based single-flight protocol
  for threads and processes alike (heartbeats, staleness detection,
  fenced steals, in-process wake-up on release), a durable event
  journal behind the ``dedup``/``steal``/``corruption`` counters, and
  the seeded disk-fault hooks that ``python -m repro chaos --disk``
  drives;
* :mod:`repro.service.chaos` — the ``chaos --fleet`` and ``chaos
  --disk`` harnesses: one client loop and shared audits of the
  answers, the fleet, and the artifact journal.
"""

from repro.service.artifacts import ArtifactStore, Lease
from repro.service.breaker import (
    BREAKER_STATES,
    BreakerBoard,
    CircuitBreaker,
)
from repro.service.chaos import run_disk_chaos, run_fleet_chaos
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.fleet import FleetSupervisor
from repro.service.protocol import (
    PROTOCOL_VERSION,
    RETRYABLE_STATUSES,
    ProtocolError,
    default_socket_path,
)
from repro.service.server import CompileServer, LatencyRing
from repro.service.supervisor import Worker

__all__ = [
    "ArtifactStore",
    "BREAKER_STATES",
    "BreakerBoard",
    "CircuitBreaker",
    "CompileServer",
    "FleetSupervisor",
    "LatencyRing",
    "Lease",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RETRYABLE_STATUSES",
    "ServiceClient",
    "ServiceUnavailable",
    "Worker",
    "default_socket_path",
    "run_disk_chaos",
    "run_fleet_chaos",
]
