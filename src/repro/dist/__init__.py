"""Multi-host sweep fabric: distribute one `SweepRunner` grid across machines.

``repro.dist`` turns the store + pool + golden harness into a small
cluster compute fabric, stdlib-only:

* :class:`DistWorker` — the agent process behind ``repro dist worker
  --listen HOST:PORT``.  Speaks the length-prefixed JSON frame protocol
  of :mod:`repro.dist.protocol`, rebuilds simulation substrates from the
  wire runner spec through the same per-worker dataset/sampler caches
  :class:`~repro.store.PersistentPool` workers use, executes each point
  chunk serially on its connection thread, and streams byte-exact
  ``SweepRecord`` snapshots back as they finish.  One agent is one
  execution slot: a host that wants N cores runs N agents.
* :class:`DistExecutor` — the driver-side scheduler.  A drop-in for the
  ``pool=`` argument of :meth:`~repro.sim.sweep.SweepRunner.run` (and of
  the serve daemon): partitions store *misses* into chunks, assigns them
  across connected hosts, work-steals outstanding chunks from slow or
  stalled hosts, survives host death by reassigning chunks under a
  bounded budget, and reassembles results in input order.
* :class:`LocalWorkerFleet` — test/CI helper that spawns localhost agent
  subprocesses and can SIGKILL one mid-sweep to exercise the
  ``host-death`` fault kind.

The scale-out contract is the repo-wide determinism contract, extended:
because per-point seeding is scheduling-independent and the store is
write-once, a grid's results are **byte-identical at any topology** —
one and two agents replay the committed golden grids exactly
(``make dist-check``), duplicate steals collapse to one delivery, and
the merged multi-writer store trace still passes
:func:`~repro.store.verify_store_trace`.
"""

from repro.dist.executor import (
    DEFAULT_MAX_REASSIGNS,
    DEFAULT_STEAL_DELAY_S,
    DistExecutor,
)
from repro.dist.protocol import (
    DIST_PROTOCOL_VERSION,
    HOSTS_ENV_VAR,
    MAX_FRAME_BYTES,
    parse_hosts,
    recv_frame,
    resolve_hosts,
    send_frame,
)
from repro.dist.worker import (
    LISTENING_PREFIX,
    DistWorker,
    LocalWorkerFleet,
)

__all__ = [
    "DEFAULT_MAX_REASSIGNS",
    "DEFAULT_STEAL_DELAY_S",
    "DIST_PROTOCOL_VERSION",
    "DistExecutor",
    "DistWorker",
    "HOSTS_ENV_VAR",
    "LISTENING_PREFIX",
    "LocalWorkerFleet",
    "MAX_FRAME_BYTES",
    "parse_hosts",
    "recv_frame",
    "resolve_hosts",
    "send_frame",
]
