"""Content-addressed store of sweep results, over pluggable backends.

Every figure/table in the reproduction is a :class:`~repro.sim.sweep.SweepRunner`
grid, and every grid point is a pure function of its configuration: the
runner spec, the point spec and the result-affecting environment flags
(:meth:`~repro.sim.sweep.SweepRunner.point_spec` renders exactly that
identity).  :class:`SweepStore` memoises those functions on disk — the
serve-many-queries discipline of DS-Analyzer-style what-if tooling — so a
repeated ``report`` run, a re-run of one changed experiment, or a what-if
query over an already-simulated grid reduces to store reads.

Storage is delegated to a :class:`~repro.store.backend.StoreBackend`
(:class:`~repro.store.backend.JsonDirBackend` for plain directory
locations — byte-for-byte the original one-JSON-file-per-entry layout —
or :class:`~repro.store.backend.SqliteBackend` for ``sqlite://PATH``
locations: one WAL-mode database whose SQL index answers ``stats`` /
``gc`` / ``invalidate`` without directory scans and whose payloads are
compressed snapshot bytes).  This frontend owns everything that must not
drift between backends: session counters, the operation trace,
rehydration (:meth:`~repro.sim.sweep.SweepRecord.from_snapshot`) and the
point guard.  Corruption of any entry degrades to a counted miss, is
deleted, and is repaired by re-simulation — it can cost time, never
correctness.

The store key covers, besides the runner/point/env spec, a digest of the
simulator's *source* — all of ``repro`` outside the service layers
(:func:`source_digest`): editing the simulator orphans every previously
stored entry instead of serving bytes computed by different code — stale
hits are structurally impossible, not a discipline.

The store is **concurrency-safe** — the contract the serve layer
(:mod:`repro.serve`) builds on:

* entries are *write-once*: a key's content is a pure function of its
  spec, so the first completed writer wins and later writers of the same
  key are skipped (counted as ``redundant_puts``).  The JSON backend
  converges through atomic same-bytes replaces; the SQLite backend
  through a single conflict-ignoring insert;
* session counters are guarded by a lock, and an optional **operation
  trace** (``SweepStore(location, trace=True)``) records every get/put
  with a digest of the stored bytes it saw — :func:`verify_store_trace`
  replays the trace and checks the write-once read/write consistency
  contract over it (in the spirit of PRAM-consistency trace checking),
  which is how the concurrency tests prove, per backend, that readers
  can never observe torn or cross-served bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Union

from repro.exceptions import ConfigurationError
from repro.resilience.faults import active_injector
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.sim.sweep import SweepPoint, SweepRecord, SweepRunner
from repro.store.backend import (
    STORE_SCHEMA_VERSION,
    EntryInvalid,
    JsonDirBackend,
    SqliteBackend,
    StoreBackend,
    open_backend,
)

__all__ = [
    "STORE_ENV_VAR",
    "STORE_SCHEMA_VERSION",
    "StoreArg",
    "StoreStats",
    "StoreTraceEvent",
    "SweepStore",
    "merge_store_traces",
    "migrate_store",
    "resolve_store",
    "runner_spec_digest",
    "source_digest",
    "store_key",
    "verify_store_trace",
]

#: Environment variable supplying the default store location of
#: :meth:`repro.sim.sweep.SweepRunner.run` (and therefore of every
#: sweep-backed experiment and the CLI) when no explicit ``store`` is
#: passed.  A directory path or a ``sqlite://PATH`` URI; unset or empty
#: means "no store".
STORE_ENV_VAR = "REPRO_SWEEP_STORE"

#: Retry policy of every :class:`SweepStore`'s backend calls (three
#: retries over ~35 ms).
STORE_RETRY_POLICY = RetryPolicy()

#: Top-level ``repro`` packages and modules :func:`source_digest` leaves
#: out: the service layers around the simulator, whose code moves no
#: simulated byte.
SERVICE_LAYERS = ("cli", "dist", "experiments", "resilience", "serve",
                  "store")

#: Memoised :func:`source_digest` value (the source tree cannot change
#: under a running process in any way the digest should chase).
_SOURCE_DIGEST: Optional[str] = None


def _source_files() -> Dict[str, pathlib.Path]:
    """Every ``.py`` file of ``repro`` outside :data:`SERVICE_LAYERS`,
    keyed by its path relative to the package, in sorted order."""
    import repro
    root = pathlib.Path(repro.__file__).resolve().parent
    files = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[0].removesuffix(".py") not in SERVICE_LAYERS:
            files[str(relative)] = path
    return files


def source_digest() -> str:
    """Digest of the simulator's source code, folded into every store key.

    Covers every ``.py`` file of the ``repro`` package outside the
    service layers (:data:`SERVICE_LAYERS`: store, serve, dist,
    resilience, experiments and the CLI).  That is every module a
    simulated point can run — the simulator, caches, loaders, prep,
    storage, datasets, compute and cluster models, CoorDL, DS-Analyzer,
    units and exceptions.  Each file enters as its path relative to the
    package plus its contents, so *any* simulator edit moves every
    content address: a store can never serve a hit computed by code that
    no longer exists.  This replaces "remember to ``repro store
    invalidate`` after simulator changes" with a structural guarantee
    (``invalidate`` remains for out-of-tree causes).  Memoised per
    process; unreadable files are skipped (a partial digest still
    changes whenever readable source does).
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        digest = hashlib.blake2b(digest_size=8)
        for relative, path in _source_files().items():
            digest.update(relative.encode())
            digest.update(b"\0")
            try:
                digest.update(path.read_bytes())
            except OSError:
                pass
            digest.update(b"\0")
        _SOURCE_DIGEST = digest.hexdigest()
    return _SOURCE_DIGEST


def store_key(spec: Dict[str, Any]) -> str:
    """Stable BLAKE2 content address of one canonical point spec.

    ``spec`` is :meth:`~repro.sim.sweep.SweepRunner.point_spec` output (or
    anything JSON-stable); the digest covers the spec,
    :data:`STORE_SCHEMA_VERSION` *and* the simulator
    :func:`source_digest`, rendered as canonical JSON (sorted keys, no
    whitespace) so dict ordering can never move the address.
    """
    payload = json.dumps({"schema": STORE_SCHEMA_VERSION,
                          "source": source_digest(), "spec": spec},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def runner_spec_digest(runner_spec: Dict[str, Any]) -> str:
    """Short digest of one canonical runner spec (store index metadata).

    :meth:`~repro.sim.sweep.SweepRunner.run` stamps it on every entry it
    writes, so an indexed backend can answer "which runner configuration
    produced these entries" (and group/prune by it) without unpacking a
    single payload.
    """
    payload = json.dumps(runner_spec, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class StoreTraceEvent:
    """One recorded store operation (``SweepStore(..., trace=True)``).

    Attributes:
        seq: Global order the event was recorded in (per store instance).
        op: ``"get"`` or ``"put"``.
        key: Content address the operation targeted.
        outcome: ``"hit"`` / ``"miss"`` / ``"invalid"`` /
            ``"unavailable"`` (degraded, backend not consulted) for gets;
            ``"stored"`` / ``"redundant"`` / ``"skipped"`` (degraded or
            failed, nothing written) for puts.  Only ``stored`` and
            ``hit`` carry bytes, and only they participate in
            :func:`verify_store_trace` — degraded outcomes cannot create
            consistency violations because they serve no bytes.
        digest: BLAKE2 digest of the stored bytes the operation read or
            wrote (``None`` when nothing was read/written — a plain miss
            or a skipped redundant put).
        thread: ``threading.get_ident()`` of the operating thread.
        writer: Identity of the writing *process/driver* the event came
            from (``SweepStore(..., trace_writer="driver-a")``); empty for
            single-writer traces.  :func:`merge_store_traces` stamps and
            re-sequences events from several stores so the multi-host
            consistency check runs over one merged trace.
    """

    seq: int
    op: str
    key: str
    outcome: str
    digest: Optional[str]
    thread: int
    writer: str = ""


def verify_store_trace(events: List[StoreTraceEvent]) -> List[str]:
    """Check a recorded read/write trace against the write-once contract.

    The store's consistency claim reduces to two trace properties (the
    read/write-trace checking discipline of Wei et al.'s PRAM-consistency
    verifier, specialised to write-once registers):

    * **write-once**: every ``stored`` put of one key wrote the same bytes
      (same digest) — concurrent writers may race, but only to identical
      content;
    * **reads serve writes**: every ``hit`` returned bytes that some put
      of that key wrote (or, for keys never written in the trace, the same
      bytes as every other hit of that key — a pre-populated entry).

    Returns a list of human-readable violations; an empty list means the
    trace is consistent.  Torn reads, cross-served keys and lost updates
    all surface as digest mismatches here.  The properties are
    backend-independent (digests are of whatever bytes the backend
    physically stores), which is how one checker re-proves the contract
    for each backend.

    The checker is also writer-agnostic: a trace merged from several
    concurrent writer processes (:func:`merge_store_traces`) is checked
    by exactly the same two rules, because both properties are
    order-independent across writers — write-once compares *contents*,
    not orderings, and determinism makes every writer's bytes for one
    key identical.  That is what lets one checker certify the
    distributed fabric's "duplicate steals are harmless" claim.
    """
    violations: List[str] = []
    written: Dict[str, Dict[str, int]] = {}
    preexisting: Dict[str, str] = {}
    for event in sorted(events, key=lambda e: e.seq):
        if event.op == "put" and event.outcome == "stored":
            digests = written.setdefault(event.key, {})
            digests.setdefault(event.digest or "", event.seq)
            if len(digests) > 1:
                violations.append(
                    f"write-once violated for {event.key}: puts wrote "
                    f"{len(digests)} distinct contents (seqs {sorted(digests.values())})")
        elif event.op == "get" and event.outcome == "hit":
            digests = written.get(event.key)
            if digests is not None:
                if (event.digest or "") not in digests:
                    violations.append(
                        f"hit at seq {event.seq} for {event.key} returned bytes "
                        f"no put of that key wrote")
            else:
                seen = preexisting.setdefault(event.key, event.digest or "")
                if seen != (event.digest or ""):
                    violations.append(
                        f"hits of never-written key {event.key} disagree "
                        f"(seq {event.seq})")
    return violations


def merge_store_traces(
        traces: Dict[str, List[StoreTraceEvent]]) -> List[StoreTraceEvent]:
    """Merge per-writer traces into one globally-sequenced trace.

    ``traces`` maps a writer id (a driver/process name) to that writer's
    recorded events (``SweepStore(..., trace=True)`` output).  Events are
    interleaved deterministically — by each writer's local ``seq``, ties
    broken by writer id — re-numbered with a fresh global ``seq``, and
    stamped with their writer id.  Per-writer order is preserved, which
    is all :func:`verify_store_trace` needs: its two properties are
    order-independent *across* writers, so any order-preserving
    interleave certifies (or indicts) the same set of executions.
    """
    merged = sorted(
        ((event, writer) for writer, events in traces.items()
         for event in events),
        key=lambda pair: (pair[0].seq, pair[1]))
    return [replace(event, seq=seq, writer=writer or event.writer)
            for seq, (event, writer) in enumerate(merged)]


@dataclass
class StoreStats:
    """On-disk footprint plus this-process session counters of one store.

    ``entries``/``total_bytes``/``disk_bytes`` come from the backend's
    index (one directory scan for JSON, one SQL aggregate for SQLite) at
    call time; the session counters count what *this*
    :class:`SweepStore` instance served since construction (the CI store
    leg asserts a warm run is all hits through them).  ``total_bytes``
    is stored entry bytes; ``disk_bytes`` the physical footprint (for
    SQLite: database + WAL + shared-memory files).
    """

    directory: str
    entries: int
    total_bytes: int
    hits: int
    misses: int
    puts: int
    invalid: int
    redundant_puts: int = 0
    backend: str = "json"
    disk_bytes: int = 0
    retries: int = 0
    skipped_puts: int = 0
    mode: str = "ok"
    degraded_reason: str = ""

    @property
    def degraded(self) -> bool:
        """True once the store has stepped down the degradation ladder."""
        return self.mode != "ok"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON dumps in the CI store leg and /v1/stats)."""
        return {
            "directory": self.directory,
            "backend": self.backend,
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "disk_bytes": self.disk_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalid": self.invalid,
            "redundant_puts": self.redundant_puts,
            "retries": self.retries,
            "skipped_puts": self.skipped_puts,
            "mode": self.mode,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }


class SweepStore:
    """Content-addressed sweep-record store over one storage backend.

    Args:
        location: Store location — a directory path (JSON backend), a
            ``sqlite://PATH`` URI (SQLite backend), or an already-open
            :class:`~repro.store.backend.StoreBackend`.  Created if
            missing.
        trace: Record every get/put as a :class:`StoreTraceEvent` in
            :attr:`trace_events` (with a digest of the bytes involved),
            for :func:`verify_store_trace`-style consistency checking.
            Off by default — tracing holds every event in memory.
        trace_writer: Writer id stamped on every recorded event, so the
            traces of several concurrent writer processes can be merged
            (:func:`merge_store_traces`) and checked as one — the
            multi-host fabric's consistency proof.  Empty (the default)
            for single-writer traces.

    Backend gets/puts run under :data:`STORE_RETRY_POLICY` (transient
    errors retried with deterministic backoff, counted in ``retries``),
    with the store-fault schedule of
    :func:`~repro.resilience.active_injector` firing inside; both are read
    at construction.

    Counters ``hits`` / ``misses`` / ``puts`` / ``invalid`` /
    ``redundant_puts`` accumulate per instance (lock-guarded, so one
    store may be shared across threads — the serve daemon does exactly
    that); ``invalid`` counts entries that existed but could not be
    served (unparsable, truncated, mis-keyed, schema or point mismatch) —
    every invalid get is also a miss; ``redundant_puts`` counts writes
    skipped because a concurrent (or earlier) writer already stored the
    key — write-once semantics; ``retries`` counts backend operations
    that had to be re-attempted.

    **Degradation ladder.**  The store is a cache in front of a pure
    function, so backend failure can cost time but must never fail a
    run.  An operation that exhausts its retries steps the store down a
    one-way ladder for the rest of the session, recorded in ``mode``:
    a put failure degrades ``ok`` → ``read-only`` (later puts are
    skipped and counted in ``skipped_puts``; gets still serve hits); a
    get failure degrades straight to ``no-store`` (gets return misses
    without touching the backend, puts are skipped — pure
    compute-through).  ``stats()`` surfaces ``mode``, a ``degraded``
    flag and the failure that caused the (latest) step-down, which is
    what ``/v1/health`` reports for the serve layer's store subsystem.
    """

    #: Degradation ladder states, healthiest first.
    MODES = ("ok", "read-only", "no-store")

    def __init__(self, location: Union[str, os.PathLike, StoreBackend],
                 trace: bool = False, trace_writer: str = "") -> None:
        if isinstance(location, StoreBackend):
            self._backend = location
        else:
            self._backend = open_backend(location)
        self._trace_writer = trace_writer
        self._lock = threading.Lock()
        self._retry_policy = STORE_RETRY_POLICY
        self._injector = active_injector()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.invalid = 0
        self.redundant_puts = 0
        self.retries = 0
        self.skipped_puts = 0
        self.mode = "ok"
        self.degraded_reason = ""
        self.trace_events: Optional[List[StoreTraceEvent]] = ([] if trace
                                                              else None)

    def _note(self, op: str, key: str, outcome: str,
              payload: Optional[bytes], **counters: int) -> None:
        """Bump session counters and (when tracing) append one event."""
        with self._lock:
            for name, delta in counters.items():
                setattr(self, name, getattr(self, name) + delta)
            if self.trace_events is not None:
                digest = (hashlib.blake2b(payload, digest_size=16).hexdigest()
                          if payload is not None else None)
                self.trace_events.append(StoreTraceEvent(
                    seq=len(self.trace_events), op=op, key=key,
                    outcome=outcome, digest=digest,
                    thread=threading.get_ident(),
                    writer=self._trace_writer))

    @property
    def backend(self) -> StoreBackend:
        """The storage backend this store fronts."""
        return self._backend

    @property
    def degraded(self) -> bool:
        """True once any backend operation has exhausted its retries."""
        return self.mode != "ok"

    def _count_retry(self, exc: BaseException) -> None:
        with self._lock:
            self.retries += 1

    def _call_backend(self, op: str, fn):
        """Run one backend operation under fault injection and retry."""
        injector = self._injector

        def attempt():
            if injector is not None:
                injector.store_fault(op)
            return fn()

        return call_with_retry(attempt, policy=self._retry_policy,
                               on_retry=self._count_retry)

    def _degrade(self, mode: str, exc: BaseException) -> None:
        """Step down the ladder (one-way; a later, worse failure can
        still push ``read-only`` down to ``no-store``)."""
        with self._lock:
            if self.MODES.index(mode) > self.MODES.index(self.mode):
                self.mode = mode
                self.degraded_reason = f"{type(exc).__name__}: {exc}"

    @property
    def directory(self) -> pathlib.Path:
        """Filesystem root of the store (db file for the SQLite backend)."""
        return self._backend.path

    def key_for(self, runner: SweepRunner, point: SweepPoint) -> str:
        """Content address of one point under one runner configuration."""
        return store_key(runner.point_spec(point))

    def entry_path(self, key: str) -> pathlib.Path:
        """The file ``key``'s bytes live in (whether or not they exist).

        One file per entry for the JSON backend; the shared database
        file for SQLite.
        """
        return self._backend.entry_path(key)

    def _discard(self, key: str) -> None:
        """Best-effort deletion of an unusable entry.

        The deletion matters under write-once puts: it is what re-opens
        the key for the repairing writer.  Racing readers may both try;
        backend deletes are idempotent.
        """
        try:
            self._backend.delete(key)
        except Exception:
            pass

    # -- lookup / insert -----------------------------------------------------

    def get(self, key: str,
            point: Optional[SweepPoint] = None) -> Optional[SweepRecord]:
        """Rehydrated record for ``key``, or ``None`` on any kind of miss.

        A present-but-unusable entry (garbage bytes, truncated payload,
        wrong embedded key/schema, or — when ``point`` is given — a
        rehydrated record whose point spec does not match the query)
        counts as ``invalid``, is deleted (best-effort) and is reported
        as a miss; the caller re-simulates and :meth:`put` repairs the
        entry.

        A backend *error* (as opposed to a bad entry) is retried under
        the store's retry policy; exhausting it degrades the store to
        ``no-store`` mode — this and every later get is a counted miss
        served without touching the backend, and the caller computes
        through.  Reads can cost time, never fail a run.
        """
        if self.mode == "no-store":
            self._note("get", key, "unavailable", None, misses=1)
            return None
        try:
            found = self._call_backend("get", lambda: self._backend.get(key))
        except EntryInvalid as exc:
            self._discard(key)
            self._note("get", key, "invalid", exc.payload,
                       invalid=1, misses=1)
            return None
        except Exception as exc:
            self._degrade("no-store", exc)
            self._note("get", key, "unavailable", None, misses=1)
            return None
        if found is None:
            self._note("get", key, "miss", None, misses=1)
            return None
        snapshot, payload = found
        try:
            record = SweepRecord.from_snapshot(snapshot)
            if point is not None and record.point != point:
                raise ConfigurationError("store entry point mismatch")
        except Exception:
            # Treat every malformed entry as a (counted) miss, never an
            # error: the store is a cache, and re-simulation repairs it.
            self._discard(key)
            self._note("get", key, "invalid", payload, invalid=1, misses=1)
            return None
        self._note("get", key, "hit", payload, hits=1)
        return record

    def put(self, key: str, record: SweepRecord,
            runner_digest: str = "") -> pathlib.Path:
        """Persist one record under ``key``; returns its entry path.

        Write-once: if the entry already exists it is left untouched (the
        content of a key is a pure function of its spec, so the first
        completed writer's bytes are every writer's bytes) and the call
        counts as ``redundant``.  ``runner_digest`` — normally stamped by
        :meth:`~repro.sim.sweep.SweepRunner.run` via
        :func:`runner_spec_digest` — and the record's point label become
        index metadata on backends that keep an index.

        A backend error is retried under the store's retry policy;
        exhausting it degrades the store to ``read-only`` mode — this
        and every later put is skipped (counted in ``skipped_puts``) and
        the run keeps its in-memory result.  Writes can be lost to a
        broken backend, but a run is never failed by one.
        """
        if self.mode != "ok":
            self._note("put", key, "skipped", None, skipped_puts=1)
            return self._backend.entry_path(key)
        snapshot = record.snapshot(include_timeline=True)
        try:
            stored = self._call_backend(
                "put", lambda: self._backend.put(
                    key, snapshot, label=record.point.label or "",
                    runner_digest=runner_digest))
        except Exception as exc:
            self._degrade("read-only", exc)
            self._note("put", key, "skipped", None, skipped_puts=1)
            return self._backend.entry_path(key)
        if stored is None:
            self._note("put", key, "redundant", None, redundant_puts=1)
        else:
            self._note("put", key, "stored", stored, puts=1)
        return self._backend.entry_path(key)

    # -- management ----------------------------------------------------------

    def stats(self) -> StoreStats:
        """Backend index totals combined with the session counters.

        Keeps working on a degraded store: if the backend index itself
        cannot be read, the on-disk totals are reported as zero and the
        session counters (which live in this process) still tell the
        story — health endpoints must not 500 because the disk did.
        """
        try:
            entries, total_bytes, disk_bytes = self._backend.stats()
        except Exception:
            entries, total_bytes, disk_bytes = 0, 0, 0
        return StoreStats(
            directory=str(self._backend.path),
            entries=entries,
            total_bytes=total_bytes,
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
            invalid=self.invalid,
            redundant_puts=self.redundant_puts,
            backend=self._backend.kind,
            disk_bytes=disk_bytes,
            retries=self.retries,
            skipped_puts=self.skipped_puts,
            mode=self.mode,
            degraded_reason=self.degraded_reason,
        )

    def stats_by_runner(self):
        """Entries/bytes grouped by runner-spec digest, biggest first.

        Answered by the backend's ``runner_digest`` index (the SQLite
        backend's indexed GROUP BY — no payload is unpacked); backends
        without a runner index raise
        :class:`~repro.exceptions.ConfigurationError`.  Returns
        :class:`~repro.store.backend.RunnerStats` rows.
        """
        return self._backend.stats_by_runner()

    def gc(self, max_entries: Optional[int] = None,
           max_bytes: Optional[int] = None) -> int:
        """Prune oldest-first until within the given budgets.

        Either budget may be ``None`` (unbounded); with both ``None`` this
        is a no-op.  Returns the number of entries removed.  "Oldest" is
        file mtime for the JSON backend and insertion order for SQLite.
        """
        if max_entries is not None and max_entries < 0:
            raise ConfigurationError("max_entries must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError("max_bytes must be >= 0")
        return self._backend.gc(max_entries, max_bytes)

    def invalidate(self, prefix: str = "") -> int:
        """Remove every entry whose key starts with ``prefix`` (default: all).

        Returns the number of entries removed.  Invalidation is how a user
        forces re-simulation after changing something the key does not
        cover (in-tree simulator edits are covered by
        :func:`source_digest`; this handles everything else).
        """
        return self._backend.invalidate(prefix)

    def close(self) -> None:
        """Release backend resources (connections); idempotent."""
        self._backend.close()


def migrate_store(source: "StoreArg", dest: "StoreArg") -> int:
    """Copy every entry of ``source`` into ``dest``; returns the count.

    Keys are preserved verbatim and each record round-trips through
    rehydration (:meth:`SweepStore.get`) and a deterministic re-snapshot
    (:meth:`SweepStore.put`), so the destination rehydrates bit-identical
    records under an identical key set — whichever direction the backends
    convert in.  Entries the source cannot serve (corrupt, stale schema)
    are skipped, exactly as a reader would skip them.  Existing
    destination entries are left untouched (write-once puts).
    """
    src = resolve_store(source)
    dst = resolve_store(dest)
    if src is None or dst is None:
        raise ConfigurationError("migrate needs explicit source and "
                                 "destination stores")
    migrated = 0
    for key in src.backend.entries():
        record = src.get(key)
        if record is None:
            continue
        dst.put(key, record)
        migrated += 1
    return migrated


#: What :func:`resolve_store` accepts (and, transitively, the ``store=``
#: argument of every sweep-backed ``run``): an open store or backend, a
#: directory path or ``sqlite://`` URI, ``None`` for the environment
#: default, ``False`` to disable.
StoreArg = Union["SweepStore", StoreBackend, str, os.PathLike, None, bool]


def resolve_store(store: StoreArg) -> Optional[SweepStore]:
    """Normalise a user-facing ``store=`` argument to an open store.

    * :class:`SweepStore` — returned as-is;
    * a :class:`~repro.store.backend.StoreBackend` — wrapped;
    * a path or ``sqlite://PATH`` URI — opened (created if missing);
    * ``None`` — the :data:`STORE_ENV_VAR` environment default (no store
      when unset/empty);
    * ``False`` — explicitly no store, even when the variable is set.
    """
    if isinstance(store, SweepStore):
        return store
    if store is None:
        env = os.environ.get(STORE_ENV_VAR, "").strip()
        return SweepStore(env) if env else None
    if store is False:
        return None
    if isinstance(store, (str, os.PathLike, StoreBackend)):
        return SweepStore(store)
    raise ConfigurationError(
        f"store must be a SweepStore, a StoreBackend, a path, a sqlite:// "
        f"URI, None or False, not {type(store).__name__}")
