"""Pluggable storage backends for the content-addressed sweep store.

:class:`~repro.store.SweepStore` is split storage-engine style into a
*frontend* (counters, tracing, rehydration and the point guard — policy
that must not drift between backends) and a :class:`StoreBackend` that
owns the bytes.  Two backends implement the contract:

* :class:`JsonDirBackend` — one JSON file per entry at
  ``<dir>/<key[:2]>/<key>.json``, byte-for-byte compatible with every
  store directory written before backends existed.  Ideal for small
  stores, ``diff``-able by hand, and the format the golden corruption
  tests pin.
* :class:`SqliteBackend` — one WAL-mode SQLite database holding an
  *index* (key, point label, runner-spec digest, schema version,
  created-at timestamp, payload size, codec) next to *packed payloads*
  (the record snapshot as zlib-compressed canonical JSON; a row naming
  any other codec reads as an invalid entry, which the store deletes and
  re-simulates).  The index/payload split is the classic
  storage-engine move: ``stats`` / ``gc`` / ``invalidate`` become SQL
  queries instead of directory scans (``gc`` also checkpoints the WAL
  and ``VACUUM``\\ s so the file really shrinks), the write-once check is
  a single ``INSERT .. ON CONFLICT DO NOTHING``, and a hit never parses
  the JSON wrapper — schema and key come from the index, only the record
  snapshot itself is decoded.  The ``runner_digest`` index answers
  by-runner analytics (:meth:`~StoreBackend.stats_by_runner`) without
  touching payloads.

Pragma discipline (per the SQLite idioms in SNIPPETS.md):
``journal_mode=WAL`` (readers never block behind writers — the serve
daemon's concurrent reader threads are real, not serialised),
``synchronous=NORMAL`` (safe with WAL; no per-commit fsync),
``busy_timeout=30000`` (writers queue instead of erroring), timestamps
as ISO-8601 UTC text.  Connections are per-thread (``sqlite3`` objects
are not thread-safe; thread-local connections under WAL is what makes
the concurrency contract hold).

Both backends speak the same exchange types: ``get`` returns the record
snapshot dict *plus* the exact stored bytes (file bytes / packed blob) so
the frontend's operation trace digests what was physically read, and
``put`` returns the stored bytes (or ``None`` for a write-once-redundant
put) so put/get digests of one entry always agree —
:func:`~repro.store.verify_store_trace` depends on exactly that.
Unusable entries raise :class:`EntryInvalid` carrying the bytes that
were read; the frontend deletes, counts and re-simulates.
"""

from __future__ import annotations

import abc
import json
import os
import pathlib
import sqlite3
import threading
import zlib
from datetime import datetime, timezone
from typing import Any, ClassVar, Dict, List, NamedTuple, Optional, Tuple, \
    Union

from repro.exceptions import ConfigurationError

#: Version of the on-disk entry format.  It participates in every content
#: address (see :func:`repro.store.store_key`), so bumping it orphans
#: (never corrupts) all previous entries — a stale-schema entry can
#: simply never be looked up again.  Version 2 embeds each disk timeline
#: as base64 float64 columns.
STORE_SCHEMA_VERSION = 2

class RunnerStats(NamedTuple):
    """One ``stats --by-runner`` row: a runner spec's share of the store."""

    runner_digest: str
    entries: int
    payload_bytes: int


class EntryInvalid(Exception):
    """An entry exists but cannot be served (truncated, garbage, stale).

    ``payload`` carries whatever bytes were physically read, so the
    frontend's operation trace can record a digest of what the failed
    read actually saw (corrupted reads must appear as ``invalid`` — never
    ``hit`` — events for the trace contract to mean anything).
    """

    def __init__(self, message: str, payload: Optional[bytes] = None) -> None:
        super().__init__(message)
        self.payload = payload


class StoreBackend(abc.ABC):
    """Storage contract behind :class:`~repro.store.SweepStore`.

    Backends store *record snapshots* (the fully-invertible
    ``SweepRecord.snapshot(include_timeline=True)`` dict) under hex
    content addresses, enforce write-once puts, and answer the management
    queries (``entries`` / ``stats`` / ``gc`` / ``invalidate``) from
    whatever index they keep.  Session counters, tracing, rehydration and
    point validation live in the frontend and are identical across
    backends.
    """

    #: Short backend name (``"json"`` / ``"sqlite"``) surfaced in
    #: :class:`~repro.store.StoreStats`, ``/v1/stats`` and the CLI.
    kind: ClassVar[str] = "abstract"

    @property
    @abc.abstractmethod
    def path(self) -> pathlib.Path:
        """Filesystem root of the backend (directory or database file)."""

    @abc.abstractmethod
    def entry_path(self, key: str) -> pathlib.Path:
        """The file holding ``key``'s bytes (the db file for SQLite)."""

    @abc.abstractmethod
    def get(self, key: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """``(record snapshot, stored bytes)`` or ``None`` on a clean miss.

        Raises:
            EntryInvalid: The entry exists but is unusable (unparsable,
                truncated, mis-keyed or wrong-schema); carries the bytes
                that were read.
        """

    @abc.abstractmethod
    def put(self, key: str, snapshot: Dict[str, Any], *, label: str = "",
            runner_digest: str = "") -> Optional[bytes]:
        """Store ``snapshot`` under ``key`` unless it already exists.

        Returns the exact stored bytes, or ``None`` when the entry was
        already present (a write-once *redundant* put).  ``label`` and
        ``runner_digest`` are index metadata (ignored by backends without
        an index).
        """

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Best-effort removal of one entry (idempotent, never raises)."""

    @abc.abstractmethod
    def entries(self) -> List[str]:
        """Every stored key, sorted."""

    @abc.abstractmethod
    def stats(self) -> Tuple[int, int, int]:
        """``(entries, payload_bytes, disk_bytes)`` in one pass.

        ``payload_bytes`` is the stored entry bytes; ``disk_bytes`` the
        physical footprint (equal for the JSON backend; db + WAL + shm
        for SQLite).
        """

    @abc.abstractmethod
    def gc(self, max_entries: Optional[int],
           max_bytes: Optional[int]) -> int:
        """Prune oldest-first until within the budgets; return removals."""

    @abc.abstractmethod
    def invalidate(self, prefix: str) -> int:
        """Remove every key starting with ``prefix``; return removals."""

    def stats_by_runner(self) -> List[RunnerStats]:
        """Entries/bytes grouped by runner-spec digest, biggest first.

        Only backends that keep a runner index can answer this; the base
        implementation refuses loudly instead of scanning payloads.
        """
        raise ConfigurationError(
            f"the {self.kind} backend keeps no runner index; use a "
            f"sqlite:// store for by-runner analytics")

    def close(self) -> None:
        """Release backend resources (connections); idempotent."""


class JsonDirBackend(StoreBackend):
    """Directory-of-JSON backend: the store's original on-disk format.

    One file per entry at ``<dir>/<key[:2]>/<key>.json`` (the two-hex
    shard keeps directories small), each carrying the wrapper
    ``{"schema", "key", "record"}`` as canonical JSON — byte-for-byte
    what :class:`~repro.store.SweepStore` wrote before backends existed,
    so every pre-existing store directory keeps serving.  Writes are
    atomic (uniquely-named temp file + :func:`os.replace`), the
    write-once check is file existence, and the management queries scan
    the directory once per call with :func:`os.scandir` (one traversal
    collecting name, size and mtime together — not a glob plus a
    ``stat`` per file per field).
    """

    kind = "json"

    def __init__(self, directory: Union[str, os.PathLike]) -> None:
        self._directory = pathlib.Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._tmp_serial = 0

    @property
    def path(self) -> pathlib.Path:
        return self._directory

    def entry_path(self, key: str) -> pathlib.Path:
        return self._directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
        try:
            with open(self.entry_path(key), "rb") as handle:
                payload = handle.read()
        except FileNotFoundError:
            return None
        try:
            entry = json.loads(payload.decode("utf-8"))
            if entry["schema"] != STORE_SCHEMA_VERSION or entry["key"] != key:
                raise ValueError("store entry key/schema mismatch")
            snapshot = entry["record"]
            if not isinstance(snapshot, dict):
                raise ValueError("store entry record is not an object")
        except Exception as exc:
            raise EntryInvalid(str(exc), payload) from exc
        return snapshot, payload

    def put(self, key: str, snapshot: Dict[str, Any], *, label: str = "",
            runner_digest: str = "") -> Optional[bytes]:
        # label / runner_digest are index metadata; this layout's only
        # index is the filesystem, so they are intentionally unused.
        path = self.entry_path(key)
        if path.exists():
            return None
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            "record": snapshot,
        }
        payload = json.dumps(entry, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        with self._lock:
            serial = self._tmp_serial
            self._tmp_serial += 1
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}"
                             f"-{threading.get_ident()}-{serial}")
        try:
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        return payload

    def delete(self, key: str) -> None:
        try:
            self.entry_path(key).unlink()
        except OSError:
            pass

    def _scan(self) -> List[Tuple[float, int, pathlib.Path]]:
        """One directory traversal: (mtime, size, path) per entry file."""
        found: List[Tuple[float, int, pathlib.Path]] = []
        try:
            shards = [d for d in os.scandir(self._directory)
                      if d.is_dir() and len(d.name) == 2]
        except OSError:
            return found
        for shard in shards:
            try:
                candidates = list(os.scandir(shard.path))
            except OSError:  # raced with gc/invalidate
                continue
            for item in candidates:
                if not item.name.endswith(".json"):
                    continue
                try:
                    meta = item.stat()
                except OSError:
                    continue
                found.append((meta.st_mtime, meta.st_size,
                              pathlib.Path(item.path)))
        return found

    def entries(self) -> List[str]:
        return sorted(path.stem for _, _, path in self._scan())

    def stats(self) -> Tuple[int, int, int]:
        scan = self._scan()
        total = sum(size for _, size, _ in scan)
        return len(scan), total, total

    def gc(self, max_entries: Optional[int],
           max_bytes: Optional[int]) -> int:
        scan = sorted(self._scan())  # oldest first (mtime, size, path)
        entries = len(scan)
        total = sum(size for _, size, _ in scan)
        removed = 0
        for _, size, path in scan:
            over_entries = max_entries is not None and entries > max_entries
            over_bytes = max_bytes is not None and total > max_bytes
            if not (over_entries or over_bytes):
                break
            path.unlink(missing_ok=True)
            entries -= 1
            total -= size
            removed += 1
        return removed

    def invalidate(self, prefix: str) -> int:
        removed = 0
        for _, _, path in self._scan():
            if path.stem.startswith(prefix):
                path.unlink(missing_ok=True)
                removed += 1
        return removed


#: The payload codec every SQLite entry is packed with, recorded in each
#: row's ``codec`` column.
_CODEC = "zlib"


def _pack(data: bytes) -> bytes:
    """Compress one payload."""
    return zlib.compress(data, 6)


def _unpack(codec: str, blob: bytes) -> bytes:
    """Invert :func:`_pack`; a row naming any other codec is unreadable."""
    if codec != _CODEC:
        raise ValueError(f"unknown payload codec {codec!r}")
    return zlib.decompress(blob)


class SqliteBackend(StoreBackend):
    """Single-file WAL-mode SQLite backend: SQL index, packed payloads.

    The ``entries`` table is the index — key (primary key), point label,
    runner-spec digest, schema version, ISO-8601 UTC created-at, payload
    size and codec — and the payload column holds the record snapshot as
    compressed canonical JSON.  Management queries never touch payloads;
    a hit validates schema/key from the index (no wrapper parse) and
    decodes only the snapshot itself; the write-once contract is one
    atomic ``INSERT .. ON CONFLICT(key) DO NOTHING`` (strictly stronger
    than the JSON backend's existence check — racing writers cannot both
    store).  ``rowid`` order is insertion order, which is what ``gc``
    prunes oldest-first by.
    """

    kind = "sqlite"

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS entries (
        key            TEXT PRIMARY KEY,
        label          TEXT NOT NULL DEFAULT '',
        runner_digest  TEXT NOT NULL DEFAULT '',
        schema_version INTEGER NOT NULL,
        created_at     TEXT NOT NULL,
        payload_size   INTEGER NOT NULL,
        codec          TEXT NOT NULL,
        payload        BLOB NOT NULL
    )
    """

    def __init__(self, database: Union[str, os.PathLike]) -> None:
        self._db_path = pathlib.Path(database)
        if self._db_path.parent != pathlib.Path(""):
            self._db_path.parent.mkdir(parents=True, exist_ok=True)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: List[sqlite3.Connection] = []
        self._generation = 0
        self._connect()  # create the schema eagerly, fail fast on bad paths

    @property
    def path(self) -> pathlib.Path:
        return self._db_path

    def entry_path(self, key: str) -> pathlib.Path:
        return self._db_path

    def _connect(self) -> sqlite3.Connection:
        state = getattr(self._local, "state", None)
        if state is not None and state[0] == self._generation:
            return state[1]
        # Autocommit (isolation_level=None): every statement is its own
        # transaction, so the write-once INSERT and the management DELETEs
        # are each atomic without explicit BEGIN/COMMIT bookkeeping.
        con = sqlite3.connect(str(self._db_path), timeout=30.0,
                              isolation_level=None)
        con.execute("PRAGMA journal_mode=WAL")
        con.execute("PRAGMA synchronous=NORMAL")
        con.execute("PRAGMA busy_timeout=30000")
        con.execute(self._SCHEMA)
        # Backs the by-runner analytics: GROUP BY runner_digest is a pure
        # index scan, no payload is ever unpacked to answer it.
        con.execute("CREATE INDEX IF NOT EXISTS entries_runner_digest"
                    " ON entries(runner_digest)")
        with self._lock:
            generation = self._generation
            self._connections.append(con)
        self._local.state = (generation, con)
        return con

    def get(self, key: str) -> Optional[Tuple[Dict[str, Any], bytes]]:
        row = self._connect().execute(
            "SELECT schema_version, codec, payload FROM entries "
            "WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        schema_version, codec, blob = row
        blob = bytes(blob)
        if schema_version != STORE_SCHEMA_VERSION:
            raise EntryInvalid("store entry schema mismatch", blob)
        try:
            snapshot = json.loads(_unpack(codec, blob).decode("utf-8"))
            if not isinstance(snapshot, dict):
                raise ValueError("store entry record is not an object")
        except Exception as exc:
            raise EntryInvalid(str(exc), blob) from exc
        return snapshot, blob

    def put(self, key: str, snapshot: Dict[str, Any], *, label: str = "",
            runner_digest: str = "") -> Optional[bytes]:
        data = json.dumps(snapshot, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        blob = _pack(data)
        created = datetime.now(timezone.utc).isoformat(timespec="seconds")
        cursor = self._connect().execute(
            "INSERT INTO entries (key, label, runner_digest, schema_version,"
            " created_at, payload_size, codec, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
            " ON CONFLICT(key) DO NOTHING",
            (key, label, runner_digest, STORE_SCHEMA_VERSION, created,
             len(blob), _CODEC, blob))
        return blob if cursor.rowcount else None

    def delete(self, key: str) -> None:
        try:
            self._connect().execute("DELETE FROM entries WHERE key = ?",
                                    (key,))
        except sqlite3.Error:
            pass

    def entries(self) -> List[str]:
        rows = self._connect().execute(
            "SELECT key FROM entries ORDER BY key").fetchall()
        return [key for (key,) in rows]

    def stats(self) -> Tuple[int, int, int]:
        count, total = self._connect().execute(
            "SELECT COUNT(*), COALESCE(SUM(payload_size), 0)"
            " FROM entries").fetchone()
        disk = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                disk += os.path.getsize(f"{self._db_path}{suffix}")
            except OSError:
                pass
        return count, total, disk

    def gc(self, max_entries: Optional[int],
           max_bytes: Optional[int]) -> int:
        if max_entries is None and max_bytes is None:
            return 0
        # Keep the maximal newest suffix (rowid = insertion order) whose
        # count and running byte total stay within both budgets — exactly
        # the JSON backend's oldest-first greedy, as one SQL statement.
        cursor = self._connect().execute(
            "DELETE FROM entries WHERE rowid NOT IN ("
            " SELECT rowid FROM ("
            "  SELECT rowid,"
            "         ROW_NUMBER() OVER w AS newest_rank,"
            "         SUM(payload_size) OVER w AS newest_bytes"
            "  FROM entries"
            "  WINDOW w AS (ORDER BY rowid DESC"
            "               ROWS UNBOUNDED PRECEDING))"
            " WHERE (:max_entries IS NULL OR newest_rank <= :max_entries)"
            "   AND (:max_bytes IS NULL OR newest_bytes <= :max_bytes))",
            {"max_entries": max_entries, "max_bytes": max_bytes})
        if cursor.rowcount:
            # DELETE alone only marks pages free; after a large prune the
            # database file and its WAL keep their size.  VACUUM rebuilds
            # a compact image — but in WAL mode that rebuild itself
            # commits through the WAL, so the checkpoint must come after:
            # fold the vacuumed image into the main file and truncate the
            # WAL to zero.  Only then does the on-disk footprint actually
            # drop to the surviving entries.
            con = self._connect()
            con.execute("VACUUM")
            con.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return cursor.rowcount

    def invalidate(self, prefix: str) -> int:
        cursor = self._connect().execute(
            "DELETE FROM entries WHERE substr(key, 1, length(:p)) = :p",
            {"p": prefix})
        return cursor.rowcount

    def stats_by_runner(self) -> List[RunnerStats]:
        rows = self._connect().execute(
            "SELECT runner_digest, COUNT(*),"
            " COALESCE(SUM(payload_size), 0)"
            " FROM entries GROUP BY runner_digest"
            " ORDER BY 3 DESC, runner_digest").fetchall()
        return [RunnerStats(digest, entries, payload_bytes)
                for digest, entries, payload_bytes in rows]

    def close(self) -> None:
        with self._lock:
            connections, self._connections = self._connections, []
            self._generation += 1  # stale thread-locals reconnect lazily
        for con in connections:
            try:
                con.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass


#: URI scheme selecting :class:`SqliteBackend` in :func:`open_backend`
#: (and therefore in ``resolve_store`` / ``REPRO_SWEEP_STORE`` / every
#: ``--store`` flag): ``sqlite:///path/to/store.db``.
SQLITE_URI_PREFIX = "sqlite://"


def open_backend(location: Union[str, os.PathLike]) -> StoreBackend:
    """Open the backend a store location names.

    ``sqlite://PATH`` opens (creating if missing) a :class:`SqliteBackend`
    database at ``PATH``; any other value is a :class:`JsonDirBackend`
    directory.  Pass the URI as a string — ``pathlib`` normalisation
    would collapse the double slash.
    """
    text = os.fspath(location)
    if isinstance(text, str) and text.startswith(SQLITE_URI_PREFIX):
        return SqliteBackend(text[len(SQLITE_URI_PREFIX):])
    return JsonDirBackend(location)
