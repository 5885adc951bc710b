"""I/O accounting.

A loader books every item read here, once: bytes and requests by source
(storage, local cache, remote cache), plus a time series of (virtual time,
cumulative disk bytes) samples used to reproduce the disk-I/O-over-time
plots (Fig. 11).  It is the one ledger of a simulated read: the epoch
statistics, the snapshots and every experiment read these counters.

The timeline is kept in one form, a list of ``(times, cumulative)`` chunks
in recording order: the vectorised fetch path appends one float64 array
pair per epoch, and the per-item path one pair of 1-tuples per read.
:attr:`IOStats.timeline_columns` joins them into two float64 columns, and
:attr:`IOStats.timeline` derives ``(time, bytes)`` tuples from those.
Reading never mutates the chunks, so concurrent readers (the store's
write-once puts snapshot one finished record from several threads) always
see the same samples.  The snapshot codec (:meth:`IOStats.snapshot` /
:meth:`IOStats.from_snapshot`) goes through the columns, so a store hit, a
store put or a wire hop handles each timeline as two arrays, never sample
by sample.
"""

from __future__ import annotations

import base64
import hashlib
from itertools import chain, groupby
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: The counters, in constructor order (the ``*_bytes`` ones are floats).
_COUNTERS = ("disk_bytes", "disk_requests", "cache_bytes", "cache_requests",
             "remote_bytes", "remote_requests")


def _column(parts: Sequence[Sequence[float]]) -> np.ndarray:
    """One timeline column: its chunks joined into a new float64 array.

    Array chunks join as they are; each run of per-read 1-tuples becomes
    one array in a single ``fromiter`` pass, far cheaper than converting
    the tuples one by one.
    """
    pieces: List[np.ndarray] = []
    for kind, run in groupby(parts, type):
        if kind is tuple:
            pieces.append(np.fromiter(chain.from_iterable(run), np.float64))
        else:
            pieces.extend(run)
    return np.concatenate(pieces) if pieces else np.empty(0)


class IOStats:
    """Counters for one loader / one epoch / one server (caller's choice).

    Attributes:
        disk_bytes / disk_requests: Reads served by the storage device.
        cache_bytes / cache_requests: Reads served from the local DRAM cache.
        remote_bytes / remote_requests: Reads served from a remote server.
        timeline_columns: ``(times, cumulative disk bytes)`` float64 arrays,
            one sample per disk read recorded with a timestamp.
        timeline: The same samples as ``(time, bytes)`` tuples (derived).
    """

    def __init__(self, disk_bytes: float = 0.0, disk_requests: int = 0,
                 cache_bytes: float = 0.0, cache_requests: int = 0,
                 remote_bytes: float = 0.0, remote_requests: int = 0) -> None:
        self.disk_bytes = disk_bytes
        self.disk_requests = disk_requests
        self.cache_bytes = cache_bytes
        self.cache_requests = cache_requests
        self.remote_bytes = remote_bytes
        self.remote_requests = remote_requests
        # (times, cumulative disk bytes) chunks in recording order; a chunk
        # is never changed once appended.
        self._chunks: List[Tuple[Sequence[float], Sequence[float]]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IOStats(disk_bytes={self.disk_bytes}, "
                f"disk_requests={self.disk_requests}, "
                f"cache_requests={self.cache_requests}, "
                f"remote_requests={self.remote_requests})")

    @property
    def timeline(self) -> List[Tuple[float, float]]:
        """Per-read ``(time, cumulative disk bytes)`` samples, as a new list."""
        times, cumulative = self.timeline_columns
        return list(zip(times.tolist(), cumulative.tolist()))

    @property
    def timeline_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """The timeline as ``(times, cumulative disk bytes)`` float64 arrays."""
        chunks = self._chunks
        return (_column([times for times, _ in chunks]),
                _column([cumulative for _, cumulative in chunks]))

    @timeline_columns.setter
    def timeline_columns(self, columns: Tuple[np.ndarray, np.ndarray]) -> None:
        """Replace the timeline with the given columns (one chunk)."""
        times, cumulative = (np.asarray(c, dtype=np.float64) for c in columns)
        if times.shape != cumulative.shape or times.ndim != 1:
            raise ValueError("timeline columns must be two equal-length "
                             "1-D arrays")
        self._chunks = [(times, cumulative)] if times.size else []

    def record_disk(self, nbytes: float, at_time: float | None = None) -> None:
        """Account one read served by the storage device."""
        self.disk_bytes += nbytes
        self.disk_requests += 1
        if at_time is not None:
            # 1-tuples, not arrays: the per-item walk appends one per read.
            self._chunks.append(((at_time,), (self.disk_bytes,)))

    def record_disk_bulk(self, sizes: Sequence[float],
                         at_times: Optional[Sequence[float]] = None) -> None:
        """Account many storage reads at once (vectorised fetch path).

        Equivalent to calling :meth:`record_disk` once per entry of ``sizes``
        (zipped with ``at_times`` when given), including the per-read
        cumulative-byte samples of the timeline, which land as one chunk.
        """
        sizes = np.asarray(sizes, dtype=np.float64)
        if at_times is not None:
            self._chunks.append((np.asarray(at_times, dtype=np.float64),
                                 self.disk_bytes + np.cumsum(sizes)))
        self.disk_bytes += float(sizes.sum())
        self.disk_requests += int(sizes.size)

    def record_cache(self, nbytes: float) -> None:
        """Account one read served from the local DRAM cache."""
        self.cache_bytes += nbytes
        self.cache_requests += 1

    def record_cache_bulk(self, total_bytes: float, requests: int) -> None:
        """Account many local-cache reads at once (vectorised fetch path)."""
        self.cache_bytes += float(total_bytes)
        self.cache_requests += int(requests)

    def record_remote(self, nbytes: float) -> None:
        """Account one read served from a remote server's cache."""
        self.remote_bytes += nbytes
        self.remote_requests += 1

    def record_remote_bulk(self, total_bytes: float, requests: int) -> None:
        """Account many remote-cache reads at once (vectorised fetch path)."""
        self.remote_bytes += float(total_bytes)
        self.remote_requests += int(requests)

    @property
    def total_requests(self) -> int:
        """All item reads regardless of source."""
        return self.disk_requests + self.cache_requests + self.remote_requests

    @property
    def total_bytes(self) -> float:
        """All bytes read regardless of source."""
        return self.disk_bytes + self.cache_bytes + self.remote_bytes

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of requests served from local cache."""
        if self.total_requests == 0:
            return 0.0
        return self.cache_requests / self.total_requests

    @property
    def miss_ratio(self) -> float:
        """Fraction of requests that had to leave the local cache."""
        return 1.0 - self.cache_hit_ratio

    def copy(self) -> "IOStats":
        """Snapshot of the counters (timeline chunks shared, not re-built)."""
        snapshot = IOStats(*(getattr(self, name) for name in _COUNTERS))
        snapshot._chunks = list(self._chunks)
        return snapshot

    def snapshot(self, include_timeline: bool = False) -> Dict[str, Any]:
        """Canonical byte-exact form of the counters (floats as ``float.hex``).

        The (possibly long) per-read disk timeline is folded into a digest of
        its ``"<t hex>:<bytes hex>;"`` rendering: two timelines agree on the
        digest iff they agree sample for sample on the exact float bits, which
        keeps golden files small without weakening the byte-identical
        guarantee; the digest form cannot be inverted.  ``include_timeline``
        replaces the digest with the timeline itself — the self-contained
        variant the result store and both wire protocols carry, so the
        counters can be rehydrated losslessly (:meth:`from_snapshot`).  It
        is base64 of the little-endian float64 columns, all times then all
        cumulative bytes: exact bits, and no per-sample work on either side.
        """
        times, cumulative = self.timeline_columns
        data: Dict[str, Any] = {
            name: float(getattr(self, name)).hex() if name.endswith("_bytes")
            else getattr(self, name) for name in _COUNTERS}
        data["timeline_len"] = int(times.size)
        if include_timeline:
            columns = np.concatenate((times, cumulative)).astype("<f8", copy=False)
            data["timeline"] = base64.b64encode(columns.tobytes()).decode("ascii")
        else:
            # One update over the whole rendering hashes the same stream as
            # one update per sample.
            rendered = "".join(f"{t.hex()}:{b.hex()};" for t, b
                               in zip(times.tolist(), cumulative.tolist()))
            data["timeline_digest"] = hashlib.blake2b(
                rendered.encode("ascii"), digest_size=16).hexdigest()
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "IOStats":
        """Inverse of :meth:`snapshot` (requires the embedded timeline).

        Raises:
            ConfigurationError: The snapshot is digest-only with a non-empty
                timeline, or its timeline does not hold exactly
                ``timeline_len`` samples.
        """
        count = int(data["timeline_len"])
        if count and "timeline" not in data:
            raise ConfigurationError(
                "I/O snapshot carries only the timeline digest; rehydration "
                "needs the full-timeline form (snapshot(include_timeline=True))")
        raw = base64.b64decode(data.get("timeline", ""), validate=True)
        if len(raw) != 16 * count:
            raise ConfigurationError(
                f"I/O snapshot timeline holds {len(raw)} bytes, but "
                f"timeline_len {count} needs {16 * count}")
        io = cls(*(float.fromhex(data[name]) if name.endswith("_bytes")
                   else int(data[name]) for name in _COUNTERS))
        columns = np.frombuffer(raw, dtype="<f8")
        io.timeline_columns = (columns[:count], columns[count:])
        return io
