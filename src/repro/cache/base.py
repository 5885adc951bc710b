"""Cache interface.

All caches in this library share a minimal byte-budgeted interface: look up an
item, admit an item, and report occupancy.  Caches store item *ids* and
*sizes*, never payloads — the simulation only needs to know whether a request
hits and how many bytes move.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Tuple

import numpy as np

from repro.cache.stats import CacheStats
from repro.exceptions import ConfigurationError, SimulationError


def access_stream(item_ids: np.ndarray,
                  sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(item_ids, sizes)`` as 1-D int64 and float64 arrays of one length.

    Every stream entry checks its input here before any side effect: a
    size array that does not line up with the ids raises
    :class:`~repro.exceptions.SimulationError` naming both lengths,
    rather than dropping accesses or booking some before failing.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    size_arr = np.asarray(sizes, dtype=np.float64)
    if ids.ndim != 1 or size_arr.ndim != 1 or ids.size != size_arr.size:
        raise SimulationError(
            f"an access stream needs one size per item id, got {ids.size} "
            f"item ids and {size_arr.size} sizes (shapes {ids.shape} and "
            f"{size_arr.shape})")
    return ids, size_arr


class Cache(ABC):
    """Byte-budgeted cache of dataset items.

    Args:
        capacity_bytes: Total byte budget.  A capacity of zero is legal and
            models the "cold, cache-disabled" configurations DS-Analyzer uses
            to measure the pure storage fetch rate.
    """

    def __init__(self, capacity_bytes: float) -> None:
        if not capacity_bytes >= 0:
            raise ConfigurationError(
                f"cache capacity must be a non-negative number, not "
                f"{capacity_bytes!r}")
        self._capacity = float(capacity_bytes)
        self._stats = CacheStats()

    @property
    def capacity_bytes(self) -> float:
        """Total byte budget."""
        return self._capacity

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters."""
        return self._stats

    @property
    @abstractmethod
    def used_bytes(self) -> float:
        """Bytes currently occupied."""

    @abstractmethod
    def __contains__(self, item_id: int) -> bool:
        """Whether the item is currently cached (no side effects)."""

    @abstractmethod
    def lookup(self, item_id: int) -> bool:
        """Record an access; return True on hit.

        Unlike ``__contains__`` this updates recency metadata (for policies
        that track it) and the hit/miss counters.
        """

    @abstractmethod
    def admit(self, item_id: int, size_bytes: float) -> bool:
        """Offer an item for caching after a miss; return True if cached."""

    @abstractmethod
    def cached_items(self) -> Iterable[int]:
        """Ids of all currently cached items."""

    def walk(self, item_ids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Look up each access in order, admitting it on a miss; the hit mask.

        The per-item reference every bulk path reproduces exactly, and the
        path the bulk entries fall back to when they cannot apply a stream
        in bulk.  ``sizes`` is aligned with ``item_ids``
        (:func:`access_stream`).
        """
        ids, size_arr = access_stream(item_ids, sizes)
        lookup, admit = self.lookup, self.admit
        hits = np.zeros(ids.size, dtype=bool)
        for i, (item_id, size) in enumerate(zip(ids.tolist(),
                                                size_arr.tolist())):
            if lookup(item_id):
                hits[i] = True
            else:
                admit(item_id, size)
        return hits

    def bulk_epoch_hits(self, item_ids: np.ndarray,
                        sizes: np.ndarray) -> np.ndarray:
        """Apply one single-pass epoch of accesses; return the hit mask.

        ``item_ids`` must be pairwise distinct (the DNN epoch invariant: every
        item at most once per epoch).  Where the policy's trajectory over
        such a pass is analytically known, a cache overrides this to apply
        *exactly* the mutations and counter updates of :meth:`walk` in
        bulk; this policy-agnostic default walks.
        """
        return self.walk(item_ids, sizes)

    def __len__(self) -> int:
        return sum(1 for _ in self.cached_items())

    @property
    def free_bytes(self) -> float:
        """Remaining byte budget."""
        return max(0.0, self._capacity - self.used_bytes)

    def occupancy(self) -> float:
        """Fraction of the byte budget in use."""
        if self._capacity == 0:
            return 0.0
        return self.used_bytes / self._capacity

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without touching contents."""
        self._stats = CacheStats()
