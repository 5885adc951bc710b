"""The MinIO cache (Sec. 4.1) — the paper's DNN-aware caching policy.

Key observation: DNN training accesses every item exactly once per epoch in a
random order, so *which* items are cached is irrelevant — all that matters is
that cached items are not evicted before they are used.  MinIO therefore never
replaces anything: items are admitted while there is space, and once the cache
is full all further requests for uncached items go to storage.  Every epoch
after the first then gets exactly ``len(cache)`` hits, the theoretical minimum
amount of disk I/O for the given DRAM budget.

The policy needs no recency or frequency bookkeeping, which is the point the
paper makes about its simplicity.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.cache.base import Cache


class MinIOCache(Cache):
    """Insert-while-space, never-evict cache specialised for DNN training."""

    def __init__(self, capacity_bytes: float) -> None:
        super().__init__(capacity_bytes)
        self._entries: Dict[int, float] = {}
        self._used = 0.0
        # Memoised membership table for the vectorised epoch path; rebuilt
        # lazily after any per-item admission invalidates it.
        self._member_table: Optional[np.ndarray] = None

    @property
    def used_bytes(self) -> float:
        return self._used

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._entries

    def cached_items(self) -> Iterable[int]:
        return list(self._entries.keys())

    def lookup(self, item_id: int) -> bool:
        size = self._entries.get(item_id)
        if size is None:
            self._stats.record_miss()
            return False
        self._stats.record_hit(size)
        return True

    def admit(self, item_id: int, size_bytes: float) -> bool:
        if item_id in self._entries:
            return True
        if self._used + size_bytes > self._capacity:
            # No replacement, ever: the request simply defaults to storage
            # and the cache contents survive to serve the next epoch.
            self._stats.rejected += 1
            return False
        self._entries[item_id] = size_bytes
        self._used += size_bytes
        self._stats.insertions += 1
        self._member_table = None
        return True

    def _membership_table(self, max_id: int) -> np.ndarray:
        """Boolean residency table covering ids up to ``max_id`` (memoised)."""
        table = self._member_table
        if table is None or table.size <= max_id:
            table = np.zeros(max_id + 1, dtype=bool)
            if self._entries:
                resident = np.fromiter(self._entries.keys(), dtype=np.int64,
                                       count=len(self._entries))
                table_size = int(max(max_id, resident.max())) + 1
                table = np.zeros(table_size, dtype=bool)
                table[resident] = True
            self._member_table = table
        return table

    def contains_array(self, item_ids: np.ndarray) -> np.ndarray:
        """Residency mask for many ids at once (no stats side effects)."""
        item_ids = np.asarray(item_ids, dtype=np.int64)
        return self._membership_table(int(item_ids.max(initial=0)))[item_ids]

    def bulk_epoch_hits(self, item_ids: np.ndarray, sizes: np.ndarray,
                        admit: Optional[np.ndarray] = None) -> np.ndarray:
        """One whole epoch of distinct accesses, vectorised.

        MinIO's trajectory over a single-pass epoch is always analytic: it
        never evicts, so an access hits iff the item was resident when the
        epoch started (an item admitted mid-epoch is not re-requested within
        the same epoch), and admissions are the greedy insert-while-space
        scan over the missed items in access order.  The mask, counters and
        cache contents after this call are identical to per-item ``lookup`` +
        ``admit`` calls over the same access stream.

        Args:
            item_ids: Pairwise-distinct access stream.
            sizes: Item byte sizes, aligned with ``item_ids``.
            admit: Optional boolean mask marking which accesses may be
                offered for admission after a miss.  Misses outside the mask
                are still counted as misses but are never ``admit``-ed (the
                partitioned loader uses this: remote-cache hits avoid the
                local miss path's admission).  ``None`` offers every miss.
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.float64)
        table = self._membership_table(int(item_ids.max(initial=0)))
        hits = table[item_ids]

        self._stats.hits += int(hits.sum())
        self._stats.hit_bytes += float(sizes[hits].sum())
        misses = ~hits
        self._stats.misses += int(misses.sum())

        offered = misses if admit is None else misses & np.asarray(admit, dtype=bool)
        miss_sizes = sizes[offered]
        if miss_sizes.size:
            # Greedy admission scan over the missed items in access order.
            # The suffix-minimum lets the scan stop as soon as nothing that
            # is still to come can possibly fit (O(1) on a full cache).
            suffix_min = np.minimum.accumulate(miss_sizes[::-1])[::-1].tolist()
            miss_ids = item_ids[offered].tolist()
            size_list = miss_sizes.tolist()
            capacity = self._capacity
            used = self._used
            admitted = 0
            rejected = 0
            for i, size in enumerate(size_list):
                # Same expression shape as admit()'s test so the early stop
                # is float-identical to rejecting each remaining item.
                if used + suffix_min[i] > capacity:
                    rejected += len(size_list) - i
                    break
                if used + size <= capacity:
                    self._entries[miss_ids[i]] = size
                    table[miss_ids[i]] = True
                    used += size
                    admitted += 1
                else:
                    rejected += 1
            self._used = used
            self._stats.insertions += admitted
            self._stats.rejected += rejected
        return hits

    @property
    def is_full(self) -> bool:
        """True when no further item of typical size can be admitted."""
        return self.free_bytes <= 0.0

    def item_size(self, item_id: int) -> float:
        """Size of a cached item (0.0 when not cached)."""
        return self._entries.get(item_id, 0.0)

    def evict(self, item_id: int) -> float:
        """Forcibly drop one entry; returns the bytes freed (0.0 if absent).

        MinIO itself never evicts — this exists for *external* loss events
        only: the failure scenarios use it when a crashed worker takes its
        slice of the shared cache down with it, so the survivors re-warm
        those items from storage on the next epoch.
        """
        size = self._entries.pop(item_id, None)
        if size is None:
            return 0.0
        self._used -= size
        self._member_table = None
        return size

    def clear(self) -> None:
        """Drop everything — only used when a training *job* ends."""
        self._entries.clear()
        self._used = 0.0
        self._member_table = None
