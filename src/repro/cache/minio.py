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

import math
from typing import Dict, Iterable, Optional

import numpy as np

from repro.cache.base import Cache, access_stream
from repro.exceptions import ConfigurationError, SimulationError


def _bad_size(item_id: int, size_bytes: float) -> ConfigurationError:
    return ConfigurationError(
        f"item {item_id} has a negative or non-finite size: "
        f"{size_bytes!r} bytes")


def _check_ids(item_ids: np.ndarray, distinct: bool) -> None:
    """Raise :class:`~repro.exceptions.SimulationError` naming the first
    negative id and, with ``distinct``, the first id in stream order that
    occurs twice.  O(n) with no sort: a min and one bool scatter."""
    if item_ids.min(initial=0) < 0:
        first = int(item_ids[(item_ids < 0).argmax()])
        raise SimulationError(
            f"item ids must be non-negative, got item {first}")
    if distinct:
        seen = np.zeros(int(item_ids.max(initial=-1)) + 1, dtype=bool)
        seen[item_ids] = True
        if np.count_nonzero(seen) != item_ids.size:
            repeated = np.bincount(item_ids)[item_ids] > 1
            first = int(item_ids[repeated.argmax()])
            raise SimulationError(f"a bulk admission needs pairwise-distinct "
                                  f"item ids; item {first} occurs twice")


class MinIOCache(Cache):
    """Insert-while-space, never-evict cache specialised for DNN training.

    Item sizes must be finite and non-negative: every entry raises
    :class:`~repro.exceptions.ConfigurationError` naming the item before
    it changes anything.  The bulk entries take non-negative ids, and the
    two that admit distinct ones, or raise :class:`SimulationError` alike.
    """

    def __init__(self, capacity_bytes: float) -> None:
        super().__init__(capacity_bytes)
        self._entries: Dict[int, float] = {}
        self._used = 0.0
        # Memoised membership table for the vectorised epoch path; the
        # bulk admissions set it in place, the per-item calls drop it.
        self._member_table: Optional[np.ndarray] = None

    @property
    def used_bytes(self) -> float:
        return self._used

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._entries

    def cached_items(self) -> Iterable[int]:
        return list(self._entries.keys())

    def lookup(self, item_id: int) -> bool:
        if item_id not in self._entries:
            self._stats.record_miss()
            return False
        self._stats.record_hit()
        return True

    def admit(self, item_id: int, size_bytes: float) -> bool:
        if not 0.0 <= size_bytes < math.inf:
            raise _bad_size(item_id, size_bytes)
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
        _check_ids(item_ids, distinct=False)
        return self._membership_table(int(item_ids.max(initial=0)))[item_ids]

    @staticmethod
    def _check_sizes(item_ids: np.ndarray, sizes: np.ndarray) -> None:
        """Raise for the first negative or non-finite size (NaN fails both
        comparisons)."""
        bad = ~((sizes >= 0.0) & (sizes < math.inf))
        if bad.any():
            first = int(bad.argmax())
            raise _bad_size(int(item_ids[first]), float(sizes[first]))

    def _admit_in_order(self, item_ids: np.ndarray, sizes: np.ndarray,
                        stop_at_rejection: bool) -> np.ndarray:
        """Offer each item to :meth:`admit` in order, in bulk; the mask of
        the items resident afterwards.

        The admissions, ``used_bytes``, counters and the entries' order
        equal per-item ``admit`` calls that either go on past a rejection
        or, with ``stop_at_rejection``, stop at the first one.  A resident
        item counts as admitted and takes no capacity.

        Exactness: ``running = cumsum([used, *fresh sizes])`` adds left to
        right, so while every item so far was admitted, ``running[i + 1]``
        is the very ``used + size`` that :meth:`admit` tests for item
        ``i``.  The first failing test ends the admitted prefix.  From
        there ``used`` only grows, and float addition is monotone, so a
        later item whose ``used + size`` already exceeds the capacity at
        that point is rejected whatever is admitted before it.  Only the
        few tail items that fit then are walked with the exact test.  This
        needs finite, non-negative sizes, which the callers check.
        """
        resident = self.contains_array(item_ids)
        capacity = self._capacity
        running = np.cumsum(np.concatenate(
            ([self._used], np.where(resident, 0.0, sizes))))
        fits = (running[1:] <= capacity) | resident
        prefix = item_ids.size if fits.all() else int(fits.argmin())
        admitted = np.zeros(item_ids.size, dtype=bool)
        admitted[:prefix] = True
        used = float(running[prefix])
        if stop_at_rejection:
            # Only the first rejected item was offered.
            rejected = int(prefix < item_ids.size)
        else:
            # Past the prefix: resident items (an epoch offers only misses,
            # so there are none) and the exact walk over the items that fit
            # at the rejection point.
            tail = slice(prefix + 1, None)
            admitted[tail] = resident[tail]
            candidates = prefix + 1 + np.flatnonzero(
                ~resident[tail] & (used + sizes[tail] <= capacity))
            for index, size in zip(candidates.tolist(),
                                   sizes[candidates].tolist()):
                if used + size <= capacity:
                    admitted[index] = True
                    used += size
            rejected = int((~admitted).sum())
        fresh = admitted & ~resident
        fresh_ids = item_ids[fresh]
        self._entries.update(zip(fresh_ids.tolist(), sizes[fresh].tolist()))
        self._used = used
        self._stats.insertions += fresh_ids.size
        self._stats.rejected += rejected
        # contains_array above built the table over every id of the stream.
        self._member_table[fresh_ids] = True
        return admitted

    def admit_prefix(self, item_ids: np.ndarray, sizes: np.ndarray) -> int:
        """Offer items in order up to the first rejection; how many leading
        items are resident afterwards.

        Equal to per-item :meth:`admit` calls that stop at the first
        rejection (the rejected item is counted, later ones are not
        offered); an already resident item counts as admitted and takes no
        capacity.  The partitioned cache's epoch-0 population uses it.
        """
        item_ids, sizes = access_stream(item_ids, sizes)
        _check_ids(item_ids, distinct=True)
        self._check_sizes(item_ids, sizes)
        return int(self._admit_in_order(item_ids, sizes,
                                        stop_at_rejection=True).sum())

    def bulk_epoch_hits(self, item_ids: np.ndarray, sizes: np.ndarray,
                        admit: Optional[np.ndarray] = None) -> np.ndarray:
        """One whole epoch of distinct accesses, vectorised.

        MinIO's trajectory over a single-pass epoch is always analytic: it
        never evicts, so an access hits iff the item was resident when the
        epoch started (an item admitted mid-epoch is not re-requested within
        the same epoch), and admissions are the greedy insert-while-space
        scan over the missed items in access order
        (:meth:`_admit_in_order`, a prefix sum plus an exact walk over the
        few items that still fit after the first rejection).  The mask,
        every counter and the cache contents (entries in order,
        ``used_bytes``) after this call are identical to per-item
        ``lookup`` + ``admit`` calls over the same access stream.

        Args:
            item_ids: Pairwise-distinct, non-negative access stream.
            sizes: Item byte sizes, aligned with ``item_ids``.
            admit: Optional boolean mask marking which accesses may be
                offered for admission after a miss.  Misses outside the mask
                are still counted as misses but are never ``admit``-ed (the
                partitioned loader uses this: remote-cache hits avoid the
                local miss path's admission).  ``None`` offers every miss.

        Raises:
            SimulationError: ``sizes`` or ``admit`` does not line up with
                ``item_ids``, or an id is negative or repeated.
            ConfigurationError: a size is negative or not finite.
        """
        item_ids, sizes = access_stream(item_ids, sizes)
        _check_ids(item_ids, distinct=True)
        if admit is not None:
            admit = np.asarray(admit, dtype=bool)
            if admit.shape != item_ids.shape:
                raise SimulationError(
                    f"an admission mask needs one entry per item id, got "
                    f"{item_ids.size} item ids and {admit.size} mask entries")
        self._check_sizes(item_ids, sizes)
        table = self._membership_table(int(item_ids.max(initial=0)))
        hits = table[item_ids]

        self._stats.hits += int(hits.sum())
        misses = ~hits
        self._stats.misses += int(misses.sum())

        offered = misses if admit is None else misses & admit
        self._admit_in_order(item_ids[offered], sizes[offered],
                             stop_at_rejection=False)
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
