"""OS page-cache model.

DNN training frameworks rely on the kernel page cache for caching raw training
data (Sec. 3.3.1).  Linux's replacement policy is not a strict LRU but a
*segmented* LRU with two lists (Gorman [33], the reference the paper cites):

* an **inactive list** that newly-read pages enter and are evicted from, and
* an **active list** that pages are promoted to when they are referenced
  again while resident; active pages are protected from streaming evictions
  and only demoted back when the active list grows past its target share.

Two behaviours the paper highlights emerge from driving this structure with
DNN access streams:

* **Thrashing under single-pass random access.**  Every item is accessed
  exactly once per epoch, so by the time an item is re-requested an entire
  epoch of insertions has pushed it toward the inactive tail; the effective
  hit-rate sits well below the cache-capacity fraction (the paper measures
  roughly 20 % extra misses at a 35 % cache, ~50 % misses at a 65 % cache).
* **A pathological case for sequential scans** (DALI-seq, TFRecords): the
  scan wraps around to pages that were just evicted, so hits collapse toward
  zero once the dataset exceeds the cache.

An "effective" cache for DNN training would instead deliver exactly
capacity-many hits per epoch — that is MinIO (:mod:`repro.cache.minio`).

The bulk paths keep both lists as the warm kernel's ``(item_ids,
page_counts)`` arrays (:mod:`repro.cache.warm_kernel`), so replays chain
without conversion; the per-item calls work on OrderedDicts, rebuilt from
the arrays by the first such call.

Points of one sweep often drive the *same* cache trajectory: the HP-search
interleave and a loader's epoch streams depend on the dataset, sampler,
batch size and capacity, not on the model.  A :class:`ReplayMemo`, active
while a :class:`~repro.sim.sweep.SweepRunner` runs a point, lets
:meth:`PageCache.bulk_stream_hits` replay each distinct trajectory once
and commit the kept result by reference.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.cache.base import Cache, access_stream
from repro.cache.warm_kernel import (
    SegmentedLRUResult,
    simulate_segmented_lru,
    warm_kernel_enabled,
)
from repro.exceptions import ConfigurationError

#: Byte budget of one :class:`ReplayMemo`: the hit masks and final list
#: arrays it keeps never exceed it, and a result larger than it is not kept.
REPLAY_MEMO_BUDGET_BYTES = 64 * 2**20

_ACTIVE_REPLAY_MEMO: ContextVar[Optional["ReplayMemo"]] = ContextVar(
    "repro_replay_memo", default=None)


class ReplayMemo:
    """Bounded, thread-safe memo of segmented-LRU replays, by input digest.

    :meth:`PageCache.bulk_stream_hits` consults the memo active in the
    calling context (see :meth:`activated`) before replaying a stream
    through :func:`~repro.cache.warm_kernel.simulate_segmented_lru`.  The
    key is a BLAKE2 digest of everything a replay reads — the stream's ids
    and sizes, the page size, both budgets in pages, and both resident
    lists in order as ``(item_ids, page_counts)`` arrays — and rounding
    and the kernel are pure, so a hit is the very result a replay would
    compute.  Kept arrays are made
    read-only, since every hit hands out the same objects and the caches
    it commits to hold them as their state.  Least-recently-used entries
    are evicted so the kept arrays stay within
    :data:`REPLAY_MEMO_BUDGET_BYTES` (read at construction); a result
    larger than the budget is returned but not kept.  ``hits`` and
    ``misses`` count lookups.
    """

    def __init__(self) -> None:
        self._budget = REPLAY_MEMO_BUDGET_BYTES
        self._entries: "OrderedDict[bytes, Tuple[SegmentedLRUResult, int]]" = (
            OrderedDict())
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays currently kept."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    @contextmanager
    def activated(self) -> Iterator["ReplayMemo"]:
        """Make this the memo page caches consult in the current context."""
        token = _ACTIVE_REPLAY_MEMO.set(self)
        try:
            yield self
        finally:
            _ACTIVE_REPLAY_MEMO.reset(token)

    def get(self, key: bytes) -> Optional[SegmentedLRUResult]:
        """The result kept under ``key`` (now most recent), else ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: bytes, result: SegmentedLRUResult) -> None:
        """Keep ``result`` under ``key`` if it fits in the budget."""
        arrays = (result.hit_mask, *result.inactive, *result.active)
        size = sum(array.nbytes for array in arrays)
        if size > self._budget:
            return
        for array in arrays:
            array.setflags(write=False)
        with self._lock:
            if key in self._entries:
                return
            while self._bytes + size > self._budget:
                _key, (_result, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted
            self._entries[key] = (result, size)
            self._bytes += size


#: The resident lists in the kernel's form: ``(inactive, active)``, each
#: ``(item_ids, page_counts)`` int64 arrays ordered front to end.
ResidentPages = Tuple[Tuple[np.ndarray, np.ndarray],
                      Tuple[np.ndarray, np.ndarray]]


class PageCache(Cache):
    """Server-wide page cache shared by all training processes.

    Pages are the one unit: every item occupies a whole number of pages,
    and the occupancies and both budgets (the capacity and the active
    list's target) are integer page counts.  Byte figures — ``used_bytes``,
    ``active_bytes``, ``inactive_bytes`` and :meth:`resident_lists` — are
    ``pages * page_bytes``.  A page size that is a power of two divides
    every float exactly, and the capacity stays below 2**53 pages, so
    every such product is exact.

    The two lists live in one of two forms.  The bulk paths keep them as
    the warm kernel's ``(item_ids, page_counts)`` arrays, so replays chain
    and memo hits commit without conversion; the first per-item call
    (:meth:`lookup`, :meth:`admit`, :meth:`evict`, ``in``,
    :meth:`cached_items`, :meth:`clear`, and so :meth:`~Cache.walk`)
    turns them into the OrderedDicts it mutates and drops the arrays.
    State arrays are never written in place: a memo hit hands the same
    read-only arrays to every cache it commits to.

    Args:
        capacity_bytes: DRAM available for caching training data (the paper's
            servers dedicate ~400 of 500 GiB to the dataset cache).  Must
            be below 2**53 pages.
        page_bytes: Allocation granularity: a power of two of at least one
            byte, as Linux allocates 4 KiB pages or 2 MiB huge pages.
            Items are rounded up to whole pages.
        active_target_fraction: Maximum share of the capacity the active
            (protected) list may occupy before pages are demoted; Linux
            balances the two lists around roughly half the cache.
    """

    def __init__(self, capacity_bytes: float, page_bytes: float = 4096.0,
                 active_target_fraction: float = 0.5) -> None:
        super().__init__(capacity_bytes)
        if not (math.isfinite(page_bytes) and page_bytes >= 1
                and math.frexp(page_bytes)[0] == 0.5):
            raise ConfigurationError(
                f"page size must be a power of two of at least one byte, "
                f"not {page_bytes!r}")
        if not 0.0 <= active_target_fraction <= 1.0:
            raise ConfigurationError("active-list target must be in [0, 1]")
        self._page_bytes = float(page_bytes)
        if not self._capacity < 2.0**53 * self._page_bytes:
            raise ConfigurationError(
                f"page-cache capacity must be below 2**53 pages, not "
                f"{self._capacity!r} bytes")
        self._capacity_pages = int(self._capacity // self._page_bytes)
        self._active_limit_pages = int(
            self._capacity * active_target_fraction // self._page_bytes)
        # Item -> page count, front to end; ``None`` while ``_pages``
        # holds the lists.
        self._inactive: Optional["OrderedDict[int, int]"] = OrderedDict()
        self._active: Optional["OrderedDict[int, int]"] = OrderedDict()
        self._pages: Optional[ResidentPages] = None
        self._inactive_pages = 0
        self._active_pages = 0

    # -- bookkeeping helpers -------------------------------------------------

    @property
    def page_bytes(self) -> float:
        """Cache allocation granularity."""
        return self._page_bytes

    @property
    def used_bytes(self) -> float:
        return (self._inactive_pages + self._active_pages) * self._page_bytes

    @property
    def active_bytes(self) -> float:
        """Bytes on the protected (active) list."""
        return self._active_pages * self._page_bytes

    @property
    def inactive_bytes(self) -> float:
        """Bytes on the streaming (inactive) list."""
        return self._inactive_pages * self._page_bytes

    def _rounded(self, item_id: int, size_bytes: float) -> int:
        """Whole pages an item of ``size_bytes`` occupies: at least one."""
        if not math.isfinite(size_bytes):
            raise ConfigurationError(
                f"item {item_id} has a non-finite size: {size_bytes!r} bytes")
        return max(1, int(-(-size_bytes // self._page_bytes)))  # ceil division

    def _rounded_stream(self, sizes: np.ndarray) -> Optional[np.ndarray]:
        """:meth:`_rounded` over a whole stream, as int64 page counts;
        ``None`` when a size is not finite.  A count over the capacity is
        clipped to one page past it: the kernel declines it all the same."""
        if not np.isfinite(sizes).all():
            return None
        pages = np.ceil(sizes / self._page_bytes)
        np.clip(pages, 1.0, self._capacity_pages + 1.0, out=pages)
        return pages.astype(np.int64)

    def resident_lists(self) -> Tuple[List[Tuple[int, float]],
                                      List[Tuple[int, float]]]:
        """``(inactive, active)``, each front (next to evict or demote) to
        end as ``(item_id, stored_bytes)`` pairs; reads either form of the
        state without converting it."""
        page = self._page_bytes
        if self._pages is None:
            return tuple([(item, pages * page)
                          for item, pages in members.items()]
                         for members in (self._inactive, self._active))
        return tuple(list(zip(ids.tolist(), (pages * page).tolist()))
                     for ids, pages in self._pages)

    def __len__(self) -> int:
        if self._pages is None:
            return len(self._inactive) + len(self._active)
        return sum(ids.size for ids, _pages in self._pages)

    def _to_dicts(self) -> None:
        """Rebuild the OrderedDicts from the kernel's arrays; drop those."""
        self._inactive, self._active = (
            OrderedDict(zip(ids.tolist(), pages.tolist()))
            for ids, pages in self._pages)
        self._pages = None

    def _resident_pages(self) -> ResidentPages:
        """The lists in the kernel's form: what the kernel replays from and
        what the replay key hashes.  A dict state is converted here, once."""
        if self._pages is None:
            self._pages = tuple(
                (np.fromiter(members.keys(), np.int64, count=len(members)),
                 np.fromiter(members.values(), np.int64, count=len(members)))
                for members in (self._inactive, self._active))
            self._inactive = self._active = None
        return self._pages

    def __contains__(self, item_id: int) -> bool:
        if self._pages is not None:
            self._to_dicts()
        return item_id in self._inactive or item_id in self._active

    def cached_items(self) -> Iterable[int]:
        if self._pages is not None:
            self._to_dicts()
        return list(self._inactive.keys()) + list(self._active.keys())

    # -- list mechanics ------------------------------------------------------

    def _promote(self, item_id: int) -> None:
        pages = self._inactive.pop(item_id)
        self._inactive_pages -= pages
        self._active[item_id] = pages
        self._active_pages += pages
        self._rebalance()

    def _rebalance(self) -> None:
        """Demote cold active pages when the active list exceeds its target."""
        while self._active and self._active_pages > self._active_limit_pages:
            item_id, pages = self._active.popitem(last=False)
            self._active_pages -= pages
            self._inactive[item_id] = pages
            self._inactive_pages += pages

    def _evict_until(self, needed_pages: int) -> None:
        while (self._inactive_pages + self._active_pages + needed_pages
               > self._capacity_pages):
            if self._inactive:
                _item, pages = self._inactive.popitem(last=False)
                self._inactive_pages -= pages
            elif self._active:
                # Inactive list exhausted: reclaim presses on the active list.
                _item, pages = self._active.popitem(last=False)
                self._active_pages -= pages
            else:
                break

    # -- Cache interface -----------------------------------------------------

    def lookup(self, item_id: int) -> bool:
        if self._pages is not None:
            self._to_dicts()
        if item_id in self._active:
            self._active.move_to_end(item_id)
            self._stats.record_hit()
            return True
        if item_id in self._inactive:
            self._stats.record_hit()
            # Second reference while resident: promote to the active list.
            self._promote(item_id)
            return True
        self._stats.record_miss()
        return False

    def admit(self, item_id: int, size_bytes: float) -> bool:
        # The kernel caches everything it reads; eviction pressure falls on
        # the inactive tail first.
        if self._pages is not None:
            self._to_dicts()
        pages = self._rounded(item_id, size_bytes)
        if pages > self._capacity_pages:
            self._stats.rejected += 1
            return False
        if item_id in self._inactive or item_id in self._active:
            return True
        self._evict_until(pages)
        self._inactive[item_id] = pages
        self._inactive_pages += pages
        self._stats.insertions += 1
        return True

    def bulk_epoch_hits(self, item_ids: np.ndarray,
                        sizes: np.ndarray) -> np.ndarray:
        """One single-pass epoch of distinct accesses, in bulk: the epoch is
        one stream like any other, replayed by :meth:`bulk_stream_hits`."""
        return self.bulk_stream_hits(item_ids, sizes)

    def bulk_stream_hits(self, item_ids: np.ndarray,
                         sizes: np.ndarray) -> np.ndarray:
        """Any access stream, replayed exactly; the hit mask.

        The page cache's one replay entry: the stream may revisit items
        (the HP-search baseline interleaves several jobs' epochs over one
        shared page cache, Table 3's jobs interleave record files) and the
        cache may start warm, below the working set, and evicting on every
        admission — the segmented-LRU thrashing regime of Sec. 3.3.1.  The
        stream's sizes are rounded to whole pages here, in one vectorised
        step that equals :meth:`_rounded` per item, and the page counts
        are replayed through
        :func:`repro.cache.warm_kernel.simulate_segmented_lru`.  That
        integer replay reproduces the per-item ``lookup`` + ``admit`` walk
        exactly: hit mask, every stats counter, the occupancies and the
        exact order of both lists (observable through future evictions and
        demotions).  The kernel reads and returns the lists as arrays, and
        the cache keeps them in that form.

        Every miss is admitted, as the kernel page cache does — callers
        with an admission *policy* must walk item by item.  When the kernel
        is disabled (``REPRO_WARM_KERNEL=0``) or declines the stream (a
        non-finite size, an item whose page count varies or exceeds the
        capacity, no working C compiler for its native core), this entry
        applies :meth:`walk` instead.

        When a :class:`ReplayMemo` is active (a
        :class:`~repro.sim.sweep.SweepRunner` running a point), a stream
        already replayed from the identical state is not replayed again:
        the memoised result is committed instead, by reference, with the
        same hit mask, counters, byte totals and list order.  The returned
        mask is then read-only.  With no active memo every call runs the
        kernel.  Sizes that do not line up with the ids raise
        :class:`~repro.exceptions.SimulationError` before anything changes
        (:func:`~repro.cache.base.access_stream`).
        """
        ids, size_arr = access_stream(item_ids, sizes)
        if not warm_kernel_enabled():
            return self.walk(ids, size_arr)
        lists = self._resident_pages()
        memo = _ACTIVE_REPLAY_MEMO.get()
        key = None if memo is None else self._replay_key(ids, size_arr, lists)
        result = None if key is None else memo.get(key)
        if result is None:
            pages = self._rounded_stream(size_arr)
            result = None if pages is None else simulate_segmented_lru(
                ids, pages,
                capacity_pages=self._capacity_pages,
                active_limit_pages=self._active_limit_pages,
                inactive=lists[0], active=lists[1])
            if result is None:
                return self.walk(ids, size_arr)
            if key is not None:
                memo.put(key, result)
        self._pages = (result.inactive, result.active)
        self._inactive_pages = int(result.inactive[1].sum())
        self._active_pages = int(result.active[1].sum())
        self._stats.hits += result.hits
        self._stats.misses += result.misses
        self._stats.insertions += result.misses  # every miss was admitted
        return result.hit_mask

    def _replay_key(self, ids: np.ndarray, size_arr: np.ndarray,
                    lists: ResidentPages) -> bytes:
        """BLAKE2 digest of everything one replay from this state reads.

        That is the kernel's inputs, with the stream's sizes and the page
        size in place of the page counts they round to, so a memo hit skips
        the rounding too.  Arrays enter as int64 ids, float64 sizes and the
        lists' int64 ids and page counts, scalars by ``repr`` (exact for
        floats), and the lengths up front delimit the variable-length
        parts.
        """
        (in_ids, in_pages), (act_ids, act_pages) = lists
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr((
            ids.size, in_ids.size, act_ids.size, self._page_bytes,
            self._capacity_pages, self._active_limit_pages)).encode())
        for array in (ids, size_arr, in_ids, in_pages, act_ids, act_pages):
            digest.update(np.ascontiguousarray(array))
        return digest.digest()

    def evict(self, item_id: int) -> bool:
        """Drop one item (posix_fadvise(DONTNEED)); True if it was present."""
        if self._pages is not None:
            self._to_dicts()
        if item_id in self._inactive:
            self._inactive_pages -= self._inactive.pop(item_id)
        elif item_id in self._active:
            self._active_pages -= self._active.pop(item_id)
        else:
            return False
        return True

    def clear(self) -> None:
        """Drop the whole cache (echo 3 > /proc/sys/vm/drop_caches)."""
        self._pages = None
        self._inactive = OrderedDict()
        self._active = OrderedDict()
        self._inactive_pages = 0
        self._active_pages = 0
