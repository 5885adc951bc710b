"""Exact bulk kernel for the warm/thrashing segmented-LRU page cache.

:meth:`repro.cache.page_cache.PageCache.lookup` / ``admit`` drive an
OrderedDict state machine one access at a time.  The cold single-pass epoch
and the no-eviction multi-pass stream have closed forms
(:meth:`~repro.cache.page_cache.PageCache.bulk_epoch_hits` /
``bulk_saturating_hits``), but the paper's headline baseline pathology —
segmented-LRU *thrashing* under single-pass random access (Sec. 3.3.1,
Figs. 3/9d) — lives exactly where neither applies: a warm cache smaller than
the working set, where every access can promote, demote or evict.

That trajectory is inherently sequential (each admission's eviction victims
depend on every earlier promotion), so no per-access-free closed form
exists.  What *is* removable is all the per-access Python the OrderedDict
walk pays: hashing, dict mutation, float page rounding, byte arithmetic and
stats-object updates.  This kernel replays the identical state machine as

* **vectorised prologue** — page rounding (exact ceiling division mirroring
  ``PageCache._rounded``), dense id mapping, initial-state gathering,
  page-count prefills and the float-exactness guards, all as numpy array
  operations; then
* an **integer flat-array core** — both LRU lists are lazily-invalidated
  FIFO deques (append at the back, bound C ``popleft`` at the front), all
  byte accounting is whole-page integer arithmetic held as interned
  headroom counters, and each access costs a couple of deque writes
  instead of OrderedDict mutation; then
* **vectorised epilogue** — the hit mask, hit bytes, insertion/eviction
  counters and final list contents are recovered with set algebra over the
  miss positions, the stream's rounded sizes and the live queue tails.

Exactness rests on one invariant: every byte quantity the reference walk
ever holds is an integer multiple of ``page_bytes``, and every such multiple
that can occur is exactly representable as a float.  Under that invariant
(checked by the guards below; the kernel declines with ``None`` when it
cannot be proven) integer page counts and the reference's accumulated floats
are in exact bijection, so the hit mask, every stats counter including
``hit_bytes``, the eviction count, the byte totals and the *order* of both
lists — observable through future evictions and demotions — equal the
per-item walk bit for bit.  The walk itself stays in
:class:`~repro.cache.page_cache.PageCache` as the executable specification;
``tests/test_properties.py`` property-tests the equivalence.

State enters and leaves as arrays: both lists, front to end, as
``(item_ids, page_counts)`` int64 arrays.
:class:`~repro.cache.page_cache.PageCache` keeps its lists in that form
between bulk calls and certifies a per-item state's stored sizes as exact
page multiples when it converts one, so the kernel reads no OrderedDict
and writes none back.

The kernel is pure: it reads the cache's state and returns a
:class:`SegmentedLRUResult` without touching the cache or writing into
the arrays it was handed (a replay memo shares them between caches), so
callers get the all-or-nothing side-effect contract of the other bulk
paths for free.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Set this environment variable to ``0`` to disable the bulk warm kernel
#: (every caller then falls back to the per-item reference walk).  Read per
#: call, and inherited by spawned sweep workers, so the golden-regression
#: tests can pin kernel-on ≡ kernel-off byte-identity at any worker count.
WARM_KERNEL_ENV_VAR = "REPRO_WARM_KERNEL"


def warm_kernel_enabled() -> bool:
    """Whether the bulk warm kernel is enabled (default yes)."""
    return os.environ.get(WARM_KERNEL_ENV_VAR, "").strip() != "0"


def max_exact_page_multiple(page_bytes: float) -> int:
    """Largest ``B`` such that ``k * page_bytes`` is exact for all ``k <= B``.

    ``k * page_bytes`` is exactly representable iff ``k`` times the odd part
    of the page size's significand still fits in the 53-bit mantissa.  For
    the kernel's 4 KiB pages (odd part 1) that is ``2**53`` — far beyond any
    realisable cache — while degenerate page sizes yield small bounds and
    make the kernel decline instead of silently rounding.
    """
    if not math.isfinite(page_bytes) or page_bytes <= 0:
        return 0
    mantissa, _exp = math.frexp(page_bytes)
    significand = int(mantissa * (1 << 53))
    while significand % 2 == 0:
        significand //= 2
    return (1 << 53) // significand


def rounded_pages(sizes: np.ndarray, page_bytes: float,
                  max_pages: int) -> Optional[np.ndarray]:
    """Exact whole-page counts: ``ceil(size / page_bytes)``, at least one page.

    Mirrors ``PageCache._rounded`` in the real-number sense: the correct
    count ``p`` is the unique integer with ``(p - 1) * page < size <= p *
    page`` (clamped to one page).  The float quotient is only an estimate,
    so it is corrected against those exact product comparisons; ``None``
    when a count cannot be certified below ``max_pages`` (where products
    stop being exact).
    """
    pages = np.negative(np.floor_divide(-sizes, page_bytes))
    pages = np.where(np.isfinite(pages), pages, float(max_pages))
    np.clip(pages, 1.0, float(max_pages), out=pages)
    for _ in range(2):
        pages += sizes > pages * page_bytes
        pages -= (pages > 1.0) & (sizes <= (pages - 1.0) * page_bytes)
    if float(pages.max(initial=1.0)) >= max_pages:
        return None
    bad = (sizes > pages * page_bytes) | ((pages > 1.0)
                                          & (sizes <= (pages - 1.0) * page_bytes))
    if bad.any():
        return None
    return pages.astype(np.int64)


def pages_within(budget_bytes: float, page_bytes: float,
                 max_pages: int) -> Optional[int]:
    """Largest integer ``k`` with ``k * page_bytes <= budget_bytes``.

    This is the exact integer image of every float comparison the reference
    walk makes against ``budget_bytes`` (capacity or active-list limit),
    because all byte occupancies are exact page multiples.  ``None`` when
    the boundary cannot be certified below ``max_pages``.
    """
    if not math.isfinite(budget_bytes) or budget_bytes < 0:
        return None
    k = int(budget_bytes // page_bytes)
    k = max(0, min(k, max_pages))
    while k + 1 < max_pages and (k + 1) * page_bytes <= budget_bytes:
        k += 1
    while k > 0 and k * page_bytes > budget_bytes:
        k -= 1
    if k + 1 >= max_pages or (k + 1) * page_bytes <= budget_bytes:
        return None
    return k


@dataclass
class SegmentedLRUResult:
    """Outcome of one bulk segmented-LRU replay (pure; caller commits).

    ``inactive`` / ``active`` are the final lists front-to-end as
    ``(item_ids, page_counts)`` arrays; byte values are ``pages *
    page_bytes`` (exact, per the kernel's representability guards).
    """

    hit_mask: np.ndarray
    hits: int
    misses: int
    pressure_evictions: int
    hit_pages: int
    inactive: Tuple[np.ndarray, np.ndarray]
    active: Tuple[np.ndarray, np.ndarray]


def simulate_segmented_lru(
        item_ids: Sequence[int], sizes: Sequence[float], *,
        capacity_bytes: float, page_bytes: float, active_limit_bytes: float,
        inactive: Tuple[np.ndarray, np.ndarray],
        active: Tuple[np.ndarray, np.ndarray],
        inactive_bytes: float, active_bytes: float,
        prior_hit_bytes: float = 0.0) -> Optional[SegmentedLRUResult]:
    """Replay a whole access stream through the segmented-LRU state machine.

    ``inactive`` / ``active`` are the starting lists front to end as
    ``(item_ids, page_counts)`` integer arrays, the form
    :class:`SegmentedLRUResult` returns them in; they are only read.  The
    stream may revisit items (interleaved multi-job epochs) and the cache
    may start in any warm state.  Returns ``None`` — never partially
    evaluated state — when any float-exactness guard fails (including a
    page count below one, or byte totals that are not the page counts'
    exact image), when an item's rounded size differs between its
    accesses or from its resident page count, or when an item is larger
    than the cache; callers then walk item by item.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    size_arr = np.asarray(sizes, dtype=np.float64)
    if ids.shape != size_arr.shape or ids.ndim != 1:
        return None

    max_pages = max_exact_page_multiple(page_bytes)
    cap_pages = pages_within(capacity_bytes, page_bytes, max_pages)
    lim_pages = pages_within(active_limit_bytes, page_bytes, max_pages)
    if cap_pages is None or lim_pages is None:
        return None
    stream_pages = rounded_pages(size_arr, page_bytes, max_pages)
    if stream_pages is None:
        return None

    # Initial state: positive page counts whose totals reproduce the
    # cache's accumulated byte counters bit for bit.
    init_in_ids, init_in_pages = (np.asarray(a, dtype=np.int64)
                                  for a in inactive)
    init_act_ids, init_act_pages = (np.asarray(a, dtype=np.int64)
                                    for a in active)
    if min(int(init_in_pages.min(initial=1)),
           int(init_act_pages.min(initial=1))) < 1:
        return None
    in_total = int(init_in_pages.sum())
    act_total = int(init_act_pages.sum())
    if (float(in_total) * page_bytes != inactive_bytes
            or float(act_total) * page_bytes != active_bytes):
        return None
    # Every page total the replay can reach (occupancy, and the cumulative
    # hit bytes) must stay in the exactly-representable range.
    hit_pages_bound = int(stream_pages.sum()) + in_total + act_total
    prior_hit = prior_hit_bytes / page_bytes
    if prior_hit != math.floor(prior_hit) or not math.isfinite(prior_hit):
        return None
    if (cap_pages + int(stream_pages.max(initial=1)) >= max_pages
            or int(prior_hit) + hit_pages_bound >= max_pages):
        return None

    # Dense id space: the stream plus everything initially resident.  Real
    # epochs access dense ``0..num_items-1`` ids, so the common case maps
    # ids to themselves and skips the ``np.unique`` sort entirely.
    n = ids.size
    resident_ids = np.concatenate([init_in_ids, init_act_ids])
    lo = min(int(ids.min(initial=0)), int(resident_ids.min(initial=0)))
    hi = max(int(ids.max(initial=-1)), int(resident_ids.max(initial=-1)))
    if lo >= 0 and hi < n + resident_ids.size + 65536:
        universe = np.arange(hi + 1, dtype=np.int64)
        num_dense = hi + 1
        dense_stream = ids
        dense_in_arr = init_in_ids
        dense_act_arr = init_act_ids
    else:
        universe, dense = np.unique(np.concatenate([ids, resident_ids]),
                                    return_inverse=True)
        num_dense = universe.size
        dense_stream = dense[:n]
        dense_in_arr = dense[n:n + init_in_ids.size]
        dense_act_arr = dense[n + init_in_ids.size:]

    # The loop below defers all hit/eviction accounting to vectorised
    # epilogue algebra.  That is exact when no stream item is over-capacity
    # (so every miss admits) and every item's rounded size is consistent —
    # one value across its stream accesses, matching its resident stored
    # size — so a hit's stored bytes can be read off the stream itself.
    # Real datasets always satisfy this; any other stream is declined and
    # walked item by item.
    if n and int(stream_pages.max()) > cap_pages:
        return None
    rep = np.zeros(num_dense, dtype=np.int64)
    rep[dense_stream] = stream_pages
    if not (rep[dense_stream] == stream_pages).all():
        return None
    if resident_ids.size:
        appears = np.zeros(num_dense, dtype=bool)
        appears[dense_stream] = True
        res_dense = np.concatenate([dense_in_arr, dense_act_arr])
        res_pages = np.concatenate([init_in_pages, init_act_pages])
        if not (~appears[res_dense] | (rep[res_dense] == res_pages)).all():
            return None
    stream = dense_stream.tolist()
    dense_in = dense_in_arr.tolist()
    dense_act = dense_act_arr.tolist()

    # Recency is tracked with lazily-invalidated deques instead of linked
    # lists: every queue entry is an (item, stamp) pair split across two
    # parallel deques, and only the entry whose stamp is *the same object*
    # as ``stamp[item]`` is live — moving an item re-stamps it and appends
    # a fresh entry, leaving the old one behind as garbage that
    # eviction/demotion sweeps pop and skip.  Each access therefore costs
    # a few deque appends, never a structural splice.  Stamps are unique
    # per (item, transition): seeds are negative, stream transitions use
    # the access index, and one access re-stamps an item at most once — so
    # object identity and value equality agree, letting the final sweep
    # separate live from stale entries vectorised.  ``deque`` beats the
    # previous lazily-consumed list-iterator scheme by ~1.5x on the pop
    # side: ``popleft`` is a bound C method with no StopIteration /
    # clear-and-rebuild bookkeeping, and consumed garbage is freed as it
    # is popped instead of accumulating behind an iterator.
    loc = [0] * num_dense          # 0 absent, 1 inactive, 2 active
    stamp: List[int] = [-1] * num_dense
    # Every item has one rounded size, so stored sizes are prefilled in
    # bulk and admissions never write them.
    pages_of = rep.tolist()
    seeds = (-np.arange(1, num_dense + 1)).tolist()
    # The queues are pre-seeded with the initially-resident members in one
    # bulk copy each instead of per-member appends.
    iq = deque(dense_in)
    iqs = deque(seeds[d] for d in dense_in)
    aq = deque(dense_act)
    aqs = deque(seeds[d] for d in dense_act)
    for members, member_pages, tag in (
            (dense_in, init_in_pages.tolist(), 1),
            (dense_act, init_act_pages.tolist(), 2)):
        for d, p in zip(members, member_pages):
            loc[d] = tag
            stamp[d] = seeds[d]
            pages_of[d] = p

    miss_at: List[int] = []
    miss_append = miss_at.append
    iq_append = iq.append
    iqs_append = iqs.append
    aq_append = aq.append
    aqs_append = aqs.append
    # Bound pop methods, hoisted once: the eviction/demotion sweeps call
    # these more than anything else in a thrashing replay.
    iq_pop = iq.popleft
    iqs_pop = iqs.popleft
    aq_pop = aq.popleft
    aqs_pop = aqs.popleft

    # The eviction and demotion sweeps pop queue entries and let the (rare)
    # exhaustion exception signal a truly empty queue — Python 3.11 try
    # blocks are free unless they raise, while an explicit bound check
    # would cost a len() call per popped entry.  A popped entry whose
    # stamp is no longer the item's current stamp *object* is stale
    # garbage from a later move and is skipped; a live victim's entry is
    # consumed by the pop itself, so eviction needs no re-stamping.  The
    # loop body touches nothing but the recency state itself; occupancy
    # is tracked as *headroom* (``room``/``aroom``), which stays a small
    # interned int in the thrashing steady state.
    room = cap_pages - in_total - act_total   # pages before the next eviction
    aroom = lim_pages - act_total             # pages before the next demotion
    for t, d in enumerate(stream):
        w = loc[d]
        if not w:
            # Miss: evict from the inactive front, then the active.
            miss_append(t)
            p = pages_of[d]
            try:
                while p > room:
                    g = iq_pop()
                    s = iqs_pop()
                    if stamp[g] is not s:
                        continue
                    room += pages_of[g]
                    loc[g] = 0
            except IndexError:
                while p > room:
                    try:
                        g = aq_pop()
                        s = aqs_pop()
                    except IndexError:
                        break
                    if stamp[g] is not s:
                        continue
                    aroom += pages_of[g]
                    room += pages_of[g]
                    loc[g] = 0
            loc[d] = 1
            stamp[d] = t
            iq_append(d)
            iqs_append(t)
            room -= p
        elif w == 2:
            # Active hit: re-stamp to the active MRU end.
            stamp[d] = t
            aq_append(d)
            aqs_append(t)
        else:
            # Inactive hit: promote, then demote while over target.
            loc[d] = 2
            stamp[d] = t
            aq_append(d)
            aqs_append(t)
            aroom -= pages_of[d]
            try:
                while aroom < 0:
                    g = aq_pop()
                    s = aqs_pop()
                    if stamp[g] is not s:
                        continue
                    loc[g] = 1
                    stamp[g] = t
                    iq_append(g)
                    iqs_append(t)
                    aroom += pages_of[g]
            except IndexError:
                pass  # active queue empty (unreachable while pages remain)
    # Whatever the queues still hold after the replay is the tail the
    # final live sweep filters (consumed garbage was freed by the pops).
    tail_in, tail_ins = list(iq), list(iqs)
    tail_act, tail_acts = list(aq), list(aqs)

    hit_mask = np.ones(n, dtype=bool)
    if miss_at:
        hit_mask[np.asarray(miss_at, dtype=np.int64)] = False

    stamp_arr = np.fromiter(stamp, np.int64, count=num_dense)
    pages_arr = np.fromiter(pages_of, np.int64, count=num_dense)

    def _collect(entries: List[int],
                 entry_stamps: List[int]) -> Tuple[np.ndarray, np.ndarray]:
        members = np.fromiter(entries, np.int64, count=len(entries))
        stamps = np.fromiter(entry_stamps, np.int64, count=len(entry_stamps))
        live = members[stamp_arr[members] == stamps]
        return universe[live], pages_arr[live]

    final_inactive = _collect(tail_in, tail_ins)
    final_active = _collect(tail_act, tail_acts)
    # Epilogue algebra: every miss was admitted, hit bytes are the stream's
    # own (consistent) rounded sizes, and the eviction count is the
    # occupancy balance of the replay.
    misses = len(miss_at)
    return SegmentedLRUResult(
        hit_mask=hit_mask,
        hits=n - misses,
        misses=misses,
        pressure_evictions=(misses + resident_ids.size
                            - final_inactive[0].size - final_active[0].size),
        hit_pages=int(stream_pages[hit_mask].sum()),
        inactive=final_inactive,
        active=final_active,
    )
