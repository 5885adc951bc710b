"""Exact bulk kernel for the segmented-LRU page cache.

:meth:`repro.cache.page_cache.PageCache.lookup` / ``admit`` drive an
OrderedDict state machine one access at a time.  This kernel replays every
bulk page-cache stream — cold epochs, fully-cached multi-pass streams and
the paper's headline baseline pathology, segmented-LRU *thrashing* under
single-pass random access (Sec. 3.3.1, Figs. 3/9d): a warm cache smaller
than the working set, where every access can promote, demote or evict.

That trajectory is inherently sequential (each admission's eviction victims
depend on every earlier promotion), so no per-access-free closed form
exists.  What *is* removable is all the per-access interpreter work the
OrderedDict walk pays: hashing, dict mutation, page arithmetic and
stats-object updates.  This kernel replays the identical state machine as

* a **vectorised prologue** — the int64 headroom bound, dense id mapping,
  page-count prefills and the initial lists linked into arrays, all as
  numpy array operations; then
* a **native core** — one C loop (:data:`_CORE_SOURCE`) over two intrusive
  doubly linked lists: ``prev``/``next`` int64 arrays indexed by dense id,
  each list's head, tail and length, and an int8 location per item.  All
  accounting is whole-page integer headroom, so an access costs a few
  array writes.  The loop fills the hit mask and counts misses, and a
  second C function walks each final list out front to end; then
* a **vectorised epilogue** — the hit and insertion counters follow
  from the hit mask.

The core is compiled on the first replay that gets past the prologue,
never at import, with the compiler CPython was built with (``cc`` when
that is unknown or not installed), and loaded with :mod:`ctypes`.  The
shared library is kept in this module's ``__pycache__`` directory, named by
a digest of the C source, the compiler command and the platform, so later
processes load it without compiling; when that directory is not ours to
write, each process compiles into a private temporary directory.  The
outcome is kept per process.  When no compiler works the kernel declines
every replay — callers walk item by item, several times slower — and one
``RuntimeWarning`` per process names the cause.

The replay is pure integer arithmetic: the stream arrives as whole-page
counts, both budgets as page counts, and the lists as ``(item_ids,
page_counts)`` arrays.  The walk counts the same integers (page rounding
lives in :class:`~repro.cache.page_cache.PageCache`, once per item and
once per stream), so the hit mask and the *order* of both lists —
observable through future evictions and demotions — equal the per-item
walk's exactly.  The walk itself stays in
:class:`~repro.cache.page_cache.PageCache` as the executable
specification; ``tests/test_properties.py`` property-tests the
equivalence.  ``PageCache`` keeps its lists in the kernel's array form
between bulk calls, so the kernel reads no OrderedDict and writes none
back.

The kernel is pure: it reads the cache's state and returns a
:class:`SegmentedLRUResult` without touching the cache or writing into
the arrays it was handed (a replay memo shares them between caches), so
a replay is all or nothing: a declined one leaves the cache as it was,
and the caller walks instead.  The C code writes only arrays the kernel
allocates for the call.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
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


#: The native core.  A list is three int64s — head, tail, length — and
#: ``-1`` ends it; items are dense ids.  ``loc`` holds 0 (absent), 1
#: (inactive) or 2 (active); ``room`` and ``aroom`` are the pages left
#: before the next eviction and the next demotion.  Indices are not
#: checked here: :func:`_replay` validates every array before the call.
_CORE_SOURCE = r"""
#include <stdint.h>

static void take(int64_t *prev, int64_t *next, int64_t *list, int64_t d)
{
    int64_t p = prev[d], n = next[d];
    if (p < 0) list[0] = n; else next[p] = n;
    if (n < 0) list[1] = p; else prev[n] = p;
    list[2]--;
}

static void put(int64_t *prev, int64_t *next, int64_t *list, int64_t d)
{
    int64_t t = list[1];
    prev[d] = t;
    next[d] = -1;
    if (t < 0) list[0] = d; else next[t] = d;
    list[1] = d;
    list[2]++;
}

/* Replays stream[0..n): lists[0..3) is the inactive list, lists[3..6)
   the active one.  Fills hit[0..n) and returns the number of misses. */
int64_t slru_replay(int64_t n, const int64_t *stream, const int64_t *pages,
                    int8_t *loc, int64_t *prev, int64_t *next,
                    int64_t *lists, int64_t room, int64_t aroom,
                    uint8_t *hit)
{
    int64_t *inactive = lists, *active = lists + 3, misses = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t d = stream[t], g;
        hit[t] = loc[d] != 0;
        if (loc[d] == 0) {
            /* Miss: evict from the inactive front, then the active. */
            misses++;
            while (pages[d] > room) {
                if (inactive[0] >= 0) {
                    g = inactive[0];
                    take(prev, next, inactive, g);
                } else if (active[0] >= 0) {
                    g = active[0];
                    take(prev, next, active, g);
                    aroom += pages[g];
                } else {
                    break;
                }
                loc[g] = 0;
                room += pages[g];
            }
            loc[d] = 1;
            put(prev, next, inactive, d);
            room -= pages[d];
        } else if (loc[d] == 2) {
            /* Active hit: to the active MRU end. */
            take(prev, next, active, d);
            put(prev, next, active, d);
        } else {
            /* Inactive hit: promote, then demote while over target. */
            take(prev, next, inactive, d);
            loc[d] = 2;
            put(prev, next, active, d);
            aroom -= pages[d];
            while (aroom < 0 && active[0] >= 0) {
                g = active[0];
                take(prev, next, active, g);
                loc[g] = 1;
                put(prev, next, inactive, g);
                aroom += pages[g];
            }
        }
    }
    return misses;
}

/* Copies at most count items of the list starting at head into out,
   front to end; returns how many it copied. */
int64_t slru_walk(int64_t head, const int64_t *next, int64_t count,
                  int64_t *out)
{
    int64_t k = 0;
    for (int64_t d = head; d >= 0 && k < count; d = next[d])
        out[k++] = d;
    return k;
}
"""

#: Seconds the compiler may take before the core counts as unavailable.
_COMPILE_TIMEOUT_S = 120.0

_INT64_IN = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
_INT64_OUT = np.ctypeslib.ndpointer(np.int64, ndim=1,
                                    flags="C_CONTIGUOUS,WRITEABLE")
_INT8_OUT = np.ctypeslib.ndpointer(np.int8, ndim=1,
                                   flags="C_CONTIGUOUS,WRITEABLE")
_BOOL_OUT = np.ctypeslib.ndpointer(np.bool_, ndim=1,
                                   flags="C_CONTIGUOUS,WRITEABLE")


def _compiler() -> List[str]:
    """The command CPython was built with (``cc`` if unknown or absent)."""
    command = shlex.split(sysconfig.get_config_var("CC") or "")
    if not command or shutil.which(command[0]) is None:
        command = ["cc"]
    return command


def _library_dir() -> Path:
    """This module's ``__pycache__`` when this process may write it and
    others may not; otherwise a private directory removed at exit."""
    cache = Path(__file__).resolve().parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
        if (os.access(cache, os.W_OK)
                and not cache.stat().st_mode & stat.S_IWOTH):
            return cache
    except OSError:
        pass
    private = tempfile.mkdtemp(prefix="repro-slru-")
    atexit.register(shutil.rmtree, private, ignore_errors=True)
    return Path(private)


def _load_core(directory: Optional[Path] = None) -> ctypes.CDLL:
    """Load the native core from ``directory`` (default
    :func:`_library_dir`), compiling it there first unless a library
    built from this source by this compiler for this platform is present.

    A new library is written under a temporary name and renamed into
    place, so processes that compile at the same moment never load a
    partial file.  Raises :class:`OSError` or
    :class:`subprocess.SubprocessError` when compiling or loading fails.
    """
    command = _compiler()
    tag = hashlib.blake2b("\0".join(
        [_CORE_SOURCE, *command, sys.platform, platform.machine()]).encode(),
        digest_size=8).hexdigest()
    directory = _library_dir() if directory is None else directory
    path = directory / f"slru_core-{tag}.so"
    if not path.exists():
        fd, partial = tempfile.mkstemp(dir=directory, prefix=path.name + ".",
                                       suffix=".part")
        os.close(fd)
        try:
            done = subprocess.run(
                [*command, "-O2", "-shared", "-fPIC", "-x", "c", "-", "-o",
                 partial], input=_CORE_SOURCE, capture_output=True,
                text=True, timeout=_COMPILE_TIMEOUT_S, check=False)
            if done.returncode:
                raise OSError(f"{shlex.join(command)} exited with status "
                              f"{done.returncode}: {done.stderr.strip()}")
            os.replace(partial, path)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    core = ctypes.CDLL(str(path))
    core.slru_replay.argtypes = [
        ctypes.c_int64, _INT64_IN, _INT64_IN, _INT8_OUT, _INT64_OUT,
        _INT64_OUT, _INT64_OUT, ctypes.c_int64, ctypes.c_int64, _BOOL_OUT]
    core.slru_replay.restype = ctypes.c_int64
    core.slru_walk.argtypes = [ctypes.c_int64, _INT64_IN, ctypes.c_int64,
                               _INT64_OUT]
    core.slru_walk.restype = ctypes.c_int64
    return core


_core_lock = threading.Lock()
_core_tried = False
_core: Optional[ctypes.CDLL] = None


def _native_core() -> Optional[ctypes.CDLL]:
    """The native core, loaded by the process's first call (which warns
    once when it cannot be); ``None`` when it is unavailable."""
    global _core, _core_tried
    with _core_lock:
        if not _core_tried:
            _core_tried = True
            try:
                _core = _load_core()
            except (OSError, subprocess.SubprocessError) as exc:
                warnings.warn(
                    f"segmented-LRU native core unavailable "
                    f"({type(exc).__name__}: {exc}); every page-cache "
                    f"replay walks item by item", RuntimeWarning,
                    stacklevel=3)
        return _core


def native_core_loaded() -> bool:
    """Whether this process has loaded the native replay core: ``False``
    before its first replay, and for good when no compiler works."""
    return _core is not None


def _replay(core: ctypes.CDLL, stream: np.ndarray, pages_of: np.ndarray,
            inactive: np.ndarray, active: np.ndarray, room: int,
            aroom: int) -> Tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Run the native core over dense ids; ``(hit_mask, misses,
    final_inactive, final_active)``, the lists as dense ids front to end.

    ``pages_of`` holds each dense id's page count; ``inactive`` and
    ``active`` are the starting lists, which share no id.  Every id is
    checked to lie in ``[0, pages_of.size)``, every other array C indexes
    is allocated here at its length, and the argument types reject an
    array that is not C-contiguous with the expected dtype, so a bad
    input raises here instead of corrupting memory.
    """
    num_dense = pages_of.size
    for ids in (stream, inactive, active):
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= num_dense):
            raise ValueError("dense id outside [0, num_dense)")
    loc = np.zeros(num_dense, dtype=np.int8)
    prev = np.full(num_dense, -1, dtype=np.int64)
    nxt = np.full(num_dense, -1, dtype=np.int64)
    lists = np.full(6, -1, dtype=np.int64)
    for at, tag, members in ((0, 1, inactive), (3, 2, active)):
        loc[members] = tag
        prev[members[1:]] = members[:-1]
        nxt[members[:-1]] = members[1:]
        lists[at + 2] = members.size
        if members.size:
            lists[at:at + 2] = members[0], members[-1]
    if int(np.count_nonzero(loc)) != inactive.size + active.size:
        raise ValueError("an item is listed twice")
    hit_mask = np.empty(stream.size, dtype=bool)
    misses = int(core.slru_replay(stream.size, stream, pages_of, loc, prev,
                                  nxt, lists, room, aroom, hit_mask))
    finals = []
    for head, count in ((lists[0], lists[2]), (lists[3], lists[5])):
        members = np.empty(int(count), dtype=np.int64)
        if core.slru_walk(int(head), nxt, members.size, members) != count:
            raise RuntimeError("native core left a broken list")
        finals.append(members)
    return hit_mask, misses, finals[0], finals[1]


@dataclass
class SegmentedLRUResult:
    """Outcome of one bulk segmented-LRU replay (pure; caller commits).

    ``inactive`` / ``active`` are the final lists front-to-end as
    ``(item_ids, page_counts)`` arrays; the caller's page size turns page
    counts into bytes.
    """

    hit_mask: np.ndarray
    hits: int
    misses: int
    inactive: Tuple[np.ndarray, np.ndarray]
    active: Tuple[np.ndarray, np.ndarray]


def simulate_segmented_lru(
        item_ids: Sequence[int], pages: Sequence[int], *,
        capacity_pages: int, active_limit_pages: int,
        inactive: Tuple[np.ndarray, np.ndarray],
        active: Tuple[np.ndarray, np.ndarray]) -> Optional[SegmentedLRUResult]:
    """Replay a whole access stream through the segmented-LRU state machine.

    A pure integer replay: ``pages`` holds each access's whole-page count,
    ``capacity_pages`` and ``active_limit_pages`` are the cache's two
    budgets, and ``inactive`` / ``active`` are the starting lists front to
    end as ``(item_ids, page_counts)`` integer arrays, the form
    :class:`SegmentedLRUResult` returns them in; they are only read.  The
    stream may revisit items (interleaved multi-job epochs) and the cache
    may start in any warm state.  Returns ``None`` — never partially
    evaluated state — when an item is larger than the cache, when an
    item's page count differs between its accesses or from its resident
    page count, when a page count is below one or a budget negative, when
    a page total could leave int64, or when the native core is
    unavailable; callers then walk item by item.
    """
    ids = np.asarray(item_ids, dtype=np.int64)
    stream_pages = np.asarray(pages, dtype=np.int64)
    if ids.shape != stream_pages.shape or ids.ndim != 1:
        return None
    init_in_ids, init_in_pages = (np.asarray(a, dtype=np.int64)
                                  for a in inactive)
    init_act_ids, init_act_pages = (np.asarray(a, dtype=np.int64)
                                    for a in active)
    n = ids.size
    resident_ids = np.concatenate([init_in_ids, init_act_ids])
    res_pages = np.concatenate([init_in_pages, init_act_pages])

    # One int64 headroom bound: every page total the replay reaches (the
    # occupancies and the core's room counters) is at most a budget plus
    # one item's pages per access and per resident.
    least = min(int(stream_pages.min(initial=1)),
                int(res_pages.min(initial=1)))
    most = max(int(stream_pages.max(initial=1)),
               int(res_pages.max(initial=1)))
    if (least < 1 or min(capacity_pages, active_limit_pages) < 0
            or max(capacity_pages, active_limit_pages)
            + most * (n + resident_ids.size + 1) >= 2**63):
        return None

    # Dense id space: the stream plus everything initially resident.  Real
    # epochs access dense ``0..num_items-1`` ids, so the common case maps
    # ids to themselves and skips the ``np.unique`` sort entirely.
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

    # The core defers the hit accounting to vectorised epilogue
    # algebra.  That is exact when no stream item is over-capacity (so
    # every miss admits) and every item's page count is consistent — one
    # value across its stream accesses, matching its resident page count
    # — so the counts can be prefilled once.  Real datasets always
    # satisfy this; any other stream is declined and walked item by item.
    if n and int(stream_pages.max()) > capacity_pages:
        return None
    rep = np.zeros(num_dense, dtype=np.int64)
    rep[dense_stream] = stream_pages
    if not (rep[dense_stream] == stream_pages).all():
        return None
    if resident_ids.size:
        appears = np.zeros(num_dense, dtype=bool)
        appears[dense_stream] = True
        res_dense = np.concatenate([dense_in_arr, dense_act_arr])
        if not (~appears[res_dense] | (rep[res_dense] == res_pages)).all():
            return None
        # Every item has one page count, so the counts are prefilled in
        # bulk and admissions never write them.
        rep[res_dense] = res_pages

    core = _native_core()
    if core is None:
        return None
    in_total = int(init_in_pages.sum())
    act_total = int(init_act_pages.sum())
    hit_mask, misses, final_in, final_act = _replay(
        core, np.ascontiguousarray(dense_stream), rep, dense_in_arr,
        dense_act_arr, room=capacity_pages - in_total - act_total,
        aroom=active_limit_pages - act_total)
    # Epilogue algebra: every miss was admitted.
    return SegmentedLRUResult(
        hit_mask=hit_mask,
        hits=n - misses,
        misses=misses,
        inactive=(universe[final_in], rep[final_in]),
        active=(universe[final_act], rep[final_act]),
    )
