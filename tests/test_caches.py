"""Unit tests for the cache substrates: page cache, MinIO, partitioned."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cache import page_cache, warm_kernel
from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache, ReplayMemo
from repro.cache.partitioned import LookupSource, PartitionedCacheGroup
from repro.cache.stats import CacheStats
from repro.datasets.catalog import DatasetSpec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import RandomSampler
from repro.exceptions import ConfigurationError, SimulationError


@pytest.fixture
def kernel_results(monkeypatch):
    """What each `simulate_segmented_lru` call through the page cache
    returned (``None`` when the kernel declined), in call order."""
    results = []
    kernel = page_cache.simulate_segmented_lru

    def recording(*args, **kwargs):
        results.append(kernel(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(page_cache, "simulate_segmented_lru", recording)
    return results


class TestPageCache:
    def test_rounds_items_up_to_whole_pages(self):
        cache = PageCache(100 * 4096.0)
        cache.admit(1, 1.0)
        assert cache.used_bytes == 4096.0

    def test_second_reference_promotes_to_active_list(self):
        cache = PageCache(10 * 4096.0)
        cache.admit(1, 4096.0)
        assert cache.active_bytes == 0.0
        cache.lookup(1)
        assert cache.active_bytes == 4096.0
        assert cache.inactive_bytes == 0.0

    def test_inactive_list_evicts_least_recently_admitted_first(self):
        cache = PageCache(3 * 4096.0)
        for item in (1, 2, 3):
            cache.admit(item, 4096.0)
        cache.admit(4, 4096.0)              # evicts 1, the oldest page
        assert list(cache.cached_items()) == [2, 3, 4]
        assert cache.lookup(2)              # promoted: 3 is now the oldest
        cache.admit(5, 4096.0)
        assert 2 in cache and 3 not in cache

    def test_active_list_protected_from_streaming_evictions(self):
        # Capacity for 4 pages; items 1 and 2 are promoted (hot), then a
        # stream of cold items passes through.  The hot items survive.
        cache = PageCache(4 * 4096.0, active_target_fraction=0.5)
        for hot in (1, 2):
            cache.admit(hot, 4096.0)
            cache.lookup(hot)
        for cold in range(100, 120):
            cache.admit(cold, 4096.0)
        assert 1 in cache and 2 in cache

    def test_thrashing_under_single_pass_random_access(self, tiny_dataset):
        """The paper's key observation: LRU yields fewer hits than capacity."""
        capacity_fraction = 0.5
        cache = PageCache(tiny_dataset.total_bytes * capacity_fraction)
        sampler = RandomSampler(len(tiny_dataset), seed=0)
        for epoch in range(3):
            if epoch == 2:
                cache.reset_stats()
            for item in sampler.epoch(epoch):
                item = int(item)
                if not cache.lookup(item):
                    cache.admit(item, tiny_dataset.item_size(item))
        assert cache.stats.hit_ratio < capacity_fraction
        assert cache.stats.insertions > len(cache)   # admissions evicted

    def test_sequential_scan_is_pathological(self, tiny_dataset):
        cache = PageCache(tiny_dataset.total_bytes * 0.5)
        for epoch in range(2):
            if epoch == 1:
                cache.reset_stats()
            for item in range(len(tiny_dataset)):
                if not cache.lookup(item):
                    cache.admit(item, tiny_dataset.item_size(item))
        assert cache.stats.hit_ratio < 0.05

    def test_explicit_evict_and_clear(self):
        cache = PageCache(10 * 4096.0)
        cache.admit(1, 4096.0)
        assert cache.evict(1)
        assert not cache.evict(1)
        cache.admit(2, 4096.0)
        cache.clear()
        assert cache.used_bytes == 0.0

    def test_pressure_eviction_can_press_on_active_list(self):
        """With a full active target, reclaim falls through to active pages."""
        cache = PageCache(2 * 4096.0, active_target_fraction=1.0)
        for item in (1, 2):
            cache.admit(item, 4096.0)
            cache.lookup(item)              # promote: whole cache is active
        cache.admit(3, 4096.0)
        assert 1 not in cache and 2 in cache and 3 in cache

    @pytest.mark.parametrize("cache_kind, page, entry, size", [
        # The page cache at the default 4 KiB page and a 2 MiB huge page.
        *[pytest.param("page", page, entry, size,
                       id=f"{page!r}-{entry}-{size!r}")
          for page in (4096.0, 2.0**21)
          for entry in ("admit", "walk", "bulk_stream_hits", "bulk_epoch_hits")
          for size in (math.nan, math.inf, -math.inf)],
        # MinIO counts bytes, so a negative size is an error there too.
        *[pytest.param("minio", 4096.0, entry, size,
                       id=f"minio-{entry}-{size!r}")
          for entry in ("admit", "walk", "bulk_epoch_hits", "admit_prefix")
          for size in (math.nan, math.inf, -math.inf, -5000.0)],
    ])
    def test_non_finite_sizes_are_rejected_naming_the_item(self, cache_kind,
                                                           page, entry, size):
        cache = (PageCache(1.5 * page, page_bytes=page) if cache_kind == "page"
                 else MinIOCache(1.5 * page))
        with pytest.raises(ConfigurationError,
                           match=f"item 7 .* {re.escape(repr(size))} bytes"):
            if entry == "admit":
                cache.admit(7, size)
            else:
                getattr(cache, entry)(np.array([5, 7]), np.array([page, size]))
        if cache_kind == "minio" and entry != "walk":
            # Checked before any side effect (the walk admits item 5 first).
            assert cache.used_bytes == 0.0 and not list(cache.cached_items())
            assert cache.stats == CacheStats()

    def test_invalid_parameters_rejected(self):
        for capacity in (-1.0, math.nan):
            with pytest.raises(ConfigurationError):
                PageCache(capacity)
            with pytest.raises(ConfigurationError):
                MinIOCache(capacity)
        with pytest.raises(ConfigurationError, match=r"2\*\*53 pages"):
            PageCache(math.inf)
        # A page is a power of two of at least one byte.
        for page in (0, 3.0, 1000.0, 0.5, 1 + 2.0**-51, 4096 * (1 + 2.0**-52),
                     math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="power of two"):
                PageCache(100.0, page_bytes=page)
        with pytest.raises(ConfigurationError):
            PageCache(100.0, active_target_fraction=1.5)


def _warm_caches():
    """A warm page cache, MinIO cache and partitioned group, each holding
    items 0-3 and with non-zero counters."""
    page, minio = PageCache(8 * 4096.0), MinIOCache(8 * 4096.0)
    for cache in (page, minio):
        cache.walk(np.array([0, 1, 2, 3, 0]), np.full(5, 4096.0))
    spec = DatasetSpec("warm", "image_classification", 12, 4096.0)
    group = PartitionedCacheGroup(SyntheticDataset(spec, seed=0),
                                  [0.5 * 12 * 4096.0] * 2, seed=0)
    group.populate_from_shards()
    return page, minio, group


def _cache_state(cache):
    lists = (cache.resident_lists() if isinstance(cache, PageCache)
             else list(cache.cached_items()))
    return lists, cache.used_bytes, dataclasses.astuple(cache.stats)


class TestStreamAlignment:
    """Every stream entry checks its ids and sizes line up before it
    changes anything, and names both lengths."""

    IDS, SIZES = np.arange(3), np.array([4096.0])

    @pytest.mark.parametrize("entry", [
        "page.walk", "page.bulk_stream_hits", "page.bulk_epoch_hits",
        "minio.walk", "minio.bulk_epoch_hits", "minio.admit_prefix",
        "group.bulk_epoch_lookup"])
    def test_mismatched_lengths_raise_before_any_side_effect(self, entry):
        page, minio, group = _warm_caches()
        owner, method = entry.split(".")
        target = {"page": page, "minio": minio, "group": group}[owner]
        args = ((0,) if owner == "group" else ()) + (self.IDS, self.SIZES)
        states = [_cache_state(c) for c in (page, minio, *group.caches)]
        owners = [group.owner_of(i) for i in range(12)]
        with pytest.raises(SimulationError, match=r"3 item ids and 1 sizes"):
            getattr(target, method)(*args)
        assert [_cache_state(c) for c in (page, minio, *group.caches)] == states
        assert [group.owner_of(i) for i in range(12)] == owners

    def test_two_dimensional_streams_are_rejected(self):
        page, minio, _group = _warm_caches()
        for cache in (page, minio):
            with pytest.raises(SimulationError, match="shapes"):
                cache.walk(np.zeros((2, 2), dtype=np.int64),
                           np.full((2, 2), 4096.0))

    def test_minio_admission_mask_must_line_up(self):
        _page, minio, _group = _warm_caches()
        state = _cache_state(minio)
        with pytest.raises(SimulationError, match="3 item ids and 2 mask"):
            minio.bulk_epoch_hits(np.arange(4, 7), np.full(3, 4096.0),
                                  admit=np.array([True, False]))
        assert _cache_state(minio) == state


class TestMinIOBulkIds:
    """MinIO's bulk entries reject negative ids, and the two that admit
    also repeated ids, naming the first one before any side effect.  A
    negative id would alias a resident item's slot of the residency table;
    a repeated one would be booked and admitted twice."""

    @staticmethod
    def _cache_holding_5() -> MinIOCache:
        cache = MinIOCache(1e6)
        cache.walk(np.array([5, 5]), np.array([10.0, 10.0]))
        return cache

    @pytest.mark.parametrize("entry, ids, match", [
        ("bulk_epoch_hits", [-1], "non-negative, got item -1"),
        ("bulk_epoch_hits", [4, -2, -1], "non-negative, got item -2"),
        ("admit_prefix", [-1], "non-negative, got item -1"),
        ("contains_array", [5, -1], "non-negative, got item -1"),
        ("bulk_epoch_hits", [1, 1], "item 1 occurs twice"),
        ("bulk_epoch_hits", [5, 2, 3, 2, 5], "item 5 occurs twice"),
        ("admit_prefix", [1, 1], "item 1 occurs twice"),
    ])
    def test_bad_ids_raise_before_any_side_effect(self, entry, ids, match):
        for cache in (self._cache_holding_5(), _warm_caches()[1]):
            state = _cache_state(cache)
            item_ids = np.array(ids)
            with pytest.raises(SimulationError, match=match):
                if entry == "contains_array":
                    cache.contains_array(item_ids)
                else:
                    getattr(cache, entry)(item_ids,
                                          np.full(item_ids.size, 10.0))
            assert _cache_state(cache) == state

    def test_the_walk_takes_what_the_bulk_entries_refuse(self):
        """The per-item walk, the reference, misses a negative id and hits
        the second access of a repeated one."""
        cache = self._cache_holding_5()
        assert cache.walk(np.array([-1]), np.array([10.0])).tolist() == [False]
        assert cache.walk(np.array([1, 1]),
                          np.array([10.0, 10.0])).tolist() == [False, True]
        assert cache.used_bytes == 30.0

    def test_contains_array_takes_repeated_ids(self):
        cache = self._cache_holding_5()
        assert cache.contains_array(np.array([5, 1, 5])).tolist() == [
            True, False, True]


class TestCacheWalk:
    """`Cache.walk`, the per-item reference every bulk path reproduces."""

    def test_looks_up_each_access_and_admits_each_miss(self):
        for cache in (PageCache(2 * 4096.0), MinIOCache(2 * 4096.0)):
            stream = np.array([0, 1, 0, 2, 0], dtype=np.int64)
            hits = cache.walk(stream, np.full(5, 4096.0))
            assert hits.tolist() == [False, False, True, False, True]
            assert (cache.stats.hits, cache.stats.misses) == (2, 3)
            assert 0 in cache

    def test_misses_a_cache_cannot_hold_are_rejected(self):
        for cache in (PageCache(4096.0), MinIOCache(4096.0)):
            hits = cache.walk(np.array([0, 0]), np.array([2 * 4096.0] * 2))
            assert hits.tolist() == [False, False]
            assert cache.stats.rejected == 2
            assert cache.used_bytes == 0.0


class TestPageCacheBulkStream:
    """Unit coverage of the page cache's replay entry
    (`PageCache.bulk_stream_hits`); the exhaustive equivalence with
    `Cache.walk` is property-tested in tests/test_properties.py."""

    @staticmethod
    def _assert_same_state(bulk, scalar):
        assert bulk.resident_lists() == scalar.resident_lists()
        assert bulk.used_bytes == scalar.used_bytes
        assert bulk.stats == scalar.stats

    def test_thrashing_stream_matches_walk_bit_for_bit(self, tiny_dataset,
                                                       kernel_results):
        capacity = tiny_dataset.total_bytes * 0.5
        scalar, bulk = PageCache(capacity), PageCache(capacity)
        sampler = RandomSampler(len(tiny_dataset), seed=0)
        stream = np.concatenate([sampler.epoch(e) for e in range(3)])
        sizes = tiny_dataset.item_sizes(stream)
        expected = scalar.walk(stream, sizes)
        hits = bulk.bulk_stream_hits(stream, sizes)
        assert kernel_results[0] is not None
        assert hits.tolist() == expected.tolist()
        self._assert_same_state(bulk, scalar)
        assert bulk.active_bytes == scalar.active_bytes
        assert bulk.stats.insertions > len(bulk)

    def test_env_kill_switch_declines_without_side_effects(
            self, monkeypatch, kernel_results):
        """With the kernel off the entry never calls it, and walks."""
        from repro.cache.warm_kernel import WARM_KERNEL_ENV_VAR
        scalar, bulk = PageCache(8 * 4096.0), PageCache(8 * 4096.0)
        for cache in (scalar, bulk):
            cache.admit(1, 4096.0)
        monkeypatch.setenv(WARM_KERNEL_ENV_VAR, "0")
        stream = np.arange(4, dtype=np.int64)
        sizes = np.full(4, 4096.0)
        expected = scalar.walk(stream, sizes)
        assert bulk.bulk_stream_hits(stream, sizes).tolist() == expected.tolist()
        assert kernel_results == []
        self._assert_same_state(bulk, scalar)

    def test_oversized_items_are_rejected_like_the_walk(self, kernel_results):
        """The kernel declines a stream with an item larger than the
        cache; the entry walks it, rejecting that item."""
        capacity = 4 * 4096.0
        scalar, bulk = PageCache(capacity), PageCache(capacity)
        stream = np.array([0, 1, 0, 2], dtype=np.int64)
        sizes = np.array([4096.0, 10 * 4096.0, 4096.0, 2 * 4096.0])
        expected = scalar.walk(stream, sizes)
        assert bulk.bulk_stream_hits(stream, sizes).tolist() == expected.tolist()
        assert kernel_results == [None]
        assert bulk.stats.rejected == scalar.stats.rejected == 1
        self._assert_same_state(bulk, scalar)


    def test_page_totals_that_could_leave_int64_are_declined(self):
        """The kernel's one headroom bound: a budget or page counts whose
        totals could wrap the core's int64 arithmetic make it decline, as
        does a page count below one."""
        empty = (np.zeros(0, dtype=np.int64),) * 2
        stream = np.arange(4, dtype=np.int64)

        def replay(pages, capacity_pages):
            return warm_kernel.simulate_segmented_lru(
                stream, np.full(4, pages, dtype=np.int64),
                capacity_pages=capacity_pages,
                active_limit_pages=capacity_pages // 2,
                inactive=empty, active=empty)

        assert replay(1, 8) is not None
        assert replay(1, 2**63 - 1) is None
        assert replay(2**61, 2**62) is None
        assert replay(0, 8) is None


class TestNativeCore:
    """How the warm kernel's native core is built, loaded and done without."""

    @staticmethod
    def _unbuilt(monkeypatch, loader):
        """This process as if its first replay were still to come, with
        ``loader`` in place of the compile-and-load step."""
        monkeypatch.setattr(warm_kernel, "_load_core", loader)
        monkeypatch.setattr(warm_kernel, "_core", None)
        monkeypatch.setattr(warm_kernel, "_core_tried", False)

    def test_without_a_compiler_the_kernel_declines_and_the_cache_walks(
            self, monkeypatch, tiny_dataset, kernel_results):
        def no_compiler(directory=None):
            raise FileNotFoundError(2, "No such file or directory", "cc")

        self._unbuilt(monkeypatch, no_compiler)
        capacity = tiny_dataset.total_bytes * 0.5
        sampler = RandomSampler(len(tiny_dataset), seed=0)
        streams = [np.concatenate([sampler.epoch(e) for e in epochs])
                   for epochs in ((0, 1, 2), (3, 4))]
        scalar, bulk = PageCache(capacity), PageCache(capacity)
        empty = np.zeros(0, dtype=np.int64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for stream in streams:
                sizes = tiny_dataset.item_sizes(stream)
                assert warm_kernel.simulate_segmented_lru(
                    stream, np.ceil(sizes / 4096.0).astype(np.int64),
                    capacity_pages=int(capacity // 4096.0),
                    active_limit_pages=int(capacity * 0.5 // 4096.0),
                    inactive=(empty, empty), active=(empty, empty)) is None
                expected = scalar.walk(stream, sizes)
                hits = bulk.bulk_stream_hits(stream, sizes)
                assert hits.tolist() == expected.tolist()
                TestPageCacheBulkStream._assert_same_state(bulk, scalar)
                assert bulk.active_bytes == scalar.active_bytes
        assert kernel_results == [None, None]
        assert bulk.stats.insertions > len(bulk)
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "No such file or directory" in str(runtime[0].message)
        assert not warm_kernel.native_core_loaded()

    def test_concurrent_first_replays_load_the_core_once(self, monkeypatch):
        """Serve threads replay concurrently: one of them loads the core,
        and the others wait for that outcome instead of loading again."""
        calls = []

        def slow_loader(directory=None):
            calls.append(threading.get_ident())
            time.sleep(0.05)
            raise OSError("compiler gone")

        self._unbuilt(monkeypatch, slow_loader)
        seen = []
        threads = [threading.Thread(
            target=lambda: seen.append(warm_kernel._native_core()))
            for _ in range(8)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1 and seen == [None] * 8
        assert [str(w.message).count("compiler gone") for w in caught] == [1]

    def test_processes_compiling_into_one_directory_at_once_both_load_it(
            self, tmp_path):
        """Two processes build the core into one empty directory at the
        same moment; each renames a complete library into place, so both
        load a working core and no partial file is left behind."""
        go = tmp_path / "go"
        library = tmp_path / "lib"
        library.mkdir()
        script = textwrap.dedent("""
            import pathlib, sys, time
            import numpy as np
            from repro.cache import warm_kernel
            library, go = map(pathlib.Path, sys.argv[1:])
            deadline = time.monotonic() + 60.0
            while not go.exists() and time.monotonic() < deadline:
                time.sleep(0.002)
            core = warm_kernel._load_core(library)
            empty = np.zeros(0, dtype=np.int64)
            hits, misses, inactive, active = warm_kernel._replay(
                core, np.array([0, 1, 0, 2, 0]), np.ones(3, dtype=np.int64),
                empty, empty, room=2, aroom=1)
            print(hits.tolist(), misses, inactive.tolist(), active.tolist())
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent
                                  / "src"))
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, str(library), str(go)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)]
        try:
            time.sleep(0.5)                 # both are past their imports
            go.touch()
            outputs = [proc.communicate(timeout=120) for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
                proc.wait(10)
        walk = PageCache(2 * 4096.0, active_target_fraction=0.5)
        expected = walk.walk(np.array([0, 1, 0, 2, 0]), np.full(5, 4096.0))
        assert expected.tolist() == [False, False, True, False, True]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
            assert out.strip() == f"{expected.tolist()} 3 [2] [0]"
        assert [path.suffix for path in library.iterdir()] == [".so"]


class TestReplayMemo:
    """The runner-scoped replay memo behind `PageCache.bulk_stream_hits`;
    its exactness is property-tested in tests/test_properties.py."""

    @staticmethod
    def _replay(tiny_dataset, epochs=1, seed=0):
        """One thrashing replay from a fresh half-dataset page cache."""
        cache = PageCache(tiny_dataset.total_bytes * 0.5)
        sampler = RandomSampler(len(tiny_dataset), seed=seed)
        stream = np.concatenate([sampler.epoch(e) for e in range(epochs)])
        return cache.bulk_stream_hits(stream, tiny_dataset.item_sizes(stream))

    def test_without_an_active_memo_every_call_runs_the_kernel(
            self, tiny_dataset, kernel_results):
        for _ in range(3):
            assert self._replay(tiny_dataset) is not None
        assert len(kernel_results) == 3
        memo = ReplayMemo()
        with memo.activated():
            self._replay(tiny_dataset)
            self._replay(tiny_dataset)
        self._replay(tiny_dataset)          # the memo is no longer active
        assert len(kernel_results) == 5
        assert (memo.hits, memo.misses) == (1, 1)

    def test_a_memo_is_active_only_in_the_context_that_activated_it(
            self, tiny_dataset, kernel_results):
        memo = ReplayMemo()
        with memo.activated():
            self._replay(tiny_dataset)
            worker = threading.Thread(target=self._replay,
                                      args=(tiny_dataset,))
            worker.start()
            worker.join()
        assert len(kernel_results) == 2
        assert (memo.hits, memo.misses) == (0, 1)

    def test_kept_arrays_are_read_only(self, tiny_dataset):
        memo = ReplayMemo()
        with memo.activated():
            first = self._replay(tiny_dataset)
            again = self._replay(tiny_dataset)
        assert again is first
        (result, _size), = memo._entries.values()
        for array in (result.hit_mask, *result.inactive, *result.active):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            first[0] = not first[0]

    def test_per_item_calls_after_a_memo_hit_leave_the_memo_intact(
            self, tiny_dataset):
        """A memo hit commits the kept arrays by reference; mutating that
        cache item by item must change neither the cache that produced
        them nor what the next hit commits."""
        memo = ReplayMemo()
        capacity = tiny_dataset.total_bytes * 0.5
        stream = np.concatenate([RandomSampler(len(tiny_dataset), seed=0)
                                 .epoch(e) for e in range(2)])
        sizes = tiny_dataset.item_sizes(stream)
        caches = [PageCache(capacity) for _ in range(3)]
        with memo.activated():
            caches[0].bulk_stream_hits(stream, sizes)
            lists = caches[0].resident_lists()
            caches[1].bulk_stream_hits(stream, sizes)
            front, back = lists[0][0][0], lists[0][-1][0]
            assert caches[1].evict(front)
            assert caches[1].admit(10**6, 3 * 4096.0)
            assert caches[1].lookup(back)                # promote
            caches[2].bulk_stream_hits(stream, sizes)
        assert (memo.hits, memo.misses) == (2, 1)
        assert caches[1].resident_lists() != lists
        assert caches[0].resident_lists() == lists
        assert caches[2].resident_lists() == lists

    def test_budget_evicts_least_recently_used_and_skips_oversized(
            self, tiny_dataset, kernel_results, monkeypatch):
        memo = ReplayMemo()
        with memo.activated():
            self._replay(tiny_dataset)
        one = memo.nbytes
        budget = 2 * one + one // 2         # room for two one-epoch results
        monkeypatch.setattr(page_cache, "REPLAY_MEMO_BUDGET_BYTES", budget)
        memo = ReplayMemo()
        with memo.activated():
            for seed in (0, 1, 0, 2):       # seed 1 is least recent at seed 2
                self._replay(tiny_dataset, seed=seed)
                assert memo.nbytes <= budget
            assert len(kernel_results) == 1 + 3
            assert len(memo) == 2
            self._replay(tiny_dataset, seed=1)   # evicted: replayed again
            assert len(kernel_results) == 1 + 4
            hits = self._replay(tiny_dataset, epochs=60)
            assert hits.nbytes > budget     # its hit mask alone is too large
            assert hits.flags.writeable     # returned, but not kept
            assert len(memo) == 2 and memo.nbytes <= budget
            self._replay(tiny_dataset, epochs=60)
        assert len(kernel_results) == 1 + 6

    def test_threads_sharing_a_memo_get_exact_results(self, monkeypatch):
        """Dist agents share one runner's memo across connection threads:
        lookups, inserts and evictions racing under a tiny switch interval
        lose no count, break no budget and never cross-serve a result.
        Streams are tiny so the threads spend their time in the memo."""
        rng = np.random.default_rng(0)
        sizes = np.maximum(rng.lognormal(9.0, 1.0, 8), 1.0)
        streams = [np.concatenate([rng.permutation(8) for _ in range(2)])
                   for _ in range(4)]

        def replay(stream):
            cache = PageCache(float(sizes.sum()) * 0.5)
            return cache.bulk_stream_hits(stream, sizes[stream])

        expected = [replay(stream).tolist() for stream in streams]
        memo = ReplayMemo()
        with memo.activated():
            replay(streams[0])
        budget = 2 * memo.nbytes + memo.nbytes // 2
        monkeypatch.setattr(page_cache, "REPLAY_MEMO_BUDGET_BYTES", budget)
        memo = ReplayMemo()
        wrong = []

        def replay_many(offset: int) -> None:
            with memo.activated():
                for step in range(300):
                    index = (offset + step) % len(streams)
                    if replay(streams[index]).tolist() != expected[index]:
                        wrong.append(index)

        threads = [threading.Thread(target=replay_many, args=(offset,))
                   for offset in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert memo.hits + memo.misses == 8 * 300
        assert memo.nbytes == sum(size for _result, size
                                  in memo._entries.values()) <= budget


class TestMinIOCache:
    def test_never_evicts(self):
        cache = MinIOCache(25.0)
        assert cache.admit(1, 10.0)
        assert cache.admit(2, 10.0)
        assert not cache.admit(3, 10.0)      # full: request defaults to storage
        assert 1 in cache and 2 in cache and 3 not in cache

    def test_exactly_capacity_hits_per_epoch(self, tiny_dataset):
        """MinIO's defining property (Sec. 4.1)."""
        cache = MinIOCache(tiny_dataset.total_bytes * 0.4)
        sampler = RandomSampler(len(tiny_dataset), seed=0)
        # Warm-up epoch.
        for item in sampler.epoch(0):
            item = int(item)
            if not cache.lookup(item):
                cache.admit(item, tiny_dataset.item_size(item))
        cached_items = len(list(cache.cached_items()))
        for epoch in (1, 2):
            cache.reset_stats()
            for item in sampler.epoch(epoch):
                item = int(item)
                if not cache.lookup(item):
                    cache.admit(item, tiny_dataset.item_size(item))
            assert cache.stats.hits == cached_items
            assert cache.stats.misses == len(tiny_dataset) - cached_items

    def test_admit_is_idempotent(self):
        cache = MinIOCache(100.0)
        assert cache.admit(1, 10.0)
        assert cache.admit(1, 10.0)
        assert cache.used_bytes == 10.0

    def test_item_size_lookup(self):
        cache = MinIOCache(100.0)
        cache.admit(1, 10.0)
        assert cache.item_size(1) == 10.0
        assert cache.item_size(2) == 0.0

    def test_is_full_property(self):
        cache = MinIOCache(10.0)
        assert not cache.is_full
        cache.admit(1, 10.0)
        assert cache.is_full

    def test_admit_prefix_stops_at_the_first_rejection(self):
        cache = MinIOCache(25.0)
        cache.admit(4, 5.0)
        # 4 is resident (admitted, no capacity), 2 does not fit, and 3 --
        # which would fit -- is never offered.
        assert cache.admit_prefix(np.array([1, 4, 5, 2, 3]),
                                  np.array([10.0, 5.0, 5.0, 10.0, 1.0])) == 3
        assert list(cache.cached_items()) == [4, 1, 5]
        assert cache.used_bytes == 20.0
        assert (cache.stats.insertions, cache.stats.rejected) == (3, 1)


class TestPartitionedCacheGroup:
    def _group(self, dataset, num_servers=2, fraction_each=0.5, seed=0):
        capacities = [dataset.total_bytes * fraction_each] * num_servers
        group = PartitionedCacheGroup(dataset, capacities, seed=seed)
        group.populate_from_shards()
        return group

    def test_shards_partition_the_dataset(self, tiny_dataset):
        group = self._group(tiny_dataset)
        all_items = np.concatenate([group.shard(s) for s in range(group.num_servers)])
        assert sorted(all_items.tolist()) == list(range(len(tiny_dataset)))

    def test_aggregate_capacity_and_coverage(self, tiny_dataset):
        group = self._group(tiny_dataset, fraction_each=0.6)
        assert group.aggregate_capacity_bytes() == pytest.approx(
            tiny_dataset.total_bytes * 1.2)
        assert group.covers_dataset()
        small = self._group(tiny_dataset, fraction_each=0.3)
        assert not small.covers_dataset()

    def test_lookup_prefers_local_then_remote_then_storage(self, tiny_dataset):
        group = self._group(tiny_dataset, fraction_each=0.6)
        local_item = int(group.shard(0)[0])
        remote_item = int(group.shard(1)[0])
        assert group.lookup(0, local_item).source is LookupSource.LOCAL_CACHE
        remote = group.lookup(0, remote_item)
        assert remote.source is LookupSource.REMOTE_CACHE
        assert remote.owner == 1

    def test_uncached_items_fall_back_to_storage(self, tiny_dataset):
        group = self._group(tiny_dataset, fraction_each=0.2)
        uncached = [i for i in range(len(tiny_dataset)) if group.owner_of(i) is None]
        assert uncached, "with 40% aggregate cache some items must be uncached"
        assert group.lookup(0, uncached[0]).source is LookupSource.STORAGE

    def test_admit_local_updates_directory(self, tiny_dataset):
        group = self._group(tiny_dataset, fraction_each=0.2)
        uncached = [i for i in range(len(tiny_dataset)) if group.owner_of(i) is None]
        item = uncached[0]
        if group.admit_local(0, item):
            assert group.owner_of(item) == 0

    def test_invalid_configuration(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            PartitionedCacheGroup(tiny_dataset, [])
        group = self._group(tiny_dataset)
        with pytest.raises(ConfigurationError):
            group.lookup(5, 0)
