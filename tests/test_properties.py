"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.cache import page_cache
from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache, ReplayMemo
from repro.cache.partitioned import LookupSource, PartitionedCacheGroup
from repro.cache.warm_kernel import WARM_KERNEL_ENV_VAR, simulate_segmented_lru
from repro.compute.model_zoo import RESNET18
from repro.datasets.catalog import DatasetSpec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import (
    BatchSampler,
    DistributedSampler,
    RandomSampler,
    ShuffleBufferSampler,
    verify_epoch_invariant,
)
from repro.pipeline.stats import EpochStats, TrainingRunStats
from repro.prep.pipeline import PrepPipeline
from repro.prep.workers import WorkerPool
from repro.sim.engine import (_makespan_numpy, pipeline_makespan,
                               pipeline_makespan_reference)
from repro.sim.sweep import SweepPoint, SweepRecord
from repro.storage.iostats import IOStats

# Shared strategies ---------------------------------------------------------

item_counts = st.integers(min_value=1, max_value=300)
seeds = st.integers(min_value=0, max_value=2**16)
sizes = st.floats(min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _access_pattern(num_items: int, length: int, seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_items, size=length).tolist()


def _replay_state(cache: PageCache, hits) -> tuple:
    """Everything a replay leaves behind: mask, list order, counters."""
    return (None if hits is None else hits.tolist(), cache.resident_lists(),
            cache.inactive_bytes, cache.active_bytes,
            dataclasses.astuple(cache.stats))


def _kernel_replay(cache: PageCache, stream, sizes):
    """What ``simulate_segmented_lru`` returns when a copy of ``cache``
    replays the stream (``None``: it declined, or the copy walked without
    it); ``cache`` is untouched.  Also checks the kernel leaves the lists
    it is handed as they were."""
    results = []

    def recording(*args, **kwargs):
        lists = [*kwargs["inactive"], *kwargs["active"]]
        before = [array.copy() for array in lists]
        results.append(simulate_segmented_lru(*args, **kwargs))
        assert all(map(np.array_equal, before, lists)), "the kernel wrote"
        return results[-1]

    with mock.patch.object(page_cache, "simulate_segmented_lru", recording), \
            mock.patch.dict(os.environ, {WARM_KERNEL_ENV_VAR: "1"}):
        copy.deepcopy(cache).bulk_stream_hits(stream, sizes)
    return results[0] if results else None


#: Page sizes for the page-rounding property: powers of two from one byte
#: to a 2 MiB huge page, the only sizes a page cache accepts.
ROUNDING_PAGE_SIZES = (1.0, 2.0, 512.0, 4096.0, 2.0**21)


@st.composite
def _page_rounding_inputs(draw):
    """``(page, sizes)``: finite sizes mixing exact page multiples and
    their float neighbours, sub-page sizes, zero, negatives, subnormals
    and arbitrary floats."""
    page = draw(st.sampled_from(ROUNDING_PAGE_SIZES))

    def beside(multiple: float, side: int) -> float:
        return (float(np.nextafter(multiple, side * math.inf)) if side
                else multiple)

    size = st.one_of(
        st.tuples(st.integers(0, 2**20), st.sampled_from((-1, 0, 1))).map(
            lambda pair: beside(pair[0] * page, pair[1])),
        st.floats(0.0, page),
        st.floats(-1e6, 0.0),
        st.sampled_from((0.0, -0.0, 5e-324)),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    sizes = draw(st.lists(size, max_size=40))
    return page, np.array(sizes, dtype=np.float64)


def _exact_pages(size: float, page: float) -> int:
    """The integer ceiling ``PageCache._rounded`` means, in exact rational
    arithmetic: at least one page."""
    return max(1, math.ceil(Fraction(size) / Fraction(page)))


def _size_consistent(cache: PageCache, stream, sizes) -> bool:
    """Whether every access of an item rounds to one size, that size is
    the item's resident stored size, and no item outgrows the cache."""
    known = dict(pair for members in cache.resident_lists()
                 for pair in members)
    for item, size in zip(stream.tolist(), sizes.tolist()):
        rounded = cache._rounded(item, size) * cache.page_bytes
        if rounded > cache.capacity_bytes or known.setdefault(item, rounded) != rounded:
            return False
    return True


# Samplers -------------------------------------------------------------------

class TestSamplerProperties:
    @given(n=item_counts, seed=seeds, epoch=st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_random_sampler_always_yields_a_permutation(self, n, seed, epoch):
        order = RandomSampler(n, seed=seed).epoch(epoch)
        assert verify_epoch_invariant(order, n)

    @given(n=item_counts, buffer=st.integers(1, 64), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_shuffle_buffer_sampler_preserves_the_epoch_invariant(self, n, buffer, seed):
        order = ShuffleBufferSampler(n, buffer_size=buffer, seed=seed).epoch(0)
        assert verify_epoch_invariant(order, n)

    @given(n=item_counts, buffer=st.integers(1, 400), seed=seeds,
           epoch=st.integers(0, 20))
    @settings(max_examples=80, deadline=None)
    def test_shuffle_buffer_sampler_equals_one_draw_per_pick(self, n, buffer,
                                                             seed, epoch):
        """The sampler's one bounded draw over every pick's bound equals
        the loop it replaced, one draw per pick (kept here as the oracle),
        including buffers at least as large as the epoch and of one item."""
        rng = np.random.default_rng((seed, epoch, 0xB0FF))
        expected, window = [], []
        for item in range(n):
            window.append(item)
            if len(window) >= buffer:
                expected.append(window.pop(int(rng.integers(len(window)))))
        while window:
            expected.append(window.pop(int(rng.integers(len(window)))))
        sampler = ShuffleBufferSampler(n, buffer_size=buffer, seed=seed)
        assert sampler.epoch(epoch).tolist() == expected

    @given(n=st.integers(2, 300), replicas=st.integers(1, 8), seed=seeds,
           epoch=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_distributed_shards_partition_every_epoch(self, n, replicas, seed, epoch):
        replicas = min(replicas, n)
        shards = [DistributedSampler(n, replicas, r, seed=seed).epoch(epoch)
                  for r in range(replicas)]
        assert verify_epoch_invariant(np.concatenate(shards), n)

    @given(n=item_counts, batch=st.integers(1, 64), drop_last=st.booleans(), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_batch_sampler_covers_or_truncates_consistently(self, n, batch, drop_last, seed):
        batcher = BatchSampler(RandomSampler(n, seed=seed), batch, drop_last=drop_last)
        batches = batcher.epoch(0)
        assert len(batches) == batcher.batches_per_epoch()
        flattened = np.concatenate(batches) if batches else np.array([], dtype=int)
        if drop_last:
            assert len(flattened) == (n // batch) * batch
            assert len(set(flattened.tolist())) == len(flattened)
        else:
            assert verify_epoch_invariant(flattened, n)


# Caches ----------------------------------------------------------------------

class TestCacheProperties:
    @given(capacity=st.floats(min_value=100.0, max_value=1e5),
           accesses=st.lists(st.tuples(st.integers(0, 50), sizes), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_minio_never_exceeds_capacity_and_never_evicts(self, capacity, accesses):
        cache = MinIOCache(capacity)
        admitted = set()
        for item, size in accesses:
            hit = cache.lookup(item)
            assert hit == (item in admitted)
            if not hit and cache.admit(item, size):
                admitted.add(item)
            assert cache.used_bytes <= capacity + 1e-9
        # Everything admitted is still resident (the MinIO invariant).
        for item in admitted:
            assert item in cache

    @given(capacity_pages=st.integers(2, 40), num_items=st.integers(1, 60),
           length=st.integers(1, 300), seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_page_cache_capacity_and_stats_invariants(self, capacity_pages, num_items,
                                                      length, seed):
        cache = PageCache(capacity_pages * 4096.0)
        pattern = _access_pattern(num_items, length, seed)
        for item in pattern:
            if not cache.lookup(item):
                cache.admit(item, 4096.0)
            assert cache.used_bytes <= cache.capacity_bytes + 1e-9
            assert cache.active_bytes <= cache.capacity_bytes + 1e-9
        assert cache.stats.accesses == length
        assert cache.stats.hits + cache.stats.misses == length

    @given(fraction=st.floats(min_value=0.1, max_value=0.9),
           num_items=st.integers(20, 150), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_minio_epoch_hits_equal_cached_items(self, fraction, num_items, seed):
        """The defining MinIO property for any dataset and cache fraction."""
        spec = DatasetSpec("prop", "image_classification", num_items, 10_000.0,
                           item_size_cv=0.3)
        dataset = SyntheticDataset(spec, seed=seed)
        cache = MinIOCache(dataset.total_bytes * fraction)
        sampler = RandomSampler(num_items, seed=seed)
        for item in sampler.epoch(0):      # warm-up epoch
            item = int(item)
            if not cache.lookup(item):
                cache.admit(item, dataset.item_size(item))
        resident = len(list(cache.cached_items()))
        cache.reset_stats()
        for item in sampler.epoch(1):
            item = int(item)
            if not cache.lookup(item):
                cache.admit(item, dataset.item_size(item))
        assert cache.stats.hits == resident

    @given(fraction=st.floats(min_value=0.1, max_value=0.9),
           num_items=st.integers(30, 150), seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_minio_steady_state_misses_never_above_page_cache(self, fraction, num_items,
                                                              seed):
        """MinIO is at least as effective as the page cache for DNN epochs."""
        spec = DatasetSpec("prop2", "image_classification", num_items, 10_000.0,
                           item_size_cv=0.2)
        dataset = SyntheticDataset(spec, seed=seed)
        minio = MinIOCache(dataset.total_bytes * fraction)
        page = PageCache(dataset.total_bytes * fraction, page_bytes=1.0)
        sampler = RandomSampler(num_items, seed=seed)
        for epoch in range(3):
            if epoch == 2:
                minio.reset_stats()
                page.reset_stats()
            for item in sampler.epoch(epoch):
                item = int(item)
                size = dataset.item_size(item)
                if not minio.lookup(item):
                    minio.admit(item, size)
                if not page.lookup(item):
                    page.admit(item, size)
        assert minio.stats.misses <= page.stats.misses


# Prep pricing -------------------------------------------------------------------

class TestPrepPricingProperties:
    @given(seed=seeds, num_batches=st.integers(1, 60),
           task=st.sampled_from(["image_classification", "object_detection",
                                 "audio_classification"]),
           library=st.sampled_from(["dali", "pytorch"]),
           gpu_offload=st.booleans(), cores=st.floats(0.25, 48.0),
           hyperthreads=st.floats(0.0, 48.0), num_gpus=st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_array_pricing_equals_per_batch_pricing_bit_for_bit(
            self, seed, num_batches, task, library, gpu_offload, cores,
            hyperthreads, num_gpus):
        """One call over arrays of batch bytes and sizes prices every batch
        exactly as one ``prep_time_for_batch`` call per batch, empty
        batches included, CPU-only or with GPU offload."""
        rng = np.random.default_rng(seed)
        batch_sizes = rng.integers(0, 512, size=num_batches)
        batch_bytes = batch_sizes * rng.lognormal(11.0, 1.0, size=num_batches)
        pool = WorkerPool(physical_cores=cores, hyperthreads=hyperthreads,
                          gpu_offload=gpu_offload)
        pipeline = PrepPipeline.for_task(task, library)
        priced = pool.prep_time_for_batch(pipeline, batch_bytes, batch_sizes,
                                          num_gpus_for_offload=num_gpus)
        per_batch = [pool.prep_time_for_batch(pipeline, nbytes, n,
                                              num_gpus_for_offload=num_gpus)
                     for nbytes, n in zip(batch_bytes.tolist(),
                                          batch_sizes.tolist())]
        assert all(type(time) is float for time in per_batch)
        assert [time.hex() for time in priced.tolist()] == [
            time.hex() for time in per_batch]


# Coordinated staging -----------------------------------------------------------

class TestStagingPeakProperties:
    @given(num_items=st.integers(1, 3_000), gpus_per_job=st.integers(1, 2),
           seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_peak_is_one_batch_of_the_prepared_dataset(self, num_items,
                                                       gpus_per_job, seed):
        """Every staged minibatch holds ``batch_size`` of the epoch's items
        (the last one may hold fewer), so the peak is at least the mean
        batch and at most the ``batch_size`` largest prepared items."""
        from repro.cluster.configs import config_ssd_v100
        from repro.sim.hp_search import HPSearchScenario
        spec = DatasetSpec("staging", "image_classification", num_items,
                           110_000.0)
        dataset = SyntheticDataset(spec, seed=0)
        scenario = HPSearchScenario(RESNET18, dataset, config_ssd_v100(),
                                    num_jobs=2, gpus_per_job=gpus_per_job,
                                    seed=seed)
        prepared = PrepPipeline.for_dataset(dataset).prepared_bytes(
            dataset.item_sizes(np.arange(num_items)))
        batch = scenario.batch_size
        batches = -(-num_items // batch)
        peak = scenario.run_coordl().staging_peak_bytes
        assert prepared.sum() / batches <= peak * (1 + 1e-12)
        assert peak <= np.sort(prepared)[-batch:].sum() * (1 + 1e-12)


# Pipeline makespan -------------------------------------------------------------

class TestMakespanProperties:
    @given(times=st.lists(
        st.tuples(st.floats(0.001, 1.0), st.floats(0.001, 1.0), st.floats(0.001, 1.0)),
        min_size=1, max_size=60),
        depth=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_makespan_bounded_by_stage_sums_and_serial_time(self, times, depth):
        fetch = [t[0] for t in times]
        prep = [t[1] for t in times]
        gpu = [t[2] for t in times]
        makespan = pipeline_makespan([fetch, prep, gpu], queue_depth=depth)
        serial = sum(fetch) + sum(prep) + sum(gpu)
        bottleneck = max(sum(fetch), sum(prep), sum(gpu))
        assert bottleneck - 1e-9 <= makespan <= serial + 1e-9

    @given(times=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_makespan_monotone_in_stage_times(self, times):
        base = pipeline_makespan([times, times, times])
        slower = pipeline_makespan([[2 * t for t in times], times, times])
        assert slower >= base

    @given(num_stages=st.integers(1, 5), num_batches=st.integers(0, 80),
           depth=st.integers(1, 100), seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_numpy_kernel_matches_reference(self, num_stages, num_batches, depth, seed):
        """The vectorised kernel equals the per-batch recurrence exactly."""
        rng = np.random.default_rng(seed)
        times = rng.uniform(1e-4, 5.0, size=(num_stages, num_batches))
        reference = pipeline_makespan_reference(times, queue_depth=depth)
        if num_batches:
            fast = _makespan_numpy(times, depth)
            assert fast == pytest.approx(reference, abs=1e-9)
        # The size-based choice agrees too, whichever kernel it takes.
        assert pipeline_makespan(times, queue_depth=depth) == pytest.approx(
            reference, abs=1e-9)

    @given(num_items=st.integers(1, 400), seed=seeds,
           capacity=st.floats(min_value=0.0, max_value=5e6),
           slack=st.one_of(st.none(), st.floats(0.0, 1.0)),
           warm=st.floats(0.0, 1.0),
           admit_p=st.one_of(st.none(), st.floats(0.0, 1.0)),
           repeats=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_minio_bulk_epoch_matches_per_item_lookups(self, num_items, seed,
                                                       capacity, slack, warm,
                                                       admit_p, repeats):
        """Vectorised MinIO epochs equal per-item lookup+admit, epoch by
        epoch: hit masks, entries in admission order, ``used_bytes`` and
        counters, from a warm start, with or without an admission mask.
        ``slack`` puts the capacity within one item of the stream total,
        where items after the first rejection still fit."""
        spec = DatasetSpec("bulk", "image_classification", num_items, 10_000.0,
                           item_size_cv=0.4)
        dataset = SyntheticDataset(spec, seed=seed)
        rng = np.random.default_rng(seed)
        all_sizes = dataset.item_sizes(np.arange(num_items))
        if slack is not None:
            capacity = dataset.total_bytes - slack * float(all_sizes.max())
        scalar, bulk = MinIOCache(capacity), MinIOCache(capacity)
        for item in rng.permutation(num_items)[:int(warm * num_items)].tolist():
            for cache in (scalar, bulk):
                cache.admit(item, dataset.item_size(item))
        sampler = RandomSampler(num_items, seed=seed)
        for epoch in range(repeats):
            order = sampler.epoch(epoch)
            sizes = dataset.item_sizes(order)
            mask = None if admit_p is None else rng.random(num_items) < admit_p
            scalar_hits = []
            for i, (item, size) in enumerate(zip(order.tolist(), sizes.tolist())):
                hit = scalar.lookup(item)
                scalar_hits.append(hit)
                if not hit and (mask is None or mask[i]):
                    scalar.admit(item, size)
            bulk_hits = bulk.bulk_epoch_hits(order, sizes, admit=mask)
            assert bulk_hits.tolist() == scalar_hits
            assert list(bulk.cached_items()) == list(scalar.cached_items())
            assert bulk.used_bytes == scalar.used_bytes
            # Every counter.
            assert bulk.stats == scalar.stats
            # The residency table the bulk path sets in place stays exact.
            assert bulk.contains_array(np.arange(num_items)).tolist() == [
                item in scalar for item in range(num_items)]

    @given(num_items=st.integers(1, 300), seed=seeds,
           fill=st.floats(0.0, 1.2), warm=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_minio_admit_prefix_matches_admits_until_the_first_rejection(
            self, num_items, seed, fill, warm):
        """``admit_prefix`` equals per-item ``admit`` calls that stop at the
        first rejection; resident items count as admitted."""
        spec = DatasetSpec("prefix", "image_classification", num_items,
                           10_000.0, item_size_cv=0.4)
        dataset = SyntheticDataset(spec, seed=seed)
        rng = np.random.default_rng(seed)
        scalar = MinIOCache(dataset.total_bytes * fill)
        bulk = MinIOCache(dataset.total_bytes * fill)
        for item in rng.permutation(num_items)[:int(warm * num_items)].tolist():
            for cache in (scalar, bulk):
                cache.admit(item, dataset.item_size(item))
        order = rng.permutation(num_items)
        admitted = 0
        for item in order.tolist():
            if not scalar.admit(item, dataset.item_size(item)):
                break
            admitted += 1
        assert bulk.admit_prefix(order, dataset.item_sizes(order)) == admitted
        assert list(bulk.cached_items()) == list(scalar.cached_items())
        assert bulk.used_bytes == scalar.used_bytes
        assert bulk.stats == scalar.stats

    @given(num_items=st.integers(2, 200), num_servers=st.integers(1, 4),
           fraction=st.floats(min_value=0.05, max_value=1.3),
           skew=st.floats(min_value=0.2, max_value=1.0),
           seed=seeds, epochs=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_partitioned_bulk_epoch_matches_per_item_lookups(
            self, num_items, num_servers, fraction, skew, seed, epochs):
        """Bulk partitioned population and epochs equal their per-item
        references (each server admitting its shard one item at a time
        until MinIO first rejects; then lookup+admit_local), rank by rank.

        ``fraction`` sweeps miss-heavy (tiny caches) through remote-hit-heavy
        (aggregate coverage) regimes; ``skew`` unbalances the per-server
        budgets so mixed cache states appear.
        """
        num_servers = min(num_servers, num_items)
        spec = DatasetSpec("part", "image_classification", num_items, 10_000.0,
                           item_size_cv=0.4)
        dataset = SyntheticDataset(spec, seed=seed)
        budget = dataset.total_bytes * fraction / num_servers
        capacities = [budget * (skew if s % 2 else 1.0) for s in range(num_servers)]
        scalar = PartitionedCacheGroup(dataset, capacities, seed=seed)
        bulk = PartitionedCacheGroup(dataset, capacities, seed=seed)

        def assert_same_state():
            for ref_cache, bulk_cache in zip(scalar.caches, bulk.caches):
                assert list(bulk_cache.cached_items()) == list(
                    ref_cache.cached_items())
                assert bulk_cache.used_bytes == ref_cache.used_bytes
                assert bulk_cache.stats == ref_cache.stats
            assert [bulk.owner_of(i) for i in range(num_items)] == [
                scalar.owner_of(i) for i in range(num_items)]

        # Every owner starts unset and the shards are disjoint, so
        # admit_local's directory update is the population's.
        for server in range(num_servers):
            for item in scalar.shard(server).tolist():
                if not scalar.admit_local(server, item):
                    break
        bulk.populate_from_shards()
        assert_same_state()
        for epoch in range(epochs):
            for rank in range(num_servers):
                order = DistributedSampler(num_items, num_servers, rank,
                                           seed=seed).epoch(epoch)
                sizes = dataset.item_sizes(order)
                sources = []
                for item, size in zip(order.tolist(), sizes.tolist()):
                    lookup = scalar.lookup(rank, item)
                    sources.append(lookup.source)
                    if lookup.source is LookupSource.STORAGE:
                        scalar.admit_local(rank, item)
                local, remote = bulk.bulk_epoch_lookup(rank, order, sizes)
                assert local.tolist() == [s is LookupSource.LOCAL_CACHE
                                          for s in sources]
                assert remote.tolist() == [s is LookupSource.REMOTE_CACHE
                                           for s in sources]
                assert_same_state()

    @given(num_items=st.integers(1, 80), seed=seeds,
           capacity_fraction=st.floats(0.05, 3.0),
           active_target=st.floats(0.0, 1.0),
           passes=st.integers(1, 4),
           page_pow=st.integers(0, 12),
           warm_fraction=st.floats(0.0, 1.0),
           jitter=st.booleans())
    @example(num_items=40, seed=0, capacity_fraction=3.0, active_target=0.5,
             passes=3, page_pow=12, warm_fraction=0.5, jitter=False)
    @settings(max_examples=80, deadline=None)
    def test_warm_kernel_equals_per_item_walk(self, num_items, seed,
                                              capacity_fraction, active_target,
                                              passes, page_pow, warm_fraction,
                                              jitter):
        """The replay entry ≡ the lookup/admit walk, bit for bit.

        Random multi-pass streams over random capacities, page sizes and
        ``active_target_fraction`` values, from warm starts with promoted
        pages.  Capacities run from thrashing up to three times the raw
        sizes, so even at 4 KiB pages some streams never evict (the
        explicit example is one); ``jitter`` perturbs per-access sizes so the same item shows
        different rounded sizes.  A size-consistent stream (one rounded
        size per item, matching its resident size, none over capacity) must
        run the kernel; any other stream must make the kernel decline with
        no side effects, so the entry walks.  Either way the hit mask,
        every stats counter, the byte occupancies and the *order* of both
        lists — what future evictions observe — must all be equal.
        """
        page = float(2 ** page_pow)
        rng = np.random.default_rng(seed)
        item_sizes = np.maximum(rng.lognormal(8.0, 1.0, num_items), 1.0)
        capacity = float(item_sizes.sum() * capacity_fraction)
        scalar = PageCache(capacity, page_bytes=page,
                           active_target_fraction=active_target)
        bulk = PageCache(capacity, page_bytes=page,
                         active_target_fraction=active_target)
        warm = rng.permutation(num_items)[:int(num_items * warm_fraction)]
        for cache in (scalar, bulk):
            for item in warm.tolist():
                if not cache.lookup(item):
                    cache.admit(item, float(item_sizes[item]))
            for item in warm.tolist()[::3]:
                cache.lookup(item)          # promote a third to active
        stream = np.concatenate([rng.permutation(num_items)
                                 for _ in range(passes)]).astype(np.int64)
        sizes = item_sizes[stream]
        if jitter:
            sizes = sizes * rng.choice([0.5, 1.0, 1.0, 2.0], size=sizes.size)
        kernel = _kernel_replay(bulk, stream, sizes)
        if _size_consistent(bulk, stream, sizes):
            assert kernel is not None, "kernel declined a realisable stream"
        else:
            assert kernel is None
        scalar_hits = scalar.walk(stream, sizes)
        bulk_hits = bulk.bulk_stream_hits(stream, sizes)
        assert bulk_hits.tolist() == scalar_hits.tolist()
        if kernel is not None:
            assert kernel.hit_mask.tolist() == scalar_hits.tolist()
        # List *order* equality: ordering is observable through future
        # evictions and demotions, so the kernel must reproduce it exactly.
        assert bulk.resident_lists() == scalar.resident_lists()
        assert bulk.used_bytes == scalar.used_bytes
        assert bulk.active_bytes == scalar.active_bytes
        assert bulk.inactive_bytes == scalar.inactive_bytes
        assert bulk.stats == scalar.stats
        # Ordering-observable future evictions: keep streaming until the
        # caches churn again and re-compare the hit masks.
        tail = rng.permutation(num_items).astype(np.int64)
        tail_sizes = item_sizes[tail]
        tail_scalar = scalar.walk(tail, tail_sizes)
        tail_bulk = bulk.bulk_stream_hits(tail, tail_sizes)
        assert tail_bulk.tolist() == tail_scalar.tolist()
        assert bulk.resident_lists() == scalar.resident_lists()

    @given(num_items=st.integers(2, 60), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_warm_kernel_mixed_size_fallback_is_exact(self, num_items, seed):
        """When the kernel declines (a resident item comes back with a
        different page count), ``bulk_epoch_hits`` walks with identical
        results and no double-applied side effects."""
        page = 4096.0
        rng = np.random.default_rng(seed)
        item_sizes = np.maximum(rng.lognormal(8.0, 1.0, num_items), 1.0)
        capacity = float(item_sizes.sum() * 0.5)
        scalar = PageCache(capacity)
        bulk = PageCache(capacity)
        for cache in (scalar, bulk):                # warm both identically
            for item in range(0, num_items, 2):
                if not cache.lookup(item):
                    cache.admit(item, float(item_sizes[item]))
        assume(len(scalar))                          # some warm item fits
        for epoch in range(2):
            order = RandomSampler(num_items, seed=seed).epoch(epoch)
            # One page more per epoch: every resident's count differs.
            sizes = item_sizes[order] + (epoch + 1) * page
            scalar_hits = scalar.walk(order, sizes)
            assert _kernel_replay(bulk, order, sizes) is None
            bulk_hits = bulk.bulk_epoch_hits(order, sizes)
            assert bulk_hits.tolist() == scalar_hits.tolist()
            assert bulk.resident_lists() == scalar.resident_lists()
            assert bulk.stats == scalar.stats

    @given(num_items=st.integers(1, 300), seed=seeds,
           capacity_pages=st.integers(1, 200), epochs=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_page_cache_bulk_epoch_matches_per_item_lookups(self, num_items, seed,
                                                            capacity_pages, epochs):
        """Bulk page-cache epochs, the first from a cold cache and the rest
        warm, replay exactly what per-item lookups do."""
        spec = DatasetSpec("bulkpc", "image_classification", num_items, 9_000.0,
                           item_size_cv=0.5)
        dataset = SyntheticDataset(spec, seed=seed)
        capacity = capacity_pages * 4096.0
        scalar, bulk = PageCache(capacity), PageCache(capacity)
        sampler = RandomSampler(num_items, seed=seed)
        for epoch in range(epochs):
            order = sampler.epoch(epoch)
            sizes = dataset.item_sizes(order)
            scalar_hits = []
            for item, size in zip(order.tolist(), sizes.tolist()):
                hit = scalar.lookup(item)
                scalar_hits.append(hit)
                if not hit:
                    scalar.admit(item, size)
            bulk_hits = bulk.bulk_epoch_hits(order, sizes)
            assert bulk_hits.tolist() == scalar_hits
            assert list(bulk.cached_items()) == list(scalar.cached_items())
            assert bulk.used_bytes == pytest.approx(scalar.used_bytes)
            assert bulk.active_bytes == pytest.approx(scalar.active_bytes)
            for field in ("hits", "misses", "insertions", "rejected"):
                assert getattr(bulk.stats, field) == getattr(scalar.stats, field)

    @given(inputs=_page_rounding_inputs(),
           capacity_pages=st.integers(0, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_page_rounding_is_the_exact_integer_ceiling(self, inputs,
                                                        capacity_pages):
        """A power-of-two page divides every float exactly, so both the
        per-item and the per-stream rounding equal the exact rational
        ceiling; the stream form clips a count over the capacity to one
        page past it."""
        page, sizes = inputs
        cache = PageCache(capacity_pages * page, page_bytes=page)
        expected = [_exact_pages(size, page) for size in sizes.tolist()]
        assert [cache._rounded(0, size) for size in sizes.tolist()] == expected
        stream = cache._rounded_stream(sizes)
        assert stream.dtype == np.int64
        assert stream.tolist() == [min(pages, capacity_pages + 1)
                                   for pages in expected]


# Replay memo -------------------------------------------------------------------

#: One-input changes to a replay: each kernel input must miss the memo and
#: replay; the prior hit count, which is no kernel input, must hit it.
REPLAY_CHANGES = ("size", "capacity", "order", "stored", "prior_hits")


def _cache_copy(cache: PageCache, active_target: float,
                capacity: float | None = None, lists=None) -> PageCache:
    """A fresh page cache holding ``lists`` (default: ``cache``'s
    resident lists) and ``cache``'s hit count, optionally resized; built
    through per-item calls, so its lists are OrderedDicts."""
    inactive, active = cache.resident_lists() if lists is None else lists
    twin = PageCache(cache.capacity_bytes if capacity is None else capacity,
                     page_bytes=cache.page_bytes,
                     active_target_fraction=active_target)
    for item, stored in active:
        twin.admit(item, stored)
        twin.lookup(item)                   # promote to the active end
    for item, stored in inactive:
        twin.admit(item, stored)
    assert twin.resident_lists() == (inactive, active)
    twin.reset_stats()
    twin.stats.hits = cache.stats.hits
    return twin


class TestReplayMemoProperties:
    @pytest.mark.parametrize("change", REPLAY_CHANGES)
    @given(num_items=st.integers(2, 60), seed=seeds,
           capacity_fraction=st.floats(0.1, 1.2),
           # A zero target keeps the active-list limit fixed when the
           # capacity changes, so the capacity alone must move the key.
           active_target=st.just(0.0) | st.floats(0.0, 1.0),
           passes=st.integers(1, 3),
           warm_fraction=st.floats(0.3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_a_memo_hit_equals_a_replay_and_any_changed_input_replays(
            self, change, num_items, seed, capacity_fraction, active_target,
            passes, warm_fraction):
        """Under an active memo, replaying one input twice runs the kernel
        once and leaves the cache exactly as an unmemoised replay does;
        changing any single kernel input misses the memo and replays, while
        a cache that differs only in its prior hit count hits it and still
        ends as an unmemoised replay does.  A stream the kernel declines (an
        item over capacity, or a size or stored-size change that makes an
        item's page count inconsistent) is walked on every call and never
        kept."""
        page = 4096.0
        rng = np.random.default_rng(seed)
        item_sizes = np.maximum(rng.lognormal(9.0, 1.0, num_items), 1.0)
        base = PageCache(float(item_sizes.sum() * capacity_fraction),
                         active_target_fraction=active_target)
        warm = rng.permutation(num_items)[:max(2, int(num_items
                                                      * warm_fraction))]
        for item in warm.tolist():
            if not base.lookup(item):
                base.admit(item, float(item_sizes[item]))
        for item in warm.tolist()[::3]:
            base.lookup(item)               # promote a third to active
        base.reset_stats()
        base.stats.hits = int(rng.integers(0, 4))
        stream = np.concatenate([rng.permutation(num_items)
                                 for _ in range(passes)]).astype(np.int64)
        sizes = item_sizes[stream]

        changed, changed_sizes = _cache_copy(base, active_target), sizes
        lists = base.resident_lists()
        # "order" and "stored" change either list that has two members.
        candidates = [members for members in lists if len(members) >= 2]
        assume(candidates or change not in ("order", "stored"))
        members = (candidates[int(rng.integers(0, len(candidates)))]
                   if candidates else [])
        if change == "size":
            changed_sizes = sizes.copy()
            changed_sizes[int(rng.integers(0, sizes.size))] += page
        elif change == "capacity":
            changed = _cache_copy(base, active_target,
                                  capacity=base.capacity_bytes + page)
        elif change == "order":
            members[0], members[1] = members[1], members[0]
            changed = _cache_copy(base, active_target, lists=lists)
        elif change == "stored":
            # One resident's stored size grows by a page and another's
            # shrinks by one, so the occupancies (also keyed) stay put.
            donors = [i for i, (_item, stored) in enumerate(members)
                      if stored >= 2 * page]
            assume(donors)
            donor = donors[0]
            receiver = 1 if donor == 0 else 0
            for i, delta in ((donor, -page), (receiver, page)):
                members[i] = (members[i][0], members[i][1] + delta)
            changed = _cache_copy(base, active_target, lists=lists)
        else:
            changed.stats.hits += 1

        plain = _cache_copy(base, active_target)
        expected = _replay_state(plain, plain.bulk_stream_hits(stream, sizes))
        reference = _cache_copy(changed, active_target)
        expected_changed = _replay_state(
            reference, reference.bulk_stream_hits(stream, changed_sizes))

        replayable = _kernel_replay(base, stream, sizes) is not None
        memo = ReplayMemo()
        with mock.patch.object(page_cache, "simulate_segmented_lru",
                               wraps=simulate_segmented_lru) as kernel, \
                memo.activated():
            for _ in range(2):
                cache = _cache_copy(base, active_target)
                hits = cache.bulk_stream_hits(stream, sizes)
                assert _replay_state(cache, hits) == expected
            if replayable:
                assert kernel.call_count == 1
                assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)
            else:
                assert kernel.call_count == 2
                assert (memo.hits, memo.misses, len(memo)) == (0, 2, 0)
            calls = kernel.call_count
            hits = changed.bulk_stream_hits(stream, changed_sizes)
            memo_hit = replayable and change == "prior_hits"
            assert kernel.call_count == calls + (not memo_hit)
            assert _replay_state(changed, hits) == expected_changed


# Page-cache state forms ---------------------------------------------------------

#: What a random page-cache program does at one step.  Bulk entries keep
#: the lists as the kernel's arrays; per-item calls turn them back into
#: OrderedDicts.  ``epoch`` is a single pass over distinct items
#: (``bulk_epoch_hits``), ``stream`` a stream with repeats
#: (``bulk_stream_hits``); the walk-only twin walks both.
PAGE_CACHE_STEPS = ("lookup", "admit", "evict", "clear", "reset_stats",
                    "epoch", "stream")


def _page_cache_step(cache: PageCache, step: str, seed: int, item_sizes,
                     memo: ReplayMemo | None, walk_only: bool):
    """Apply one program step; what it returns, as a plain value."""
    rng = np.random.default_rng(seed)
    num_items = item_sizes.size
    item = int(rng.integers(0, num_items))
    if step == "lookup":
        return cache.lookup(item)
    if step == "admit":
        return cache.admit(item, float(item_sizes[item]))
    if step == "evict":
        return cache.evict(item)
    if step in ("clear", "reset_stats"):
        return getattr(cache, step)()
    if step == "epoch":
        length = int(rng.integers(1, num_items + 1))
        stream = rng.permutation(num_items)[:length]
    else:
        length = int(rng.integers(1, 3 * num_items))
        stream = rng.integers(0, num_items, size=length)
    stream = stream.astype(np.int64)
    sizes = item_sizes[stream]
    if walk_only:
        return cache.walk(stream, sizes).tolist()
    bulk = cache.bulk_epoch_hits if step == "epoch" else cache.bulk_stream_hits
    if memo is None:
        return bulk(stream, sizes).tolist()
    with memo.activated():
        return bulk(stream, sizes).tolist()


class TestPageCacheStateForms:
    @given(num_items=st.integers(2, 40), seed=seeds,
           capacity_fraction=st.floats(0.1, 1.2),
           active_target=st.floats(0.0, 1.0),
           program=st.lists(st.tuples(st.sampled_from(PAGE_CACHE_STEPS),
                                      st.integers(0, 2**16), st.booleans()),
                            min_size=1, max_size=14))
    @settings(max_examples=80, deadline=None)
    def test_any_interleaving_equals_a_cache_that_only_walks(
            self, num_items, seed, capacity_fraction, active_target, program):
        """Bulk entries (some under an active memo) interleaved with
        per-item calls leave exactly what a twin that only walks leaves:
        the same returned masks, counters, byte totals and list order
        after every step.  The program runs on three fresh caches sharing
        one memo: the later runs commit memo hits by reference and then
        mutate item by item, so a write into the memo's arrays would show
        in the run after it."""
        rng = np.random.default_rng(seed)
        item_sizes = np.maximum(rng.lognormal(9.0, 1.0, num_items), 1.0)
        capacity = float(item_sizes.sum() * capacity_fraction)

        def run(walk_only: bool, memo: ReplayMemo | None) -> list:
            cache = PageCache(capacity, active_target_fraction=active_target)
            trace = []
            for step, step_seed, memoised in program:
                result = _page_cache_step(cache, step, step_seed, item_sizes,
                                          memo if memoised else None,
                                          walk_only)
                trace.append((step, result, _replay_state(cache, None)))
            return trace

        expected = run(walk_only=True, memo=None)
        memo = ReplayMemo()
        for _ in range(3):
            assert run(walk_only=False, memo=memo) == expected


# Record snapshot codec --------------------------------------------------------

#: Any finite float64, with the edge cases drawn often: signed zero,
#: subnormals and integers beyond 2**53 (where float spacing exceeds 1).
finite_floats = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([-0.0, 5e-324, -2.2250738585072004e-308,
                                    2.0**53 + 2.0, -(2.0**60) + 256.0]))
#: Read sizes stay small enough that running byte totals cannot overflow.
read_sizes = finite_floats.filter(lambda x: abs(x) < 1e300)
single_reads = st.tuples(st.just("one"), read_sizes,
                         st.none() | finite_floats)
bulk_reads = st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just("bulk"), st.lists(read_sizes, min_size=n, max_size=n),
    st.none() | st.lists(finite_floats, min_size=n, max_size=n)))


def _timeline_bits(timeline) -> bytes:
    return struct.pack(f"<{2 * len(timeline)}d",
                       *(value for sample in timeline for value in sample))


class TestSnapshotCodecProperties:
    @given(reads=st.lists(single_reads | bulk_reads, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_timeline_round_trips_bit_for_bit_and_keeps_its_digest(self, reads):
        io = IOStats()
        for kind, size, at_time in reads:
            if kind == "one":
                io.record_disk(size, at_time=at_time)
            else:
                io.record_disk_bulk(size, at_times=at_time)
        run = TrainingRunStats()
        run.add(EpochStats(epoch_time_s=1.0, gpu_time_s=0.5,
                           prep_limited_time_s=0.75, samples=1, io=io))
        record = SweepRecord(
            point=SweepPoint(model=RESNET18, loader="coordl",
                             dataset="openimages"),
            dataset_name="openimages", loader_name="coordl", run=run)

        # Encoded straight from the recorded chunks, and passed through
        # JSON text as the store and both wire protocols pass it.
        full = json.loads(json.dumps(record.snapshot(include_timeline=True)))
        digest = record.snapshot()["epochs"][0]["io"]["timeline_digest"]

        reference = hashlib.blake2b(digest_size=16)
        for t, b in io.timeline:
            reference.update(f"{t.hex()}:{b.hex()};".encode("ascii"))
        assert digest == reference.hexdigest()

        rehydrated = SweepRecord.from_snapshot(full).run.epochs[0].io
        assert (_timeline_bits(rehydrated.timeline)
                == _timeline_bits(io.timeline))
        assert (struct.pack("<3d", rehydrated.disk_bytes, rehydrated.cache_bytes,
                            rehydrated.remote_bytes)
                == struct.pack("<3d", io.disk_bytes, io.cache_bytes,
                               io.remote_bytes))
        assert rehydrated.disk_requests == io.disk_requests
