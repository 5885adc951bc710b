"""The data loader every training kind runs: baselines and CoorDL alike.

A loader owns the *policy* side of the data pipeline for one training job on
one server: which order items are visited in (sampler), which cache the items
pass through, which prep pipeline and worker pool process them, and which
storage device serves misses.  The loader kinds differ only in those parts,
so one class serves them all; :func:`repro.sim.single_server.build_loader`
assembles each kind from its recipe.  Only CoorDL's distributed loader
(:class:`~repro.coordl.partitioned_loader.PartitionedCoorDLLoader`) changes
the fetch path itself.  The simulation engine (:mod:`repro.sim.engine`) asks
the loader for per-batch fetch/prep durations and drives the pipelined
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.base import Cache
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import BatchSampler
from repro.prep.pipeline import PrepPipeline
from repro.prep.workers import WorkerPool
from repro.storage.device import dram
from repro.storage.filestore import FileStore
from repro.storage.iostats import IOStats


@dataclass
class BatchFetchResult:
    """Outcome of fetching one minibatch."""

    duration_s: float
    hits: int
    misses: int
    disk_bytes: float
    cache_bytes: float
    remote_bytes: float = 0.0


class DataLoader:
    """Cache-mediated fetch + CPU/GPU prep over a file store.

    Args:
        dataset: Dataset being trained on.
        store: File store (dataset + storage device) serving cache misses.
        cache: Cache the fetch path goes through.
        batch_sampler: Per-epoch batch order.
        prep: Pre-processing pipeline (cost model).
        workers: CPU worker pool (and GPU offload setting) used for prep.
        num_gpus: GPUs consuming this loader's output (used only to size GPU
            prep offload capacity).
        name: Loader name results are reported under.

    Cache hits are charged at DRAM speed and misses at the store's
    random-read rate.
    """

    def __init__(self, dataset: SyntheticDataset, store: FileStore, cache: Cache,
                 batch_sampler: BatchSampler, prep: PrepPipeline, workers: WorkerPool,
                 num_gpus: int = 1, name: str = "loader") -> None:
        self.name = name
        self._dataset = dataset
        self._store = store
        self._cache = cache
        self._batch_sampler = batch_sampler
        self._prep = prep
        self._workers = workers
        self._num_gpus = num_gpus
        self._dram = dram()
        self._io = IOStats()

    # -- accessors ---------------------------------------------------------

    @property
    def cache(self) -> Cache:
        """Cache the fetch path goes through."""
        return self._cache

    @property
    def store(self) -> FileStore:
        """Backing file store."""
        return self._store

    @property
    def batch_sampler(self) -> BatchSampler:
        """Per-epoch batch order."""
        return self._batch_sampler

    @property
    def num_gpus(self) -> int:
        """GPUs consuming this loader's output."""
        return self._num_gpus

    @property
    def io(self) -> IOStats:
        """Cumulative I/O accounting for this loader."""
        return self._io

    def batch_size(self) -> int:
        """Per-iteration batch size."""
        return self._batch_sampler.batch_size

    def batches(self, epoch_index: int) -> List[np.ndarray]:
        """Minibatches (item-id arrays) for one epoch."""
        return self._batch_sampler.epoch(epoch_index)

    # -- fetch / prep ------------------------------------------------------

    def fetch_batch(self, batch: np.ndarray, at_time: float = 0.0) -> BatchFetchResult:
        """Fetch one minibatch through the cache, charging device times.

        Mutates the cache (recency updates, admissions) and the I/O
        accounting; returns the wall-clock duration of the fetch.
        """
        duration = 0.0
        hits = 0
        misses = 0
        disk_bytes = 0.0
        cache_bytes = 0.0
        for raw_id in batch:
            item_id = int(raw_id)
            size = self._dataset.item_size(item_id)
            if self._cache.lookup(item_id):
                hits += 1
                cache_bytes += size
                duration += self._dram.read_time(size)
                self._io.record_cache(size)
            else:
                misses += 1
                disk_bytes += size
                duration += self._store.read_bytes(size, at_time=at_time + duration)
                self._io.record_disk(size, at_time=at_time + duration)
                self._cache.admit(item_id, size)
        return BatchFetchResult(
            duration_s=duration,
            hits=hits,
            misses=misses,
            disk_bytes=disk_bytes,
            cache_bytes=cache_bytes,
        )

    def batch_time_arrays(self, epoch_index: int) -> Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorised epoch fetch path, when the cache trajectory is analytic.

        Returns ``(fetch_s, cached_fetch_s, prep_s, batch_sizes)`` — one entry
        per minibatch — after applying exactly the side effects the per-batch
        :meth:`fetch_batch` loop would have applied (cache mutations and
        counters, loader and store I/O accounting including the disk
        timeline).  Warm page-cache epochs qualify too: epochs 2+ replay
        the segmented-LRU bulk kernel inside
        :meth:`repro.cache.page_cache.PageCache.bulk_epoch_hits`.  Returns
        ``None``, without side effects, when the epoch must be simulated
        batch by batch: a subclass customises the fetch policy, or the
        epoch revisits an item.
        """
        cls = type(self)
        if (cls.fetch_batch is not DataLoader.fetch_batch
                or cls.cached_fetch_time is not DataLoader.cached_fetch_time
                or cls.prep_batch_time is not DataLoader.prep_batch_time):
            return None
        plan = self._single_pass_epoch(epoch_index)
        if plan is None:
            return None
        batches, order, sizes = plan
        hits = self._cache.bulk_epoch_hits(order, sizes)

        # Point of no return: the cache has applied its epoch mutations, so
        # everything below is unconditional — a fallback from here on would
        # double-apply counters and disk timelines.
        item_times = np.where(
            hits,
            self._dram.read_times_array(sizes),
            self._store.bulk_read_times(sizes))
        clock = np.cumsum(item_times)
        misses = ~hits
        if misses.any():
            miss_sizes = sizes[misses]
            # The store sees each read at its start time, the loader's
            # timeline samples it at completion (as in the per-item path).
            self._store.record_bulk(miss_sizes,
                                    at_times=clock[misses] - item_times[misses])
            self._io.record_disk_bulk(miss_sizes, at_times=clock[misses])
        if hits.any():
            self._io.record_cache_bulk(float(sizes[hits].sum()), int(hits.sum()))
        return self._epoch_arrays(batches, item_times, sizes)

    def _single_pass_epoch(self, epoch_index: int) -> Optional[
            Tuple[List[np.ndarray], np.ndarray, np.ndarray]]:
        """``(batches, order, sizes)`` for a single-pass epoch, else ``None``.

        ``None`` (no side effects) when the epoch is empty or revisits an
        item — then the cache trajectory depends on step-by-step state and
        the caller must fall back to the per-item path.
        """
        batches = self.batches(epoch_index)
        if not batches:
            return None
        order = np.concatenate(batches)
        if order.size and int(np.bincount(order).max()) > 1:
            return None  # an item repeats: cache state matters step by step
        return batches, order, self._dataset.item_sizes(order)

    def _epoch_arrays(self, batches: List[np.ndarray], item_times: np.ndarray,
                      sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                  np.ndarray, np.ndarray]:
        """Reduce per-item fetch times to the per-batch arrays the engine wants."""
        batch_sizes = np.fromiter((len(b) for b in batches), dtype=np.int64,
                                  count=len(batches))
        starts = np.concatenate(([0], np.cumsum(batch_sizes)[:-1]))
        fetch_s = np.add.reduceat(item_times, starts)
        batch_bytes = np.add.reduceat(sizes, starts)
        cached_fetch_s = self._dram.read_times_array(batch_bytes)
        prep_s = np.fromiter(
            (self._workers.prep_time_for_batch(
                self._prep, float(nbytes), int(n),
                num_gpus_for_offload=self._num_gpus)
             for nbytes, n in zip(batch_bytes, batch_sizes)),
            dtype=np.float64, count=len(batches))
        return fetch_s, cached_fetch_s, prep_s, batch_sizes

    def cached_fetch_time(self, batch: np.ndarray) -> float:
        """Fetch duration if every item of the batch were in DRAM.

        Used by the differential stall attribution (DS-Analyzer phase 2).
        """
        total_bytes = self._dataset.items_size(batch)
        return self._dram.read_time(total_bytes)

    def prep_batch_time(self, batch: np.ndarray) -> float:
        """Wall-clock seconds to pre-process one minibatch."""
        total_bytes = float(self._dataset.items_size(batch))
        return self._workers.prep_time_for_batch(
            self._prep, total_bytes, len(batch),
            num_gpus_for_offload=self._num_gpus)

    @property
    def uses_gpu_prep(self) -> bool:
        """Whether DALI-style GPU prep offload is active."""
        return self._workers.gpu_offload

    def reset_io(self) -> None:
        """Clear per-epoch I/O accounting."""
        self._io = IOStats()
