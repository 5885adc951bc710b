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

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.base import Cache
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import BatchSampler
from repro.prep.pipeline import PrepPipeline
from repro.prep.workers import WorkerPool
from repro.storage.device import StorageDevice, dram
from repro.storage.iostats import IOStats


class DataLoader:
    """Cache-mediated fetch + CPU/GPU prep over a storage device.

    Args:
        dataset: Dataset being trained on.
        storage: Storage device serving cache misses.
        cache: Cache the fetch path goes through.
        batch_sampler: Per-epoch batch order.
        prep: Pre-processing pipeline (cost model).
        workers: CPU worker pool (and GPU offload setting) used for prep.
        num_gpus: GPUs consuming this loader's output (used only to size GPU
            prep offload capacity).
        name: Loader name results are reported under.

    Cache hits are charged at DRAM speed and misses at the device's
    random-read rate: the loaders read one small file per sample, far from
    the large transfers sequential bandwidth needs.  Every read is booked
    once, in :attr:`io`.
    """

    def __init__(self, dataset: SyntheticDataset, storage: StorageDevice,
                 cache: Cache, batch_sampler: BatchSampler, prep: PrepPipeline,
                 workers: WorkerPool, num_gpus: int = 1,
                 name: str = "loader") -> None:
        self.name = name
        self._dataset = dataset
        self._storage = storage
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

    def fetch_batch(self, batch: np.ndarray, at_time: float = 0.0) -> float:
        """Fetch one minibatch through the cache, charging device times.

        Mutates the cache (recency updates, admissions) and the I/O
        accounting; returns the wall-clock duration of the fetch in seconds.
        """
        duration = 0.0
        for raw_id in batch:
            item_id = int(raw_id)
            size = self._dataset.item_size(item_id)
            if self._cache.lookup(item_id):
                duration += self._dram.read_time(size)
                self._io.record_cache(size)
            else:
                duration += self._storage.read_time(size)
                self._io.record_disk(size, at_time=at_time + duration)
                self._cache.admit(item_id, size)
        return duration

    def batch_time_arrays(self, epoch_index: int) -> Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorised epoch fetch path for a single-pass epoch.

        Returns ``(fetch_s, cached_fetch_s, prep_s, batch_sizes)`` — one entry
        per minibatch — after applying exactly the side effects the per-batch
        :meth:`fetch_batch` loop would have applied (cache mutations and
        counters, I/O accounting including the disk timeline).  The cache applies the whole epoch through
        :meth:`~repro.cache.base.Cache.bulk_epoch_hits`; a page cache, cold
        or warm, replays it with the segmented-LRU bulk kernel.  Returns
        ``None``, without side effects, when the epoch must be simulated
        batch by batch because it revisits an item.
        """
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
            self._storage.read_times_array(sizes))
        clock = np.cumsum(item_times)
        misses = ~hits
        if misses.any():
            # The timeline samples each read at its completion, as in the
            # per-item path.
            self._io.record_disk_bulk(sizes[misses], at_times=clock[misses])
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
        prep_s = self._workers.prep_time_for_batch(
            self._prep, batch_bytes, batch_sizes,
            num_gpus_for_offload=self._num_gpus)
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
