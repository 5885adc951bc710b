"""Hyperparameter-search scenario (Sec. 3.3, Sec. 5.3, Figs. 9d/e, 17, 22, 23).

HP search runs ``k`` concurrent training jobs on one server, every job
training the *same* model on the *same* dataset with different
hyperparameters.  The baseline (DALI / PyTorch DL) gives each job an
independent data pipeline: the dataset is fetched and pre-processed ``k``
times per epoch through the shared OS page cache (thrashing + read
amplification) using ``cores / k`` CPU cores per job.  CoorDL's coordinated
prep fetches and preps the dataset exactly once per epoch (using all cores and
the MinIO cache) and shares the staged minibatches across jobs.

The scenario is simulated in two parts:

* item-level cache simulation of the interleaved access streams (real
  PageCache / MinIO objects), which yields the per-epoch disk traffic and
  miss ratios; and
* a rate model that converts disk traffic, prep work and GPU work into the
  epoch time — the epoch is bound by the slowest of the shared disk, the
  per-job (or shared) prep sweep, and the per-job GPU ingestion.

CoorDL's staging area adds one figure, its peak memory (Fig. 20): the jobs
consume every staged minibatch in lockstep before the next is produced, so
the area holds one prepared minibatch at a time and its peak is the
largest.  Crash recovery on top of this epoch model lives in
:meth:`repro.sim.failures.FailureScenario.run_crash`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.cache.base import Cache
from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import RandomSampler, Sampler
from repro.exceptions import ConfigurationError
from repro.prep.pipeline import PrepPipeline
from repro.sim.kinds import (PointContext, PointFamily, PointKind,
                             dataclass_codec, named)
from repro.sim.single_server import best_prep
from repro.units import safe_div


@dataclass
class HPSearchResult:
    """Steady-state outcome of one HP-search configuration.

    Attributes:
        loader_name: "dali" or "coordl".
        num_jobs: Concurrent jobs on the server.
        gpus_per_job: GPUs each job uses.
        epoch_time_s: Time for every job to finish one epoch.
        per_job_throughput: Samples/second seen by each job.
        disk_bytes_per_epoch: Bytes read from storage per epoch (all jobs).
        cache_miss_ratio: Item-level miss ratio of the shared cache.
        prep_bound / fetch_bound / gpu_bound: Which resource limits the epoch.
        staging_peak_bytes: Peak memory of the cross-job staging area
            (CoorDL only; 0 for the baseline).
    """

    loader_name: str
    num_jobs: int
    gpus_per_job: int
    epoch_time_s: float
    per_job_throughput: float
    disk_bytes_per_epoch: float
    cache_miss_ratio: float
    prep_bound: bool
    fetch_bound: bool
    gpu_bound: bool
    staging_peak_bytes: float = 0.0


@dataclass(frozen=True)
class HPSearchEpoch:
    """One HP-search epoch priced by the rate model.

    Attributes:
        disk_bytes: Bytes read from storage this epoch (all jobs).
        miss_ratio: Item-level miss ratio of the cache this epoch.
        disk_time_s: Time the shared disk needs for ``disk_bytes``.
        prep_time_s: Time the prep sweep (per job, or shared) needs.
        gpu_time_s: Time each job's GPUs need to ingest the dataset.
    """

    disk_bytes: float
    miss_ratio: float
    disk_time_s: float
    prep_time_s: float
    gpu_time_s: float

    @property
    def time_s(self) -> float:
        """Epoch time: the slowest of disk, prep and GPU bounds it."""
        return max(self.disk_time_s, self.prep_time_s, self.gpu_time_s)


class HPSearchScenario:
    """Simulate ``num_jobs`` concurrent HP-search jobs on one server.

    The epoch model has two halves that other scenarios reuse:
    :meth:`run_epoch` replays one epoch's accesses through a cache and
    prices it, and :meth:`rate_model` prices given disk traffic.  Both
    take ``coordinated``: the uncoordinated baseline interleaves the
    jobs' streams through a shared page cache and preps per job on
    ``cores / num_jobs``; coordinated prep sweeps the dataset once through
    a MinIO cache and preps once on every core and GPU.

    Both epoch replays run in bulk.  Each keeps its per-item reference
    (:meth:`_simulate_shared_page_cache_epoch`,
    :meth:`_simulate_minio_epoch`) as the executable specification it is
    tested against.  The page-cache side is bit-identical to its
    reference.  The MinIO side sums its miss bytes pairwise where the
    reference adds them one at a time, so its disk bytes can differ from
    the reference's in the last bits.

    The bulk replays draw each job's permutation through ``sampler``; the
    references always draw their own, so comparing the two also checks
    the permutations a shared sampler hands out.

    Args:
        model: Model trained by every job.
        dataset: Shared dataset.
        server: Server the jobs run on.
        num_jobs: Number of concurrent jobs.
        gpus_per_job: GPUs per job (``num_jobs * gpus_per_job`` must not
            exceed the server's GPU count).
        cache_bytes: Override the server's cache budget.
        seed: Seed for the per-job access streams.
        sampler: ``sampler(job_seed)``, the random sampler over
            ``dataset`` for one job's seed (``(seed, job)``, or
            ``(seed, 0xC0)`` for the coordinated sweep).  A
            :class:`~repro.sim.sweep.SweepRunner` passes its memoised
            samplers (:class:`~repro.sim.kinds.PointContext`), so every
            point of a grid draws each permutation once; ``None`` draws a
            fresh :class:`~repro.datasets.sampler.RandomSampler` per call.
    """

    def __init__(self, model: ModelSpec, dataset: SyntheticDataset,
                 server: ServerConfig, num_jobs: int = 8, gpus_per_job: int = 1,
                 cache_bytes: Optional[float] = None, seed: int = 0,
                 sampler: Optional[Callable[[Any], Sampler]] = None) -> None:
        if num_jobs <= 0 or gpus_per_job <= 0:
            raise ConfigurationError("jobs and GPUs per job must be positive")
        if num_jobs * gpus_per_job > server.num_gpus:
            raise ConfigurationError(
                f"{num_jobs} jobs x {gpus_per_job} GPUs exceed the server's "
                f"{server.num_gpus} GPUs")
        self._model = model
        self._dataset = dataset
        self._server = server if cache_bytes is None else server.with_cache_bytes(cache_bytes)
        self._num_jobs = num_jobs
        self._gpus_per_job = gpus_per_job
        self._seed = seed
        self._sampler = sampler or partial(RandomSampler, len(dataset))

    # -- the epoch model ---------------------------------------------------

    @property
    def batch_size(self) -> int:
        """Per-job batch size (per-GPU batch times the job's GPUs)."""
        return self._model.batch_size_for(self._server.gpu) * self._gpus_per_job

    @property
    def gpu_rate_per_job(self) -> float:
        """Samples/second one job's GPUs can ingest."""
        return self._model.aggregate_gpu_rate(self._server.gpu, self._gpus_per_job)

    def prep_rate(self, coordinated: bool = False, library: str = "dali") -> float:
        """Best of CPU-only and GPU-offloaded prep, in samples/second
        (:func:`~repro.sim.single_server.best_prep`).

        Per job (``cores / num_jobs`` and the job's GPUs) for the baseline;
        for coordinated prep, one shared sweep on every core and GPU.
        """
        if coordinated:
            cores, gpus = float(self._server.physical_cores), self._server.num_gpus
        else:
            cores, gpus = self._server.physical_cores / self._num_jobs, self._gpus_per_job
        return best_prep(self._dataset, self._server, self._model, library,
                         cores=cores, num_gpus=gpus)[1]

    def rate_model(self, disk_bytes: float, miss_ratio: float,
                   coordinated: bool = False,
                   library: str = "dali") -> HPSearchEpoch:
        """Price one epoch that read ``disk_bytes`` from storage."""
        num_items = len(self._dataset)
        return HPSearchEpoch(
            disk_bytes=disk_bytes,
            miss_ratio=miss_ratio,
            disk_time_s=safe_div(disk_bytes, self._server.storage.random_read_bw),
            prep_time_s=safe_div(num_items, self.prep_rate(coordinated, library)),
            gpu_time_s=safe_div(num_items, self.gpu_rate_per_job))

    def run_epoch(self, cache: Cache, epoch: int, coordinated: bool = False,
                  library: str = "dali") -> HPSearchEpoch:
        """Replay epoch ``epoch`` through ``cache`` and price it.

        The baseline replays the jobs' lockstep-interleaved streams (a
        shared page cache), coordinated prep one shared sweep (a MinIO
        cache).  The cache's counters are reset first, so the miss ratio
        is this epoch's.
        """
        cache.reset_stats()
        if coordinated:
            disk_bytes = self._minio_epoch(cache, epoch)
        else:
            disk_bytes = self._shared_page_cache_epoch(cache, epoch)
        return self.rate_model(disk_bytes, cache.stats.miss_ratio,
                               coordinated, library)

    def _result(self, loader_name: str, epoch: HPSearchEpoch,
                staging_peak_bytes: float = 0.0) -> HPSearchResult:
        time_s = epoch.time_s
        return HPSearchResult(
            loader_name=loader_name,
            num_jobs=self._num_jobs,
            gpus_per_job=self._gpus_per_job,
            epoch_time_s=time_s,
            per_job_throughput=safe_div(len(self._dataset), time_s),
            disk_bytes_per_epoch=epoch.disk_bytes,
            cache_miss_ratio=epoch.miss_ratio,
            prep_bound=time_s == epoch.prep_time_s,
            fetch_bound=time_s == epoch.disk_time_s,
            gpu_bound=time_s == epoch.gpu_time_s,
            staging_peak_bytes=staging_peak_bytes,
        )

    # -- baseline: independent pipelines through the shared page cache ------

    def _interleaved_order(self, epoch: int) -> np.ndarray:
        """The jobs' lockstep-interleaved access stream, built in bulk.

        Identical, access for access, to the nested loops of the per-item
        reference :meth:`_simulate_shared_page_cache_epoch`: jobs advance one
        minibatch at a time (per-iteration GPU synchronisation), so the
        stream is batch 0 of every job, then batch 1 of every job, and so on,
        with the ragged final slice per job appended in job order.
        """
        num_items = len(self._dataset)
        orders = np.stack([self._sampler((self._seed, job)).epoch(epoch)
                           for job in range(self._num_jobs)])
        batch = self.batch_size
        full = (num_items // batch) * batch
        head = orders[:, :full].reshape(self._num_jobs, -1, batch)
        head = head.transpose(1, 0, 2).reshape(-1)
        return np.concatenate([head, orders[:, full:].reshape(-1)])

    def _simulate_shared_page_cache_epoch(self, cache: PageCache, epoch: int) -> float:
        """Interleave the jobs' access streams; return disk bytes for the epoch.

        Per-item reference path, kept as the executable specification the
        bulk replay of :meth:`_shared_page_cache_epoch` is tested against.
        """
        num_items = len(self._dataset)
        orders = []
        for job in range(self._num_jobs):
            sampler = RandomSampler(num_items, seed=(self._seed, job))
            orders.append(sampler.epoch(epoch))
        disk_bytes = 0.0
        batch = self.batch_size
        # Jobs advance in lockstep one minibatch at a time, which is how the
        # per-iteration GPU synchronisation interleaves their IO in practice.
        for start in range(0, num_items, batch):
            for job in range(self._num_jobs):
                for item in orders[job][start:start + batch]:
                    item_id = int(item)
                    size = self._dataset.item_size(item_id)
                    if not cache.lookup(item_id):
                        disk_bytes += size
                        cache.admit(item_id, size)
        return disk_bytes

    def _shared_page_cache_epoch(self, cache: PageCache, epoch: int) -> float:
        """One interleaved epoch over the shared page cache, in bulk.

        The whole interleaved stream goes through the page cache's replay
        entry (:meth:`~repro.cache.page_cache.PageCache.bulk_stream_hits`)
        in every regime, from thrashing (a cache below the working set, the
        dali side of Fig. 9d) to fully cached (Table 7).  It yields the
        identical cache mutations, counters and disk bytes as the per-item
        reference: the miss bytes are reduced with a sequential ``cumsum``,
        matching the reference's left-to-right accumulation bit for bit.
        """
        order = self._interleaved_order(epoch)
        sizes = self._dataset.item_sizes(order)
        miss_sizes = sizes[~cache.bulk_stream_hits(order, sizes)]
        return float(np.cumsum(miss_sizes)[-1]) if miss_sizes.size else 0.0

    def run_baseline(self, library: str = "dali") -> HPSearchResult:
        """Simulate uncoordinated HP search (DALI or PyTorch DL per job)."""
        cache = PageCache(self._server.cache_bytes)
        # Warm-up epoch 0 populates the cache; epoch 1 is measured.
        self._shared_page_cache_epoch(cache, 0)
        return self._result(f"{library}-uncoordinated",
                            self.run_epoch(cache, 1, library=library))

    # -- CoorDL: MinIO + coordinated prep -----------------------------------

    def _simulate_minio_epoch(self, cache: MinIOCache, epoch: int) -> float:
        """One coordinated sweep over the dataset through the MinIO cache.

        Per-item reference path (executable specification of
        :meth:`_minio_epoch`).
        """
        sampler = RandomSampler(len(self._dataset), seed=(self._seed, 0xC0))
        disk_bytes = 0.0
        for item in sampler.epoch(epoch):
            item_id = int(item)
            size = self._dataset.item_size(item_id)
            if not cache.lookup(item_id):
                disk_bytes += size
                cache.admit(item_id, size)
        return disk_bytes

    def _minio_epoch(self, cache: MinIOCache, epoch: int) -> float:
        """One coordinated sweep, vectorised (MinIO is analytic)."""
        order = self._sampler((self._seed, 0xC0)).epoch(epoch)
        sizes = self._dataset.item_sizes(order)
        return float(sizes[~cache.bulk_epoch_hits(order, sizes)].sum())

    def _staging_peak_bytes(self) -> float:
        """Peak staging-area memory of one coordinated epoch (Fig. 20).

        Each prepared minibatch is staged once and shared by every job, and
        in lockstep every job consumes it before the next one is produced,
        so the area never holds two batches: its peak is the largest
        prepared minibatch.  The batches are ``batch_size`` slices of the epoch
        permutation drawn from ``(seed, 0, 0xC00D)``, each summed left to
        right (a sequential ``cumsum``, the same float as ``sum`` over its
        items).
        """
        order = np.random.default_rng((self._seed, 0, 0xC00D)).permutation(
            len(self._dataset))
        prepared = PrepPipeline.for_dataset(self._dataset).prepared_bytes(
            self._dataset.item_sizes(order))
        batch = self.batch_size
        return max(float(np.cumsum(prepared[start:start + batch])[-1])
                   for start in range(0, prepared.size, batch))

    def run_coordl(self) -> HPSearchResult:
        """Simulate coordinated HP search (MinIO cache + coordinated prep)."""
        cache = MinIOCache(self._server.cache_bytes)
        # Warm-up epoch 0 populates the cache; epoch 1 is measured.
        self._minio_epoch(cache, 0)
        return self._result("coordl", self.run_epoch(cache, 1, coordinated=True),
                            staging_peak_bytes=self._staging_peak_bytes())


def _run_point(method: Callable[[HPSearchScenario], HPSearchResult],
               point: Any, context: PointContext) -> Tuple[str, HPSearchResult]:
    """Run ``point`` through ``method`` of its scenario."""
    return named(method(HPSearchScenario(
        point.model, context.dataset, context.server,
        num_jobs=point.num_jobs, gpus_per_job=point.gpus_per_job,
        seed=context.seed, sampler=context.sampler)))


#: HP-search points: the scenario's steady-state result.
HP_SEARCH_FAMILY = PointFamily(
    "hp", "hp", *dataclass_codec(HPSearchResult),
    metrics=lambda hp: dict(epoch_time_s=hp.epoch_time_s,
                            throughput=hp.per_job_throughput,
                            disk_bytes=hp.disk_bytes_per_epoch,
                            cache_miss_ratio=hp.cache_miss_ratio))

#: Sweep-point kinds simulated through :class:`HPSearchScenario`.  They
#: measure one steady-state epoch whatever ``num_epochs`` says, so there
#: is nothing to range-check.
HP_SEARCH_POINT_KINDS = {
    loader: PointKind(HP_SEARCH_FAMILY, ("num_jobs", "gpus_per_job"),
                      partial(_run_point, method), check=lambda point: None)
    for loader, method in (("hp-baseline", HPSearchScenario.run_baseline),
                           ("hp-coordl", HPSearchScenario.run_coordl))
}

#: The HP-search sweep-point kinds, in table order.
HP_SEARCH_KINDS = tuple(HP_SEARCH_POINT_KINDS)
