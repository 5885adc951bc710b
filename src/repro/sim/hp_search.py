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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec
from repro.coordl.coordinated_prep import CoordinatedEpochRunner, CoordinatedPrepPlan
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import RandomSampler
from repro.exceptions import ConfigurationError
from repro.prep.pipeline import PrepPipeline
from repro.sim.kinds import (PointContext, PointFamily, PointKind,
                             dataclass_codec, named)
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


class HPSearchScenario:
    """Simulate ``num_jobs`` concurrent HP-search jobs on one server.

    Args:
        model: Model trained by every job.
        dataset: Shared dataset.
        server: Server the jobs run on.
        num_jobs: Number of concurrent jobs.
        gpus_per_job: GPUs per job (``num_jobs * gpus_per_job`` must not
            exceed the server's GPU count).
        cache_bytes: Override the server's cache budget.
        seed: Seed for the per-job access streams.
        fast_path: Allow the vectorised/analytic epoch simulations (exact;
            disable to force the per-item reference paths, e.g. in
            equivalence tests and benchmarks).
    """

    def __init__(self, model: ModelSpec, dataset: SyntheticDataset,
                 server: ServerConfig, num_jobs: int = 8, gpus_per_job: int = 1,
                 cache_bytes: Optional[float] = None, seed: int = 0,
                 fast_path: bool = True) -> None:
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
        self._fast_path = fast_path
        self._rounded_totals: dict = {}

    # -- shared helpers ----------------------------------------------------

    def _prep_pipeline(self, library: str = "dali") -> PrepPipeline:
        prep = PrepPipeline.for_task(self._dataset.spec.task, library=library)
        return prep.with_scaled_cost(self._dataset.spec.prep_cost_scale)

    def _best_prep_rate(self, cores: float, gpus_for_offload: int,
                        library: str = "dali") -> float:
        """Best of CPU-only and GPU-offloaded prep for the given resources."""
        prep = self._prep_pipeline(library)
        cpu_pool = self._server.worker_pool(cores=cores, gpu_offload=False)
        rates = [cpu_pool.prep_rate(prep, self._dataset.mean_item_bytes)]
        if library == "dali":
            gpu_pool = self._server.worker_pool(cores=cores, gpu_offload=True)
            gpu_rate = gpu_pool.prep_rate(prep, self._dataset.mean_item_bytes,
                                          num_gpus_for_offload=gpus_for_offload)
            rates.append(gpu_rate * (1.0 - self._model.gpu_prep_interference))
        return max(rates)

    def _gpu_rate_per_job(self) -> float:
        return self._model.aggregate_gpu_rate(self._server.gpu, self._gpus_per_job)

    def _batch_size(self) -> int:
        return self._model.batch_size_for(self._server.gpu) * self._gpus_per_job

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
        orders = np.stack([
            RandomSampler(num_items, seed=(self._seed, job)).epoch(epoch)
            for job in range(self._num_jobs)
        ])
        batch = self._batch_size()
        full = (num_items // batch) * batch
        head = orders[:, :full].reshape(self._num_jobs, -1, batch)
        head = head.transpose(1, 0, 2).reshape(-1)
        return np.concatenate([head, orders[:, full:].reshape(-1)])

    def _page_rounded_total(self, cache: PageCache) -> float:
        """Page-rounded byte footprint of the whole dataset (memoised)."""
        page = cache.page_bytes
        cached = self._rounded_totals.get(page)
        if cached is None:
            sizes = self._dataset.item_sizes(np.arange(len(self._dataset)))
            cached = float((np.maximum(np.ceil(sizes / page), 1.0) * page).sum())
            self._rounded_totals[page] = cached
        return cached

    def _simulate_shared_page_cache_epoch(self, cache: PageCache, epoch: int) -> float:
        """Interleave the jobs' access streams; return disk bytes for the epoch.

        Per-item reference path, kept as the executable specification the
        bulk paths of :meth:`_shared_page_cache_epoch` are tested against.
        """
        num_items = len(self._dataset)
        orders = []
        for job in range(self._num_jobs):
            sampler = RandomSampler(num_items, seed=(self._seed, job))
            orders.append(sampler.epoch(epoch))
        disk_bytes = 0.0
        batch = self._batch_size()
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
        """One interleaved epoch over the shared page cache (fast when allowed).

        Two bulk paths cover every regime the experiments exercise: when the
        cache can never evict during the stream
        (:meth:`~repro.cache.page_cache.PageCache.bulk_saturating_hits` —
        the fully-cached Table 7 regime) the trajectory is closed-form; in
        the *thrashing* regime (cache below the working set, the dali side
        of Fig. 9d) the whole interleaved stream is replayed through the
        segmented-LRU bulk kernel
        (:meth:`~repro.cache.page_cache.PageCache.bulk_stream_hits`).  If
        both decline, the exact sweep drives the same ``lookup``/``admit``
        state machine over the bulk-built interleaving, with the per-access
        size lookups vectorised away.  Every path yields the identical
        cache mutations, counters and disk bytes as the per-item reference
        (the miss bytes are reduced with a sequential ``cumsum``, matching
        the reference's left-to-right accumulation bit for bit).
        """
        if not self._fast_path:
            return self._simulate_shared_page_cache_epoch(cache, epoch)
        order = self._interleaved_order(epoch)
        sizes = self._dataset.item_sizes(order)
        # The interleaved stream touches every dataset item, so when the
        # page-rounded dataset footprint exceeds the capacity the
        # no-eviction precondition provably cannot hold (newly admitted
        # bytes are at least the footprint minus what is resident) and the
        # saturating probe — a sort plus a per-distinct residency scan —
        # would be wasted work on every thrashing epoch.
        if self._page_rounded_total(cache) <= cache.capacity_bytes + cache.page_bytes:
            hits = cache.bulk_saturating_hits(order, sizes)
            if hits is not None:
                return float(sizes[~hits].sum())
        hits = cache.bulk_stream_hits(order, sizes)
        if hits is not None:
            miss_sizes = sizes[~hits]
            if miss_sizes.size == 0:
                return 0.0
            return float(np.cumsum(miss_sizes)[-1])
        disk_bytes = 0.0
        lookup, admit = cache.lookup, cache.admit
        for item_id, size in zip(order.tolist(), sizes.tolist()):
            if not lookup(item_id):
                disk_bytes += size
                admit(item_id, size)
        return disk_bytes

    def run_baseline(self, library: str = "dali") -> HPSearchResult:
        """Simulate uncoordinated HP search (DALI or PyTorch DL per job)."""
        cache = PageCache(self._server.cache_bytes)
        # Warm-up epoch 0 populates the cache; epoch 1 is measured.
        self._shared_page_cache_epoch(cache, 0)
        cache.reset_stats()
        disk_bytes = self._shared_page_cache_epoch(cache, 1)
        miss_ratio = cache.stats.miss_ratio

        num_items = len(self._dataset)
        cores_per_job = self._server.physical_cores / self._num_jobs
        prep_rate_per_job = self._best_prep_rate(cores_per_job, self._gpus_per_job,
                                                 library=library)
        gpu_rate = self._gpu_rate_per_job()

        disk_time = safe_div(disk_bytes, self._server.storage.random_read_bw)
        prep_time = safe_div(num_items, prep_rate_per_job)
        gpu_time = safe_div(num_items, gpu_rate)
        epoch_time = max(disk_time, prep_time, gpu_time)
        return HPSearchResult(
            loader_name=f"{library}-uncoordinated",
            num_jobs=self._num_jobs,
            gpus_per_job=self._gpus_per_job,
            epoch_time_s=epoch_time,
            per_job_throughput=safe_div(num_items, epoch_time),
            disk_bytes_per_epoch=disk_bytes,
            cache_miss_ratio=miss_ratio,
            prep_bound=epoch_time == prep_time,
            fetch_bound=epoch_time == disk_time,
            gpu_bound=epoch_time == gpu_time,
        )

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
        """One coordinated sweep, vectorised when allowed (MinIO is analytic)."""
        if self._fast_path:
            sampler = RandomSampler(len(self._dataset), seed=(self._seed, 0xC0))
            order = sampler.epoch(epoch)
            sizes = self._dataset.item_sizes(order)
            hits = cache.bulk_epoch_hits(order, sizes)
            if hits is not None:
                return float(sizes[~hits].sum())
        return self._simulate_minio_epoch(cache, epoch)

    def _staging_peak_bytes(self) -> float:
        """Peak staging-area memory for one coordinated epoch."""
        plan = CoordinatedPrepPlan(self._dataset, self._num_jobs, self._batch_size(),
                                   epoch=0, seed=self._seed)
        runner = CoordinatedEpochRunner(plan, self._prep_pipeline(), self._dataset)
        runner.run_epoch_in_lockstep()
        return runner.staging.peak_bytes

    def run_coordl(self) -> HPSearchResult:
        """Simulate coordinated HP search (MinIO cache + coordinated prep)."""
        cache = MinIOCache(self._server.cache_bytes)
        # Warm-up epoch 0 populates the cache; epoch 1 is measured.
        self._minio_epoch(cache, 0)
        cache.reset_stats()
        disk_bytes = self._minio_epoch(cache, 1)
        miss_ratio = cache.stats.miss_ratio

        num_items = len(self._dataset)
        # Coordinated prep uses every core on the server for one shared sweep.
        prep_rate = self._best_prep_rate(float(self._server.physical_cores),
                                         self._server.num_gpus)
        gpu_rate = self._gpu_rate_per_job()

        disk_time = safe_div(disk_bytes, self._server.storage.random_read_bw)
        prep_time = safe_div(num_items, prep_rate)
        gpu_time = safe_div(num_items, gpu_rate)
        epoch_time = max(disk_time, prep_time, gpu_time)
        return HPSearchResult(
            loader_name="coordl",
            num_jobs=self._num_jobs,
            gpus_per_job=self._gpus_per_job,
            epoch_time_s=epoch_time,
            per_job_throughput=safe_div(num_items, epoch_time),
            disk_bytes_per_epoch=disk_bytes,
            cache_miss_ratio=miss_ratio,
            prep_bound=epoch_time == prep_time,
            fetch_bound=epoch_time == disk_time,
            gpu_bound=epoch_time == gpu_time,
            staging_peak_bytes=self._staging_peak_bytes(),
        )

    def speedup(self) -> float:
        """CoorDL speedup over the uncoordinated baseline (epoch-time ratio)."""
        baseline = self.run_baseline()
        coordl = self.run_coordl()
        return safe_div(baseline.epoch_time_s, coordl.epoch_time_s)


def _run_point(method: Callable[[HPSearchScenario], HPSearchResult],
               point: Any, context: PointContext) -> Tuple[str, HPSearchResult]:
    """Run ``point`` through ``method`` of its scenario."""
    return named(method(HPSearchScenario(
        point.model, context.dataset, context.server,
        num_jobs=point.num_jobs, gpus_per_job=point.gpus_per_job,
        seed=context.seed, fast_path=context.fast_path)))


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
