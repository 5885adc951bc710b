"""Single-server training: the loader recipes and the training point kinds.

:func:`build_loader` wires a model + dataset + server + loader choice into
one :class:`~repro.pipeline.DataLoader`; a training point runs it through
the pipelined epoch simulator under the paper's measurement protocol
(warm-up epoch followed by measured epochs, Sec. 3.1).  This is the
workhorse behind Figs. 2–6, 9(a), 11, 13, 14 and Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cache.base import Cache
from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import (BatchSampler, RandomSampler, Sampler,
                                    ShuffleBufferSampler)
from repro.exceptions import ConfigurationError
from repro.pipeline.base import DataLoader
from repro.pipeline.stats import EpochStats, TrainingRunStats
from repro.prep.pipeline import PrepPipeline
from repro.sim.engine import PipelineSimulator
from repro.sim.kinds import (PointContext, PointFamily, PointKind,
                             dataclass_codec)

#: Prep libraries that can offload decode and augmentation to the GPUs:
#: DALI's nvJPEG path can; Pillow, the PyTorch DataLoader's, cannot.
GPU_PREP_LIBRARIES = ("dali",)


@dataclass(frozen=True)
class LoaderRecipe:
    """What one training loader kind is made of.

    Attributes:
        name: Loader name the run's record keeps.
        library: Prep library: ``"dali"`` (nvJPEG; can offload decode and
            augmentation to the GPUs) or ``"pytorch"`` (Pillow; CPU only).
        cache: Cache class the fetch path goes through.
        storage_order: Walk the files in storage order through a shuffle
            buffer (DALI-seq's file reader) when no sampler is given.
        gpu_name: Loader name when prepping on the GPUs (``name`` if empty).
    """

    name: str
    library: str
    cache: Callable[[float], Cache]
    storage_order: bool = False
    gpu_name: str = ""

    @property
    def offloads(self) -> bool:
        """Whether the kind's prep library can run on the GPUs."""
        return self.library in GPU_PREP_LIBRARIES


#: The training loader kinds: two prep libraries times two cache policies,
#: plus DALI-seq's storage order.  CoorDL is DALI with the page cache
#: swapped for MinIO, sampling and prep unmodified (Sec. 4.1); "pycoordl"
#: is Appendix E's Py-CoorDL, the native PyTorch DataLoader with the same
#: swap.
LOADER_RECIPES: Dict[str, LoaderRecipe] = {
    "pytorch": LoaderRecipe("pytorch-dl", "pytorch", PageCache),
    "dali-seq": LoaderRecipe("dali-seq", "dali", PageCache, storage_order=True,
                             gpu_name="dali-seq-gpuprep"),
    "dali-shuffle": LoaderRecipe("dali-shuffle", "dali", PageCache,
                                 gpu_name="dali-shuffle-gpuprep"),
    "coordl": LoaderRecipe("coordl", "dali", MinIOCache),
    "pycoordl": LoaderRecipe("pytorch-dl", "pytorch", MinIOCache),
}

#: Loader names accepted by :func:`build_loader`.
LOADER_KINDS = tuple(LOADER_RECIPES)

#: Minimum number of minibatches per epoch the simulation keeps, so that the
#: pipelined overlap of fetch/prep/compute remains realistic on the scaled
#: datasets the experiments run on (a full-size epoch has hundreds of batches).
MIN_BATCHES_PER_EPOCH = 40


def effective_batch_size(dataset: SyntheticDataset, nominal_batch_size: int) -> int:
    """Clamp a batch size so a (scaled) dataset still yields many batches.

    Stall fractions and speedups are insensitive to the absolute batch size,
    but they are distorted when a scaled-down dataset degenerates to one or
    two giant batches (no pipelining).  The clamp preserves the real batch
    size whenever the dataset is large enough.
    """
    cap = max(32, len(dataset) // MIN_BATCHES_PER_EPOCH)
    return max(1, min(nominal_batch_size, cap))


def best_prep(dataset: SyntheticDataset, server: ServerConfig, model: ModelSpec,
              library: str = "dali", cores: Optional[float] = None,
              num_gpus: Optional[int] = None) -> Tuple[bool, float]:
    """``(gpu_prep, samples/s)``: the faster of CPU-only and GPU prep.

    The paper runs DALI in "best of CPU or GPU based prep" mode (Sec. 5).
    GPU prep raises the prep rate but steals compute from the model, so its
    rate is discounted by the model's ``gpu_prep_interference`` and it is
    chosen only when strictly faster.  Prep runs on ``cores`` physical
    cores (default: all) and offloads to ``num_gpus`` GPUs (default: all);
    Pillow (``library="pytorch"``) always preps on the CPU.
    """
    prep = PrepPipeline.for_dataset(dataset, library)
    cpu_rate = server.worker_pool(cores=cores).prep_rate(
        prep, dataset.mean_item_bytes)
    if library not in GPU_PREP_LIBRARIES:
        return False, cpu_rate
    gpu_rate = server.worker_pool(cores=cores, gpu_offload=True).prep_rate(
        prep, dataset.mean_item_bytes,
        num_gpus_for_offload=server.num_gpus if num_gpus is None else num_gpus)
    gpu_rate *= 1.0 - model.gpu_prep_interference
    return (True, gpu_rate) if gpu_rate > cpu_rate else (False, cpu_rate)


def build_loader(kind: str, dataset: SyntheticDataset, server: ServerConfig,
                 model: ModelSpec, num_gpus: Optional[int] = None,
                 cores: Optional[float] = None, cache_bytes: Optional[float] = None,
                 gpu_prep: Optional[bool] = None, seed: int = 0,
                 batch_size: Optional[int] = None,
                 sampler: Optional[Sampler] = None) -> DataLoader:
    """Build a loader of the requested kind for one training job.

    Args:
        kind: One of :data:`LOADER_KINDS`; its :data:`LOADER_RECIPES` row
            gives the prep library, the cache and the access order.
        dataset: Dataset to train on.
        server: Server the job runs on.
        model: Model being trained (supplies the per-GPU batch size and the
            GPU-prep interference factor used by :func:`best_prep`).
        num_gpus: GPUs used by the job (defaults to all on the server).
        cores: Physical prep cores for the job (defaults to all).
        cache_bytes: Override the server's cache budget (cache-size sweeps).
        gpu_prep: Force GPU prep on/off; None selects the faster variant.
            Only kinds whose library offloads accept ``True``.
        seed: Sampler seed.
        batch_size: Explicit per-iteration batch size; when omitted the
            model's per-GPU batch size times ``num_gpus`` is used, clamped by
            :func:`effective_batch_size` for scaled datasets.
        sampler: Ready-made item-order sampler (parameter sweeps share one
            memoised sampler per dataset/seed; distributed jobs pass their
            rank's shard).  When omitted, DALI-seq reads in storage order
            and every other kind in a fresh random order per epoch.
    """
    recipe = LOADER_RECIPES.get(kind)
    if recipe is None:
        raise ConfigurationError(f"unknown loader kind {kind!r}; expected one of {LOADER_KINDS}")
    if gpu_prep and not recipe.offloads:
        raise ConfigurationError(
            f"{kind!r} preps with {recipe.library}, which cannot run on the GPU")
    gpus = num_gpus if num_gpus is not None else server.num_gpus
    if cache_bytes is not None:
        server = server.with_cache_bytes(cache_bytes)
    if batch_size is None:
        batch_size = effective_batch_size(dataset, model.batch_size_for(server.gpu) * gpus)
    if gpu_prep is None:
        gpu_prep, _ = best_prep(dataset, server, model, recipe.library,
                                cores=cores, num_gpus=gpus)
    if sampler is None and recipe.storage_order:
        # DALI-seq walks the (small, per-sample) files in storage order.
        # That order is pathological for the page cache, and because the
        # dataset is millions of individual files the reads do not come
        # close to the device's large-transfer sequential bandwidth, so
        # misses are still charged at the random-read rate.  True
        # sequential-bandwidth reads only apply to TFRecord-style chunked
        # layouts (see repro.datasets.records / Table 3).
        sampler = ShuffleBufferSampler(len(dataset),
                                       buffer_size=max(1, 4 * batch_size),
                                       seed=seed)
    elif sampler is None:
        sampler = RandomSampler(len(dataset), seed=seed)
    return DataLoader(
        dataset=dataset,
        storage=server.storage,
        cache=recipe.cache(server.cache_bytes),
        batch_sampler=BatchSampler(sampler, batch_size),
        prep=PrepPipeline.for_dataset(dataset, recipe.library),
        workers=server.worker_pool(cores=cores, gpu_offload=gpu_prep),
        num_gpus=gpus,
        name=(recipe.gpu_name or recipe.name) if gpu_prep else recipe.name,
    )


def _run_training_point(point: Any,
                        context: PointContext) -> Tuple[str, TrainingRunStats]:
    # DALI-seq builds its own shuffle-buffer sampler (the storage-visible
    # order is what matters there); every other kind shares the memoised
    # random permutations of its per-point seed.
    sampler = (None if LOADER_RECIPES[point.loader].storage_order
               else context.sampler(context.seed))
    loader = build_loader(point.loader, context.dataset, context.server,
                          point.model, num_gpus=point.num_gpus,
                          cores=point.cores, gpu_prep=point.gpu_prep,
                          seed=context.seed, batch_size=point.batch_size,
                          sampler=sampler)
    simulator = PipelineSimulator(point.model, context.server.gpu,
                                  queue_depth=context.queue_depth)
    return loader.name, TrainingRunStats(
        list(simulator.run_epochs(loader, point.num_epochs)))


def _training_metrics(run: TrainingRunStats) -> Dict[str, Any]:
    steady = run.steady_epoch()
    return dict(epoch_time_s=steady.epoch_time_s,
                throughput=steady.throughput,
                fetch_stall_s=steady.fetch_stall_s,
                prep_stall_s=steady.prep_stall_s,
                disk_bytes=steady.io.disk_bytes,
                cache_miss_ratio=steady.cache_miss_ratio)


#: Snapshot codec of one epoch's stats (the ``io`` counters through
#: :meth:`IOStats.snapshot <repro.storage.iostats.IOStats.snapshot>`),
#: shared by the training and distributed families.
encode_epoch, decode_epoch = dataclass_codec(EpochStats)

#: Single-server training points: the full multi-epoch run of one loader.
TRAINING_FAMILY = PointFamily(
    slot="run", key="epochs",
    encode=lambda run, full: [encode_epoch(epoch, full)
                              for epoch in run.epochs],
    decode=lambda data, _: TrainingRunStats(
        [decode_epoch(epoch) for epoch in data]),
    metrics=_training_metrics)

#: Sweep-point kinds of the single-server training pipeline: a kind takes
#: ``gpu_prep`` only when its prep library can offload.
TRAINING_POINT_KINDS = {
    kind: PointKind(TRAINING_FAMILY,
                    ("cores", "num_gpus", "batch_size")
                    + (("gpu_prep",) if recipe.offloads else ()),
                    _run_training_point)
    for kind, recipe in LOADER_RECIPES.items()
}
