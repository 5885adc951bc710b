"""DALI baselines: the state-of-the-art loader the paper compares against.

Two access modes are modelled (Sec. 5.1):

* ``DALI-seq`` — DALI's default ``FileReader``: files are visited in storage
  order and shuffled in a bounded in-memory buffer.  The dataset is millions
  of small files, so each miss is still charged at the random-read rate; the
  storage order is what hurts, as a pathological access pattern for the LRU
  page cache (near-zero hit rate once the dataset exceeds the cache).
* ``DALI-shuffle`` — fully randomised reads, like the native PyTorch loader
  (the stronger baseline the paper uses for most comparisons).

Either mode can run pre-processing on CPU only or offload decode/augmentation
to the GPU ("GPU prep"); the paper always reports the better of the two, which
:func:`best_dali_loader` reproduces.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.base import Cache
from repro.cache.page_cache import PageCache
from repro.cluster.server import ServerConfig
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import (
    BatchSampler,
    RandomSampler,
    Sampler,
    ShuffleBufferSampler,
)
from repro.exceptions import ConfigurationError
from repro.pipeline.base import DataLoader
from repro.prep.pipeline import PrepPipeline
from repro.storage.filestore import FileStore


class DALILoader(DataLoader):
    """DALI data loader (page cache + nvJPEG prep, optional GPU offload)."""

    name = "dali"

    def __init__(self, *args, mode: str = "shuffle", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._mode = mode
        self.name = f"dali-{mode}" + ("-gpuprep" if self.uses_gpu_prep else "")

    @property
    def mode(self) -> str:
        """Access mode: "seq" or "shuffle"."""
        return self._mode

    @classmethod
    def build(cls, dataset: SyntheticDataset, server: ServerConfig,
              batch_size: int, mode: str = "shuffle", gpu_prep: bool = False,
              num_gpus: Optional[int] = None, cores: Optional[float] = None,
              cache: Optional[Cache] = None, seed: int = 0,
              sampler: Optional[Sampler] = None) -> "DALILoader":
        """Construct a DALI loader for one training job on one server.

        Args:
            dataset: Dataset to train on.
            server: Server the job runs on.
            batch_size: Per-iteration (per-job) batch size.
            mode: "seq" (storage-order reads + shuffle buffer) or
                "shuffle" (random reads).
            gpu_prep: Offload decode/augmentation to the GPUs.
            num_gpus: GPUs used by the job (default: all on the server).
            cores: Physical prep cores for this job (default: all).
            cache: Shared page cache (fresh one when omitted).
            seed: Sampler seed.
            sampler: Ready-made item-order sampler to reuse (parameter sweeps
                share one memoised sampler across loaders); the mode-specific
                default is built when omitted.
        """
        if mode not in ("seq", "shuffle"):
            raise ConfigurationError(f"unknown DALI mode {mode!r}")
        gpus = num_gpus if num_gpus is not None else server.num_gpus
        prep = PrepPipeline.for_dataset(dataset, "dali")
        workers = server.worker_pool(cores=cores, gpu_offload=gpu_prep)
        page_cache = cache if cache is not None else PageCache(server.cache_bytes)
        if sampler is None and mode == "seq":
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
        return cls(
            dataset=dataset,
            store=FileStore(dataset, server.storage),
            cache=page_cache,
            batch_sampler=BatchSampler(sampler, batch_size),
            prep=prep,
            workers=workers,
            num_gpus=gpus,
            mode=mode,
        )


def best_dali_loader(dataset: SyntheticDataset, server: ServerConfig,
                     batch_size: int, model_gpu_prep_interference: float = 0.0,
                     mode: str = "shuffle", num_gpus: Optional[int] = None,
                     cores: Optional[float] = None, cache: Optional[Cache] = None,
                     seed: int = 0, sampler: Optional[Sampler] = None) -> DALILoader:
    """Pick DALI's CPU-prep or GPU-prep variant, whichever is faster.

    The paper always runs DALI in "best of CPU or GPU based prep" mode
    (Sec. 5).  GPU prep raises the prep rate but steals compute from the
    model, so for compute-heavy models (ResNet50, VGG11) CPU prep wins.  The
    decision here compares the prep-rate gain against the compute loss using
    the model's published interference factor.
    """
    cpu_loader = DALILoader.build(dataset, server, batch_size, mode=mode,
                                  gpu_prep=False, num_gpus=num_gpus,
                                  cores=cores, cache=cache, seed=seed,
                                  sampler=sampler)
    gpu_loader = DALILoader.build(dataset, server, batch_size, mode=mode,
                                  gpu_prep=True, num_gpus=num_gpus,
                                  cores=cores, cache=cache, seed=seed,
                                  sampler=sampler)
    cpu_rate = cpu_loader.prep_rate()
    gpu_rate = gpu_loader.prep_rate() * (1.0 - model_gpu_prep_interference)
    return gpu_loader if gpu_rate > cpu_rate else cpu_loader
