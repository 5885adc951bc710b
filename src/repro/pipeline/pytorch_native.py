"""Native PyTorch DataLoader baseline.

Characteristics reproduced from the paper (Sec. 2, Appendix B.2/E):

* items are read as individual files in a fresh random order every epoch;
* caching is delegated entirely to the OS page cache (LRU);
* pre-processing uses Pillow/TorchVision on CPU only — roughly 2x slower per
  sample than DALI's nvJPEG path;
* fetch and prep are parallelised across worker processes but still pipelined
  with GPU compute.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.base import Cache
from repro.cache.page_cache import PageCache
from repro.cluster.server import ServerConfig
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import BatchSampler, RandomSampler, Sampler
from repro.pipeline.base import DataLoader
from repro.prep.pipeline import PrepPipeline
from repro.storage.filestore import FileStore


class PyTorchNativeLoader(DataLoader):
    """The framework-default data loader (Pillow prep + page cache)."""

    name = "pytorch-dl"

    @classmethod
    def build(cls, dataset: SyntheticDataset, server: ServerConfig,
              batch_size: int, num_gpus: Optional[int] = None,
              cores: Optional[float] = None, cache: Optional[Cache] = None,
              seed: int = 0,
              sampler: Optional[Sampler] = None) -> "PyTorchNativeLoader":
        """Construct a loader for one training job on one server.

        Args:
            dataset: Dataset to train on.
            server: Server the job runs on.
            batch_size: Per-iteration (global, per-job) batch size.
            num_gpus: GPUs used by the job (default: all of the server's).
            cores: Physical cores dedicated to this job's prep workers
                (default: the server's fair share for the job's GPUs).
            cache: Shared page cache to use (a fresh one is created when not
                given; HP-search simulations pass the shared instance).
            seed: Sampler seed.
            sampler: Ready-made item-order sampler to reuse (parameter sweeps
                share one memoised sampler across loaders).
        """
        gpus = num_gpus if num_gpus is not None else server.num_gpus
        prep = PrepPipeline.for_dataset(dataset, "pytorch")
        workers = server.worker_pool(cores=cores, gpu_offload=False)
        page_cache = cache if cache is not None else PageCache(server.cache_bytes)
        if sampler is None:
            sampler = RandomSampler(len(dataset), seed=seed)
        return cls(
            dataset=dataset,
            store=FileStore(dataset, server.storage),
            cache=page_cache,
            batch_sampler=BatchSampler(sampler, batch_size),
            prep=prep,
            workers=workers,
            num_gpus=gpus,
        )
