"""CoorDL single-server loader: DALI-style prep + the MinIO cache (Sec. 4.1).

Compared with the DALI baseline the only change on a single server is the
caching policy: raw items are cached in CoorDL's own MinIO cache (insert
while space, never evict) instead of the thrashing OS page cache, reducing
per-epoch disk I/O to the capacity-miss minimum.  Sampling, randomisation and
pre-processing are unmodified.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.minio import MinIOCache
from repro.cluster.server import ServerConfig
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import BatchSampler, RandomSampler, Sampler
from repro.pipeline.base import DataLoader
from repro.prep.pipeline import PrepPipeline
from repro.storage.filestore import FileStore


class CoorDLLoader(DataLoader):
    """Single-server CoorDL data loader (MinIO cache + nvJPEG prep)."""

    name = "coordl"

    @classmethod
    def build(cls, dataset: SyntheticDataset, server: ServerConfig,
              batch_size: int, gpu_prep: bool = False,
              num_gpus: Optional[int] = None, cores: Optional[float] = None,
              cache: Optional[MinIOCache] = None, seed: int = 0,
              sampler: Optional[Sampler] = None) -> "CoorDLLoader":
        """Construct a CoorDL loader for one training job on one server.

        Args:
            dataset: Dataset to train on.
            server: Server the job runs on.
            batch_size: Per-iteration (per-job) batch size.
            gpu_prep: Offload decode/augmentation to the GPUs (CoorDL keeps
                DALI's prep path; only the cache changes).
            num_gpus: GPUs used by the job (default: all on the server).
            cores: Physical prep cores for this job (default: all).
            cache: Existing MinIO cache to share (fresh one when omitted).
            seed: Sampler seed.
            sampler: Ready-made item-order sampler to reuse (parameter sweeps
                share one memoised sampler across loaders).
        """
        gpus = num_gpus if num_gpus is not None else server.num_gpus
        prep = PrepPipeline.for_dataset(dataset, "dali")
        workers = server.worker_pool(cores=cores, gpu_offload=gpu_prep)
        minio = cache if cache is not None else MinIOCache(server.cache_bytes)
        if sampler is None:
            sampler = RandomSampler(len(dataset), seed=seed)
        return cls(
            dataset=dataset,
            store=FileStore(dataset, server.storage),
            cache=minio,
            batch_sampler=BatchSampler(sampler, batch_size),
            prep=prep,
            workers=workers,
            num_gpus=gpus,
        )


def best_coordl_loader(dataset: SyntheticDataset, server: ServerConfig,
                       batch_size: int, model_gpu_prep_interference: float = 0.0,
                       num_gpus: Optional[int] = None, cores: Optional[float] = None,
                       cache: Optional[MinIOCache] = None, seed: int = 0,
                       sampler: Optional[Sampler] = None) -> CoorDLLoader:
    """Pick CoorDL's CPU-prep or GPU-prep variant, whichever is faster.

    Mirrors :func:`repro.pipeline.dali.best_dali_loader` so comparisons are
    like-for-like ("best of CPU or GPU based prep" on both sides).
    """
    cpu_loader = CoorDLLoader.build(dataset, server, batch_size, gpu_prep=False,
                                    num_gpus=num_gpus, cores=cores, cache=cache,
                                    seed=seed, sampler=sampler)
    gpu_loader = CoorDLLoader.build(dataset, server, batch_size, gpu_prep=True,
                                    num_gpus=num_gpus, cores=cores, cache=cache,
                                    seed=seed, sampler=sampler)
    cpu_rate = cpu_loader.prep_rate()
    gpu_rate = gpu_loader.prep_rate() * (1.0 - model_gpu_prep_interference)
    return gpu_loader if gpu_rate > cpu_rate else cpu_loader
