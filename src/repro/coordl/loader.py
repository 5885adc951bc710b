"""CoorDL facade: one entry point for the three training scenarios.

CoorDL is a drop-in replacement for DALI / the PyTorch DataLoader (Sec. 4.4);
this facade mirrors that by exposing a constructor per training scenario:

* :meth:`CoorDL.for_single_server` — multi-GPU training on one server
  (MinIO cache).
* :meth:`CoorDL.for_distributed` — multi-server training
  (MinIO + partitioned caching); returns one loader per server.
* :meth:`CoorDL.for_hp_search` — several concurrent jobs on one server
  (MinIO + coordinated prep); returns the shared plan/staging machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.minio import MinIOCache
from repro.cluster.server import ServerConfig
from repro.coordl.coordinated_prep import CoordinatedEpochRunner, CoordinatedPrepPlan
from repro.coordl.failure import FailureDetector
from repro.coordl.minio_loader import CoorDLLoader, best_coordl_loader
from repro.coordl.partitioned_loader import PartitionedCoorDLLoader
from repro.coordl.staging import StagingArea
from repro.datasets.dataset import SyntheticDataset
from repro.exceptions import ConfigurationError
from repro.prep.pipeline import PrepPipeline


@dataclass
class HPSearchSession:
    """Shared state of a coordinated HP-search session on one server.

    Attributes:
        plan: Epoch-0 shard/batch assignment (re-built per epoch via
            :meth:`plan_for_epoch`).
        staging: The cross-job staging area.
        runner: Functional produce/consume runner for the current plan.
        detector: Failure detector wired to the plan.
        minio: The MinIO cache shared by the session's jobs.
    """

    dataset: SyntheticDataset
    server: ServerConfig
    num_jobs: int
    batch_size: int
    seed: int
    plan: CoordinatedPrepPlan
    staging: StagingArea
    runner: CoordinatedEpochRunner
    detector: FailureDetector
    minio: MinIOCache

    def plan_for_epoch(self, epoch: int) -> CoordinatedPrepPlan:
        """Fresh shard/batch assignment for a later epoch."""
        return CoordinatedPrepPlan(self.dataset, self.num_jobs, self.batch_size,
                                   epoch=epoch, seed=self.seed)


class CoorDL:
    """Namespace of constructors for the three CoorDL training scenarios."""

    @staticmethod
    def for_single_server(dataset: SyntheticDataset, server: ServerConfig,
                          batch_size: int, gpu_prep: Optional[bool] = None,
                          model_gpu_prep_interference: float = 0.0,
                          seed: int = 0) -> CoorDLLoader:
        """Single-server multi-GPU training with the MinIO cache.

        When ``gpu_prep`` is None the faster of CPU-prep and GPU-prep is
        chosen automatically (the paper's "best of" convention).
        """
        if gpu_prep is None:
            return best_coordl_loader(
                dataset, server, batch_size,
                model_gpu_prep_interference=model_gpu_prep_interference, seed=seed)
        return CoorDLLoader.build(dataset, server, batch_size,
                                  gpu_prep=gpu_prep, seed=seed)

    @staticmethod
    def for_distributed(dataset: SyntheticDataset, servers: List[ServerConfig],
                        batch_size_per_server: int, gpu_prep: bool = False,
                        seed: int = 0) -> List[PartitionedCoorDLLoader]:
        """Multi-server training with partitioned caching (one loader/server)."""
        if len(servers) < 2:
            raise ConfigurationError("distributed training needs at least two servers")
        return PartitionedCoorDLLoader.build_group(
            dataset, servers, batch_size_per_server, gpu_prep=gpu_prep, seed=seed)

    @staticmethod
    def for_hp_search(dataset: SyntheticDataset, server: ServerConfig,
                      num_jobs: int, batch_size: int,
                      iteration_time_s: float = 1.0,
                      seed: int = 0) -> HPSearchSession:
        """Coordinated prep for ``num_jobs`` concurrent HP-search jobs."""
        if num_jobs <= 0:
            raise ConfigurationError("need at least one HP-search job")
        plan = CoordinatedPrepPlan(dataset, num_jobs, batch_size, epoch=0, seed=seed)
        staging = StagingArea(num_jobs, batch_timeout_s=10.0 * iteration_time_s)
        detector = FailureDetector(num_jobs, iteration_time_s)
        prep = PrepPipeline.for_dataset(dataset, "dali")
        runner = CoordinatedEpochRunner(plan, prep, dataset, staging=staging,
                                        failure_detector=detector)
        minio = MinIOCache(server.cache_bytes)
        return HPSearchSession(
            dataset=dataset,
            server=server,
            num_jobs=num_jobs,
            batch_size=batch_size,
            seed=seed,
            plan=plan,
            staging=staging,
            runner=runner,
            detector=detector,
            minio=minio,
        )
