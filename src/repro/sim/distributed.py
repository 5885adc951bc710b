"""Multi-server distributed training scenario (Sec. 5.2, Figs. 9b/c, 10, 18).

In synchronous data-parallel training across servers, every epoch each server
processes a random disjoint shard of the dataset and all servers proceed in
lockstep (gradient synchronisation at every iteration).  The epoch time of
the job is therefore the *slowest* server's epoch time.

Two data-pipeline configurations are compared:

* **baseline (DALI-shuffle)** — each server relies on its local OS page cache;
  because the shard changes every epoch, local misses go to local storage.
* **CoorDL** — per-server MinIO caches coordinated into a partitioned cache;
  local misses are served from the remote server's DRAM over TCP and only
  fall back to storage when no server caches the item.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec
from repro.coordl.partitioned_loader import PartitionedCoorDLLoader
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import DistributedSampler
from repro.exceptions import ConfigurationError
from repro.pipeline.base import DataLoader
from repro.pipeline.stats import EpochStats
from repro.sim.engine import PipelineSimulator
from repro.sim.kinds import (PointContext, PointFamily, PointKind, named,
                             require_servers)
from repro.sim.single_server import (build_loader, decode_epoch,
                                     effective_batch_size, encode_epoch)


@dataclass
class DistributedEpoch:
    """One epoch of a distributed job: per-server stats plus the job view."""

    per_server: List[EpochStats]

    @property
    def epoch_time_s(self) -> float:
        """Job epoch time (slowest server)."""
        return max(s.epoch_time_s for s in self.per_server)

    @property
    def total_disk_bytes(self) -> float:
        """Disk bytes summed over all servers."""
        return sum(s.io.disk_bytes for s in self.per_server)

    @property
    def total_remote_bytes(self) -> float:
        """Bytes fetched from remote caches, summed over servers."""
        return sum(s.io.remote_bytes for s in self.per_server)

    @property
    def samples(self) -> int:
        """Samples processed across all servers (one dataset pass)."""
        return sum(s.samples for s in self.per_server)

    @property
    def throughput(self) -> float:
        """Aggregate samples/second of the distributed job."""
        return self.samples / self.epoch_time_s if self.epoch_time_s else 0.0


@dataclass
class DistributedResult:
    """Multi-epoch outcome of one distributed training configuration."""

    loader_name: str
    epochs: List[DistributedEpoch]

    def steady_epochs(self) -> List[DistributedEpoch]:
        """Epochs after the cold-cache warm-up (every epoch if there is only one)."""
        return self.epochs[1:] if len(self.epochs) > 1 else self.epochs

    @property
    def steady_epoch_time_s(self) -> float:
        """Mean steady-state epoch time of the job."""
        steady = self.steady_epochs()
        return sum(e.epoch_time_s for e in steady) / len(steady)

    @property
    def steady_throughput(self) -> float:
        """Mean steady-state aggregate throughput."""
        steady = self.steady_epochs()
        return sum(e.throughput for e in steady) / len(steady)


class DistributedTraining:
    """Simulate a data-parallel job across several servers.

    Args:
        model: DNN being trained.
        dataset: Dataset of the job.
        servers: Participating servers (assumed homogeneous, as in the paper).
        num_epochs: Epochs to simulate (first is warm-up).
        queue_depth: Prefetch queue depth.
    """

    def __init__(self, model: ModelSpec, dataset: SyntheticDataset,
                 servers: List[ServerConfig], num_epochs: int = 3,
                 queue_depth: int = 4) -> None:
        if len(servers) < 2:
            raise ConfigurationError("distributed training needs at least two servers")
        if num_epochs < 2:
            raise ConfigurationError("need warm-up plus at least one measured epoch")
        self._model = model
        self._dataset = dataset
        self._servers = servers
        self._num_epochs = num_epochs
        self._queue_depth = queue_depth

    def _run(self, loaders: Sequence[DataLoader], name: str) -> DistributedResult:
        simulators = [
            PipelineSimulator(self._model, server.gpu, queue_depth=self._queue_depth)
            for server in self._servers
        ]
        epochs: List[DistributedEpoch] = []
        for epoch_index in range(self._num_epochs):
            per_server = [
                simulators[rank].run_epoch(loaders[rank], epoch_index)
                for rank in range(len(self._servers))
            ]
            epochs.append(DistributedEpoch(per_server=per_server))
        return DistributedResult(loader_name=name, epochs=epochs)

    def run_baseline(self, gpu_prep: bool = False, seed: int = 0) -> DistributedResult:
        """Simulate the job with per-server DALI-shuffle + local page caches.

        Each server reads its rank's shard of every epoch's permutation.
        """
        loaders = [
            build_loader("dali-shuffle", self._dataset, server, self._model,
                         gpu_prep=gpu_prep, sampler=DistributedSampler(
                             len(self._dataset), num_replicas=len(self._servers),
                             rank=rank, seed=seed))
            for rank, server in enumerate(self._servers)
        ]
        return self._run(loaders, "dali-shuffle")

    def run_coordl(self, gpu_prep: bool = False, seed: int = 0) -> DistributedResult:
        """Simulate the job with CoorDL's partitioned caching."""
        server = self._servers[0]
        batch_size = effective_batch_size(
            self._dataset, self._model.batch_size_for(server.gpu) * server.num_gpus)
        loaders = PartitionedCoorDLLoader.build_group(
            self._dataset, self._servers, batch_size, gpu_prep=gpu_prep, seed=seed)
        return self._run(loaders, "coordl-partitioned")


def _run_point(method: Callable[..., DistributedResult], point: Any,
               context: PointContext) -> Tuple[str, DistributedResult]:
    """Run ``point`` through ``method`` of its distributed job."""
    # Homogeneous servers, as in the paper's distributed experiments.  The
    # per-rank DistributedSampler shards (and the partitioned cache group's
    # shard assignment) derive from the point's stable seed, so repeated
    # sweeps are reproducible and ranks agree on each epoch's permutation.
    training = DistributedTraining(
        point.model, context.dataset, [context.server] * point.num_servers,
        num_epochs=point.num_epochs, queue_depth=context.queue_depth)
    return named(method(training, gpu_prep=bool(point.gpu_prep),
                        seed=context.seed))


def _metrics(dist: DistributedResult) -> Dict[str, Any]:
    steady = dist.steady_epochs()[-1]
    return dict(epoch_time_s=steady.epoch_time_s,
                throughput=steady.throughput,
                disk_bytes=steady.total_disk_bytes,
                remote_bytes=steady.total_remote_bytes)


#: Distributed points: per-epoch, per-server stats of the whole job.
DISTRIBUTED_FAMILY = PointFamily(
    slot="dist", key="dist",
    encode=lambda dist, full: [[encode_epoch(server, full)
                                for server in epoch.per_server]
                               for epoch in dist.epochs],
    decode=lambda data, loader_name: DistributedResult(loader_name, [
        DistributedEpoch([decode_epoch(server) for server in epoch])
        for epoch in data]),
    metrics=_metrics)

#: Sweep-point kinds simulated through :class:`DistributedTraining`
#: (``cache_fraction`` / ``cache_bytes`` are per-server budgets there).
DISTRIBUTED_POINT_KINDS = {
    loader: PointKind(DISTRIBUTED_FAMILY, ("gpu_prep", "num_servers"),
                      partial(_run_point, method), require_servers)
    for loader, method in (("dist-baseline", DistributedTraining.run_baseline),
                           ("dist-coordl", DistributedTraining.run_coordl))
}

#: The distributed sweep-point kinds, in table order.
DISTRIBUTED_KINDS = tuple(DISTRIBUTED_POINT_KINDS)
