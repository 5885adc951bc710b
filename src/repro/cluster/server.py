"""Server model: GPUs + CPU cores + DRAM + storage + NIC.

A :class:`ServerConfig` is the unit at which the paper's experiments are run:
single-server multi-GPU training, several concurrent HP-search jobs on one
server, or several servers in a distributed job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cluster.network import NetworkLink
from repro.compute.gpu import GPUSpec
from repro.exceptions import ConfigurationError
from repro.prep.workers import WorkerPool
from repro.storage.device import StorageDevice


@dataclass(frozen=True)
class ServerConfig:
    """Hardware configuration of one training server.

    Attributes:
        name: SKU name used in reports ("Config-SSD-V100", ...).
        gpu: GPU model installed.
        num_gpus: GPUs per server (8 in both paper SKUs).
        physical_cores: Physical CPU cores (24 in both paper SKUs).
        vcpus: Hardware threads (hyper-threading doubles the core count on
            the AWS-style SKUs of Appendix B.1).
        dram_bytes: Total DRAM.
        cache_bytes: DRAM that may be used for caching training data (the
            paper's example reserves ~400 of 500 GiB for the dataset cache).
        storage: Storage device holding the dataset.
        network: NIC / fabric used for partitioned caching.
    """

    name: str
    gpu: GPUSpec
    num_gpus: int
    physical_cores: int
    vcpus: int
    dram_bytes: float
    cache_bytes: float
    storage: StorageDevice
    network: NetworkLink

    def __post_init__(self) -> None:
        if self.num_gpus <= 0:
            raise ConfigurationError("a server needs at least one GPU")
        if self.physical_cores <= 0:
            raise ConfigurationError("a server needs at least one CPU core")
        if self.vcpus < self.physical_cores:
            raise ConfigurationError("vCPUs cannot be fewer than physical cores")
        if not 0 <= self.cache_bytes <= self.dram_bytes:
            raise ConfigurationError(
                f"cache budget must lie between 0 and the DRAM size, not "
                f"{self.cache_bytes!r} bytes")

    @property
    def cores_per_gpu(self) -> float:
        """Physical cores available per GPU (3 on both paper SKUs)."""
        return self.physical_cores / self.num_gpus

    def worker_pool(self, cores: float | None = None,
                    gpu_offload: bool = False) -> WorkerPool:
        """Build a prep worker pool on this server's physical CPU cores.

        Args:
            cores: Physical cores to dedicate (defaults to all of them).
            gpu_offload: Enable DALI-style GPU prep on this server's GPUs.
        """
        physical = self.physical_cores if cores is None else cores
        if physical > self.physical_cores:
            raise ConfigurationError(
                f"requested {physical} cores but server has {self.physical_cores}")
        return WorkerPool(
            physical_cores=float(physical),
            gpu_offload=gpu_offload,
            gpu_decode_rate_scale=self.gpu.gpu_prep_scale,
        )

    def with_cache_bytes(self, cache_bytes: float) -> "ServerConfig":
        """Copy of this server with a different cache budget.

        Experiments sweep "x % of the dataset cached" by shrinking the cache
        budget rather than growing the dataset.
        """
        return replace(self, cache_bytes=cache_bytes)

    def with_gpus(self, num_gpus: int) -> "ServerConfig":
        """Copy of this server with a different GPU count."""
        return replace(self, num_gpus=num_gpus)

    def with_cores(self, physical_cores: int, vcpus: int | None = None) -> "ServerConfig":
        """Copy of this server with a different CPU core count."""
        return replace(self, physical_cores=physical_cores,
                       vcpus=vcpus if vcpus is not None else physical_cores * 2)
