"""CPU worker pools and DALI-style GPU prep offload.

The rate at which samples can be pre-processed depends on the number of CPU
cores dedicated to prep and on whether (part of) the pipeline is offloaded to
the GPU.  The paper makes three empirical points this model captures:

* prep throughput scales linearly with *physical* cores, but hyper-threads
  add only ~30 % (Appendix B.1);
* DALI's GPU offload adds throughput proportional to GPU speed, but consumes
  2–5 GB of GPU memory and *hurts* compute-heavy models because prep kernels
  compete with training kernels (Appendix B.2);
* with ``k`` concurrent jobs on a server the cores are split ``k`` ways, which
  is what makes HP search prep-bound (Sec. 3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import ConfigurationError
from repro.prep.pipeline import PrepPipeline
from repro.units import safe_div


@dataclass(frozen=True)
class WorkerPool:
    """CPU cores (and optional GPU offload capacity) available to one loader.

    Attributes:
        physical_cores: Physical CPU cores dedicated to this loader's prep.
        hyperthreads: Additional hardware threads beyond the physical cores
            (each contributes ``hyperthread_efficiency`` of a core).
        hyperthread_efficiency: Marginal throughput of one hyperthread
            relative to one physical core (~0.30 per Appendix B.1).
        gpu_offload: Whether DALI GPU-prep is enabled.
        gpu_decode_rate_scale: Relative speed of the GPU at offloaded prep
            (1.0 = V100; a 1080Ti is slower).
    """

    physical_cores: float
    hyperthreads: float = 0.0
    hyperthread_efficiency: float = 0.30
    gpu_offload: bool = False
    gpu_decode_rate_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.physical_cores < 0 or self.hyperthreads < 0:
            raise ConfigurationError("core counts cannot be negative")
        if self.physical_cores == 0 and self.hyperthreads == 0:
            raise ConfigurationError("a worker pool needs at least one thread")

    @property
    def effective_cores(self) -> float:
        """Core-equivalents of the pool (hyperthreads discounted)."""
        return self.physical_cores + self.hyperthreads * self.hyperthread_efficiency

    def prep_rate(self, pipeline: PrepPipeline, mean_raw_bytes: Any,
                  num_gpus_for_offload: int = 0) -> Any:
        """Steady-state prep throughput in samples/second.

        Args:
            pipeline: Pre-processing pipeline describing per-sample cost.
            mean_raw_bytes: Average raw item size of the dataset, or an
                array of them: the rates are then elementwise, each
                computed as for one size.
            num_gpus_for_offload: GPUs whose spare cycles run offloaded
                stages (only used when ``gpu_offload`` is set).
        """
        cost = pipeline.sample_cost(mean_raw_bytes, gpu_offload=self.gpu_offload)
        cpu_rate = safe_div(self.effective_cores, cost.cpu_core_seconds,
                            default=float("inf"))
        if not self.gpu_offload:
            return cpu_rate
        gpus = max(1, num_gpus_for_offload)
        gpu_rate = safe_div(gpus * self.gpu_decode_rate_scale, cost.gpu_seconds,
                            default=float("inf"))
        # CPU stages and GPU stages run as a two-stage pipeline per sample:
        # throughput is limited by the slower of the two stages.  A sample
        # with no GPU work has an infinite GPU rate, so keeps its CPU rate.
        if isinstance(cpu_rate, np.ndarray) or isinstance(gpu_rate, np.ndarray):
            return np.minimum(cpu_rate, gpu_rate)
        return min(cpu_rate, gpu_rate)

    def prep_time_for_batch(self, pipeline: PrepPipeline, batch_raw_bytes: Any,
                            batch_size: Any, num_gpus_for_offload: int = 0) -> Any:
        """Wall-clock seconds to prep one minibatch of the given total size.

        Elementwise over arrays of batch bytes and sizes: one call prices a
        whole epoch's batches with the float operations, in the order, of
        one call per batch.  A batch of no items takes no time.
        """
        mean_bytes = safe_div(batch_raw_bytes, batch_size)
        rate = self.prep_rate(pipeline, mean_bytes, num_gpus_for_offload)
        times = safe_div(batch_size, rate)
        if isinstance(times, np.ndarray):
            return np.where(np.asarray(batch_size) > 0, times, 0.0)
        return times if batch_size > 0 else 0.0
