"""DS-Analyzer's differential profiler (Sec. 3.2, Appendix C.1).

Placing timers around the data path of a real training script misattributes
time because fetch/prep run in concurrent workers and a stall in one
data-parallel rank shows up as compute time in the others.  DS-Analyzer
instead measures in three phases:

1. **Ingestion rate (G)** — run with synthetic data pre-populated at the GPU:
   no fetch, no prep.
2. **Prep rate (P)** — run with the (subset of the) dataset fully cached in
   DRAM and GPU compute disabled, using every core: isolates prep.
3. **Fetch rates (C, S)** — measure the DRAM copy bandwidth (microbenchmark)
   and the storage device's random-read throughput with a cold cache, prep
   and compute disabled.

The profiler here runs those same phases against the simulated substrate,
yielding a :class:`PipelineProfile` in samples/second that the predictor
(:mod:`repro.dsanalyzer.predictor`) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec
from repro.datasets.dataset import SyntheticDataset
from repro.exceptions import ProfilingError
from repro.prep.pipeline import PrepPipeline
from repro.storage.device import dram


@dataclass(frozen=True)
class PipelineProfile:
    """Component rates of one model/dataset/server combination (samples/s).

    Attributes:
        gpu_rate: Max GPU ingestion rate G (phase 1).
        prep_rate: Pre-processing rate P with all cores (phase 2).
        storage_rate: Storage fetch rate S with a cold cache (phase 3).
        cache_rate: DRAM fetch rate C (phase 3 microbenchmark).
        mean_item_bytes: Average raw item size, for converting to MB/s.
        num_gpus: GPUs the profile was taken with.
        cores: Physical cores the prep phase used.
    """

    gpu_rate: float
    prep_rate: float
    storage_rate: float
    cache_rate: float
    mean_item_bytes: float
    num_gpus: int
    cores: float

    def rate_to_mbps(self, samples_per_s: float) -> float:
        """Convert a samples/s rate to MB/s of raw data (Fig. 1 units)."""
        return samples_per_s * self.mean_item_bytes / 1e6


class DSAnalyzerProfiler:
    """Run the three measurement phases against the simulated substrate.

    Args:
        model: Model to profile.
        dataset: Dataset to profile with.
        server: Server configuration.
        gpu_prep: Whether DALI GPU prep is enabled during the prep phase.
        library: Prep library ("dali" or "pytorch").
    """

    def __init__(self, model: ModelSpec, dataset: SyntheticDataset,
                 server: ServerConfig, gpu_prep: bool = False,
                 library: str = "dali") -> None:
        self._model = model
        self._dataset = dataset
        self._server = server
        self._gpu_prep = gpu_prep
        self._library = library

    def measure_ingestion_rate(self, num_gpus: int | None = None) -> float:
        """Phase 1: max GPU ingestion rate with synthetic data (samples/s)."""
        gpus = num_gpus if num_gpus is not None else self._server.num_gpus
        return self._model.aggregate_gpu_rate(self._server.gpu, gpus,
                                              gpu_prep_active=self._gpu_prep)

    def measure_prep_rate(self, cores: float | None = None,
                          num_gpus: int | None = None) -> float:
        """Phase 2: prep rate with the data cached and compute disabled."""
        gpus = num_gpus if num_gpus is not None else self._server.num_gpus
        pool = self._server.worker_pool(cores=cores, gpu_offload=self._gpu_prep)
        prep = PrepPipeline.for_dataset(self._dataset, self._library)
        rate = pool.prep_rate(prep, self._dataset.mean_item_bytes,
                              num_gpus_for_offload=gpus)
        if rate <= 0:
            raise ProfilingError("prep rate measurement returned a non-positive rate")
        return rate

    def measure_storage_rate(self) -> float:
        """Phase 3a: cold-cache storage fetch rate (samples/s)."""
        bw = self._server.storage.effective_rate(self._dataset.mean_item_bytes)
        return bw / self._dataset.mean_item_bytes

    def measure_cache_rate(self) -> float:
        """Phase 3b: DRAM fetch rate (samples/s) from the memory microbenchmark."""
        device = dram(self._server.dram_bytes)
        bw = device.effective_rate(self._dataset.mean_item_bytes)
        return bw / self._dataset.mean_item_bytes

    def profile(self, cores: float | None = None,
                num_gpus: int | None = None) -> PipelineProfile:
        """Run all phases and return the combined profile."""
        gpus = num_gpus if num_gpus is not None else self._server.num_gpus
        used_cores = cores if cores is not None else float(self._server.physical_cores)
        return PipelineProfile(
            gpu_rate=self.measure_ingestion_rate(gpus),
            prep_rate=self.measure_prep_rate(cores=cores, num_gpus=gpus),
            storage_rate=self.measure_storage_rate(),
            cache_rate=self.measure_cache_rate(),
            mean_item_bytes=self._dataset.mean_item_bytes,
            num_gpus=gpus,
            cores=used_cores,
        )
