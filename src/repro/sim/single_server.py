"""Single-server training scenario driver.

Wires a model + dataset + server + loader choice into the pipelined epoch
simulator and runs the paper's measurement protocol (warm-up epoch followed by
measured epochs, Sec. 3.1).  This is the workhorse behind Figs. 2–6, 9(a),
11, 13, 14 and Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec
from repro.coordl.minio_loader import best_coordl_loader
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import Sampler
from repro.exceptions import ConfigurationError
from repro.pipeline.base import DataLoader
from repro.pipeline.dali import DALILoader, best_dali_loader
from repro.pipeline.pytorch_native import PyTorchNativeLoader
from repro.pipeline.stats import EpochStats, TrainingRunStats
from repro.sim.engine import PipelineSimulator
from repro.sim.kinds import (PointContext, PointFamily, PointKind,
                             dataclass_codec)

#: Loader names accepted by :func:`build_loader`.  "pycoordl" is Appendix E's
#: Py-CoorDL: the native PyTorch DataLoader (Pillow prep) with the page cache
#: swapped for CoorDL's MinIO policy.
LOADER_KINDS = ("pytorch", "dali-seq", "dali-shuffle", "coordl", "pycoordl")

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


def build_loader(kind: str, dataset: SyntheticDataset, server: ServerConfig,
                 model: ModelSpec, num_gpus: Optional[int] = None,
                 cores: Optional[float] = None, cache_bytes: Optional[float] = None,
                 gpu_prep: Optional[bool] = None, seed: int = 0,
                 batch_size: Optional[int] = None,
                 sampler: Optional[Sampler] = None) -> DataLoader:
    """Build a loader of the requested kind for one training job.

    Args:
        kind: One of :data:`LOADER_KINDS`.
        dataset: Dataset to train on.
        server: Server the job runs on.
        model: Model being trained (supplies the per-GPU batch size and the
            GPU-prep interference factor used by the best-of selection).
        num_gpus: GPUs used by the job (defaults to all on the server).
        cores: Physical prep cores for the job (defaults to all).
        cache_bytes: Override the server's cache budget (cache-size sweeps).
        gpu_prep: Force GPU prep on/off; None selects the faster variant.
        seed: Sampler seed.
        batch_size: Explicit per-iteration batch size; when omitted the
            model's per-GPU batch size times ``num_gpus`` is used, clamped by
            :func:`effective_batch_size` for scaled datasets.
        sampler: Ready-made item-order sampler to reuse across loaders
            (parameter sweeps share one memoised sampler per dataset/seed).
    """
    if kind not in LOADER_KINDS:
        raise ConfigurationError(f"unknown loader kind {kind!r}; expected one of {LOADER_KINDS}")
    gpus = num_gpus if num_gpus is not None else server.num_gpus
    if cache_bytes is not None:
        server = server.with_cache_bytes(cache_bytes)
    if batch_size is None:
        batch_size = effective_batch_size(dataset, model.batch_size_for(server.gpu) * gpus)

    if kind == "pytorch":
        return PyTorchNativeLoader.build(dataset, server, batch_size,
                                         num_gpus=gpus, cores=cores, seed=seed,
                                         sampler=sampler)
    if kind == "pycoordl":
        from repro.cache.minio import MinIOCache
        return PyTorchNativeLoader.build(dataset, server, batch_size,
                                         num_gpus=gpus, cores=cores, seed=seed,
                                         cache=MinIOCache(server.cache_bytes),
                                         sampler=sampler)
    if kind in ("dali-seq", "dali-shuffle"):
        mode = "seq" if kind == "dali-seq" else "shuffle"
        if gpu_prep is None:
            return best_dali_loader(dataset, server, batch_size,
                                    model_gpu_prep_interference=model.gpu_prep_interference,
                                    mode=mode, num_gpus=gpus, cores=cores, seed=seed,
                                    sampler=sampler)
        return DALILoader.build(dataset, server, batch_size, mode=mode,
                                gpu_prep=gpu_prep, num_gpus=gpus, cores=cores,
                                seed=seed, sampler=sampler)
    # CoorDL
    if gpu_prep is None:
        return best_coordl_loader(dataset, server, batch_size,
                                  model_gpu_prep_interference=model.gpu_prep_interference,
                                  num_gpus=gpus, cores=cores, seed=seed,
                                  sampler=sampler)
    from repro.coordl.minio_loader import CoorDLLoader
    return CoorDLLoader.build(dataset, server, batch_size, gpu_prep=gpu_prep,
                              num_gpus=gpus, cores=cores, seed=seed,
                              sampler=sampler)


@dataclass
class SingleServerResult:
    """Outcome of one single-server training simulation."""

    loader_name: str
    run: TrainingRunStats

    @property
    def steady_epoch_time_s(self) -> float:
        """Mean steady-state epoch time (first epoch ignored)."""
        return self.run.mean_epoch_time()

    @property
    def steady_throughput(self) -> float:
        """Mean steady-state throughput in samples/second."""
        return self.run.mean_throughput()


class SingleServerTraining:
    """Run a single-server training job for a few epochs and collect stats.

    Args:
        model: DNN to train.
        dataset: Dataset to train on.
        server: Server configuration.
        num_epochs: Total epochs to simulate (first is cold-cache warm-up).
        queue_depth: Prefetch queue depth of the pipeline.
    """

    def __init__(self, model: ModelSpec, dataset: SyntheticDataset,
                 server: ServerConfig, num_epochs: int = 3,
                 queue_depth: int = 4) -> None:
        if num_epochs < 2:
            raise ConfigurationError(
                "need at least two epochs (warm-up + one measured epoch)")
        self._model = model
        self._dataset = dataset
        self._server = server
        self._num_epochs = num_epochs
        self._queue_depth = queue_depth

    def run_with_loader(self, loader: DataLoader) -> SingleServerResult:
        """Simulate the configured number of epochs with a ready-made loader."""
        simulator = PipelineSimulator(self._model, self._server.gpu,
                                      queue_depth=self._queue_depth)
        run = TrainingRunStats()
        for stats in simulator.run_epochs(loader, self._num_epochs):
            run.add(stats)
        return SingleServerResult(loader_name=loader.name, run=run)

    def run(self, loader_kind: str, num_gpus: Optional[int] = None,
            cores: Optional[float] = None, cache_bytes: Optional[float] = None,
            gpu_prep: Optional[bool] = None, seed: int = 0,
            batch_size: Optional[int] = None) -> SingleServerResult:
        """Build a loader of the given kind and simulate the training run."""
        loader = build_loader(loader_kind, self._dataset, self._server, self._model,
                              num_gpus=num_gpus, cores=cores, cache_bytes=cache_bytes,
                              gpu_prep=gpu_prep, seed=seed, batch_size=batch_size)
        return self.run_with_loader(loader)


def _run_training_point(point: Any,
                        context: PointContext) -> Tuple[str, TrainingRunStats]:
    # dali-seq builds its own shuffle-buffer sampler (the storage-visible
    # order is what matters there); every other kind shares the memoised
    # random permutations of its per-point seed.
    sampler = None if point.loader == "dali-seq" else context.shared_sampler()
    loader = build_loader(point.loader, context.dataset, context.server,
                          point.model, num_gpus=point.num_gpus,
                          cores=point.cores, gpu_prep=point.gpu_prep,
                          seed=context.seed, batch_size=point.batch_size,
                          sampler=sampler)
    simulator = PipelineSimulator(point.model, context.server.gpu,
                                  queue_depth=context.queue_depth,
                                  fast_path=context.fast_path)
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

#: Sweep-point kinds of the single-server training pipeline.
TRAINING_POINT_KINDS = {
    kind: PointKind(TRAINING_FAMILY,
                    ("cores", "num_gpus", "batch_size", "gpu_prep"),
                    _run_training_point)
    for kind in LOADER_KINDS
}
