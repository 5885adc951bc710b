"""Figure 4 — training throughput versus CPU cores per GPU.

With the dataset fully cached (no fetch stalls), the paper sweeps the number
of pre-processing cores per GPU and finds that compute-heavy models
(ResNet50) need only 3–4 cores per GPU while light models (ResNet18, AlexNet)
need 12–24 to mask prep stalls.  This experiment reproduces the sweep using
CPU-only prep (the sweep isolates CPU scaling, as in the paper's figure) and
reports throughput normalised to the GPU ingestion rate.  The models x cores
grid runs through :class:`~repro.sim.sweep.SweepRunner`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, MOBILENET_V2, RESNET18, RESNET50, ModelSpec
from repro.dsanalyzer.whatif import cores_needed_per_gpu
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import PersistentPool, StoreArg

DEFAULT_MODELS = (RESNET18, ALEXNET, MOBILENET_V2, RESNET50)
DEFAULT_CORES_PER_GPU = (1, 2, 3, 6, 12, 24)

#: Cache budget relative to the dataset: comfortably over-provisioned so the
#: sweep isolates prep scaling (no fetch stalls).
FULLY_CACHED_FRACTION = 1.2


def run(scale: float = SWEEP_SCALE, models: Optional[Sequence[ModelSpec]] = None,
        cores_per_gpu: Sequence[int] = DEFAULT_CORES_PER_GPU,
        dataset_name: str = "imagenet-1k", num_gpus: int = 1,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the throughput-vs-cores sweep and the cores-needed summary."""
    chosen = list(models) if models is not None else list(DEFAULT_MODELS)
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    dataset = runner.dataset(dataset_name)
    server = config_ssd_v100()
    points = [
        SweepPoint(model=model, loader="dali-shuffle", dataset=dataset_name,
                   cache_fraction=FULLY_CACHED_FRACTION, num_gpus=num_gpus,
                   cores=min(cores * num_gpus, server.physical_cores),
                   gpu_prep=False, label=f"{cores}")
        for model in chosen for cores in cores_per_gpu
    ]
    sweep = runner.run(points, store=store, pool=pool)

    result = ExperimentResult(
        experiment_id="fig4",
        title="Fig. 4 — throughput vs CPU cores per GPU (dataset fully cached)",
        columns=["model", "cores_per_gpu", "throughput", "gpu_rate",
                 "prep_stall_pct", "cores_needed_per_gpu"],
        notes=["paper: 3-4 cores/GPU suffice for ResNet50; 12-24 for ResNet18/AlexNet"],
    )
    for model in chosen:
        full_cache = config_ssd_v100(
            cache_bytes=dataset.total_bytes * FULLY_CACHED_FRACTION)
        needed = cores_needed_per_gpu(model, dataset, full_cache, max_cores_per_gpu=32)
        gpu_rate = model.aggregate_gpu_rate(full_cache.gpu, num_gpus)
        for cores in cores_per_gpu:
            epoch = sweep.one(model=model, label=f"{cores}").steady
            result.add_row(
                model=model.name,
                cores_per_gpu=cores,
                throughput=epoch.throughput,
                gpu_rate=gpu_rate,
                prep_stall_pct=100.0 * epoch.prep_stall_fraction,
                cores_needed_per_gpu=needed,
            )
    return result
