"""Figure 5 — DALI's GPU-assisted prep on slow vs fast GPUs (ResNet18, 8 GPUs).

DALI can offload decode/augmentation to the GPU.  On the slower 1080Ti that
is enough to erase the prep stall with 3 cores per GPU; on the faster V100
the GPUs demand data so fast that even GPU-assisted prep leaves a ~50 % prep
stall.  The four bars — {1080Ti, V100} x {CPU-only prep, CPU+GPU prep} with
3 cores per GPU and a fully cached dataset — run as explicit
:class:`~repro.sim.sweep.SweepPoint`\\ s through one
:class:`~repro.sim.sweep.SweepRunner` per server SKU.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import RESNET18
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import PersistentPool, StoreArg


def run(scale: float = SWEEP_SCALE, dataset_name: str = "imagenet-1k",
        cores_per_gpu: int = 3, seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the prep-stall comparison of DALI CPU vs GPU prep."""
    result = ExperimentResult(
        experiment_id="fig5",
        title="Fig. 5 — 8-GPU ResNet18: prep stalls with DALI CPU vs GPU prep",
        columns=["server", "prep_mode", "throughput", "prep_stall_pct", "epoch_time_s"],
        notes=["dataset fully cached; 3 CPU cores per GPU",
               "paper: GPU prep erases the stall on 1080Ti but leaves ~50% on V100"],
    )
    for factory in (config_hdd_1080ti, config_ssd_v100):
        server = factory()
        cores = float(min(cores_per_gpu * server.num_gpus, server.physical_cores))
        runner = SweepRunner(factory, scale=scale, seed=seed)
        sweep = runner.run([
            SweepPoint(model=RESNET18, loader="dali-shuffle", dataset=dataset_name,
                       cache_fraction=1.2, cores=cores, gpu_prep=gpu_prep)
            for gpu_prep in (False, True)
        ], store=store, pool=pool)
        for gpu_prep in (False, True):
            epoch = sweep.one(gpu_prep=gpu_prep).steady
            result.add_row(
                server=server.name,
                prep_mode="cpu+gpu" if gpu_prep else "cpu-only",
                throughput=epoch.throughput,
                prep_stall_pct=100.0 * epoch.prep_stall_fraction,
                epoch_time_s=epoch.epoch_time_s,
            )
    return result
