"""Figure 6 — prep stalls across DNNs (8 GPUs, 3 CPU cores per GPU).

With the dataset cached and each of the eight GPUs fed by three cores plus
DALI's GPU-assisted prep, the paper measures prep stalls of 5–65 % of epoch
time depending on how compute-light the model is.  The per-model grid runs
through :class:`~repro.sim.sweep.SweepRunner` on Config-SSD-V100.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALL_STALL_MODELS, ModelSpec
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.store import PersistentPool, StoreArg


def run(scale: float = SWEEP_SCALE, models: Optional[Sequence[ModelSpec]] = None,
        cores_per_gpu: int = 3, seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the per-model prep-stall percentages of Fig. 6."""
    chosen = list(models) if models is not None else list(ALL_STALL_MODELS)
    server = config_ssd_v100()
    cores = float(min(cores_per_gpu * server.num_gpus, server.physical_cores))
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    sweep = runner.run(SweepRunner.grid(
        models=chosen, loaders=["dali-shuffle"], cache_fractions=[1.2],
        cores=[cores]), store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig6",
        title="Fig. 6 — prep stall as % of epoch time (8 GPUs, 3 cores/GPU, cached)",
        columns=["model", "dataset", "prep_stall_pct", "throughput", "gpu_rate"],
        notes=["paper: DNNs spend 5-65% of epoch time on blocking prep"],
    )
    for model in chosen:
        record = sweep.one(model=model)
        epoch = record.steady
        result.add_row(
            model=model.name,
            dataset=record.dataset_name,
            prep_stall_pct=100.0 * epoch.prep_stall_fraction,
            throughput=epoch.throughput,
            gpu_rate=model.aggregate_gpu_rate(server.gpu, server.num_gpus),
        )
    return result
