"""Figure 9(d) — hyperparameter search with eight concurrent jobs per server.

Eight single-GPU HP-search jobs on one server each independently fetch and
pre-process the same dataset under the baseline, thrashing the page cache and
splitting the 24 cores eight ways.  CoorDL's coordinated prep + MinIO cache
fetches and preps the dataset exactly once per epoch and shares the staged
minibatches, giving 1.9-5.6x faster per-job training depending on how
data-hungry the model is.  The per-model baseline/CoorDL grid runs through
:class:`~repro.sim.sweep.SweepRunner`'s HP-search points.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALL_STALL_MODELS, ModelSpec
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.units import speedup
from repro.store import PersistentPool, StoreArg


def run(scale: float = SWEEP_SCALE, num_jobs: int = 8, cache_fraction: float = 0.65,
        server_name: str = "ssd-v100", models: Optional[Sequence[ModelSpec]] = None,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the per-model HP-search speedups of Fig. 9(d)."""
    chosen = list(models) if models is not None else list(ALL_STALL_MODELS)
    factory = config_ssd_v100 if server_name == "ssd-v100" else config_hdd_1080ti
    runner = SweepRunner(factory, scale=scale, seed=seed)
    sweep = runner.run(SweepRunner.grid(
        models=chosen, loaders=["hp-baseline", "hp-coordl"],
        cache_fractions=[cache_fraction], num_jobs=num_jobs, gpus_per_job=1),
        store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig9d",
        title=f"Fig. 9(d) — {num_jobs}-job HP search: CoorDL vs DALI ({factory().name})",
        columns=["model", "dataset", "dali_job_throughput", "coordl_job_throughput",
                 "speedup", "dali_disk_gb", "coordl_disk_gb", "staging_peak_gb"],
        notes=["paper: ~3x for AlexNet/ShuffleNet, 5.6x for the M5 audio model, "
               "1.9x for ResNet50 on Config-SSD-V100"],
    )
    for model in chosen:
        baseline_rec = sweep.one(model=model, loader="hp-baseline")
        coordl_rec = sweep.one(model=model, loader="hp-coordl")
        baseline, coordl = baseline_rec.hp, coordl_rec.hp
        result.add_row(
            model=model.name,
            dataset=baseline_rec.dataset_name,
            dali_job_throughput=baseline.per_job_throughput,
            coordl_job_throughput=coordl.per_job_throughput,
            speedup=speedup(baseline.epoch_time_s, coordl.epoch_time_s),
            dali_disk_gb=baseline.disk_bytes_per_epoch / 1e9,
            coordl_disk_gb=coordl.disk_bytes_per_epoch / 1e9,
            staging_peak_gb=coordl.staging_peak_bytes / 1e9,
        )
    return result
