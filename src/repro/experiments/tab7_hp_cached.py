"""Table 7 — HP search with a fully cached dataset (ImageNet-1K).

Even with no storage I/O at all, eight concurrent HP-search jobs are slowed by
redundant pre-processing: each job only gets 3 of the 24 cores.  CoorDL's
coordinated prep removes the redundancy and speeds the jobs up by 1.2-1.9x,
the exact factor depending on how far each model's GPU ingestion rate exceeds
a 3-core prep pipeline.  The per-model baseline/CoorDL grid runs through
:class:`~repro.sim.sweep.SweepRunner`'s HP-search points (the page cache
holds 1.2x the dataset, and the jobs' interleaved stream replays through
the same segmented-LRU kernel as in every other regime).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import IMAGE_MODELS, ModelSpec
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.units import speedup
from repro.store import PersistentPool, StoreArg


def run(scale: float = SWEEP_SCALE, num_jobs: int = 8,
        dataset_name: str = "imagenet-1k",
        models: Optional[Sequence[ModelSpec]] = None,
        seed: int = 0, workers: Optional[int] = None,
        store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the fully-cached HP-search speedups of Table 7."""
    chosen = list(models) if models is not None else list(IMAGE_MODELS)
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    # A cache larger than the dataset removes every fetch stall.
    sweep = runner.run(SweepRunner.grid(
        models=chosen, loaders=["hp-baseline", "hp-coordl"],
        cache_fractions=[1.2], dataset=dataset_name,
        num_jobs=num_jobs, gpus_per_job=1), workers=workers, store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="tab7",
        title=f"Table 7 — {num_jobs}-job HP search with the dataset fully cached "
              "(Config-SSD-V100)",
        columns=["model", "dali_samples_per_s", "coordl_samples_per_s", "speedup"],
        notes=["paper: DALI per-job speeds 552-1441 samples/s; CoorDL speedups "
               "1.21-1.87x by eliminating redundant prep"],
    )
    for model in chosen:
        baseline = sweep.one(model=model, loader="hp-baseline").hp
        coordl = sweep.one(model=model, loader="hp-coordl").hp
        result.add_row(
            model=model.name,
            dali_samples_per_s=baseline.per_job_throughput,
            coordl_samples_per_s=coordl.per_job_throughput,
            speedup=speedup(baseline.epoch_time_s, coordl.epoch_time_s),
        )
    return result
