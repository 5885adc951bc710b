"""Figure 9(e) — HP search with multi-GPU jobs (AlexNet on OpenImages).

The eight GPUs of one server can be split into 8x1-GPU, 4x2-GPU, 2x4-GPU or
1x8-GPU HP-search jobs.  With a single job the benefit of CoorDL comes from
the MinIO cache; with several concurrent jobs the dominant benefit is
coordinated prep, and the gain grows with the job count because the baseline
divides the CPU cores ever more thinly.  Every job shape is a
:class:`~repro.sim.sweep.SweepPoint`: HP-search points for the multi-job
shapes, plain training points (DALI-shuffle vs CoorDL on the job's GPUs) for
the single-job shape, which has nothing to coordinate.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, ModelSpec
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.units import speedup
from repro.store import PersistentPool, StoreArg

DEFAULT_CONFIGS: Tuple[Tuple[int, int], ...] = ((8, 1), (4, 2), (2, 4), (1, 8))


def run(scale: float = SWEEP_SCALE, model: ModelSpec = ALEXNET,
        dataset_name: str = "openimages", cache_fraction: float = 0.65,
        job_configs: Sequence[Tuple[int, int]] = DEFAULT_CONFIGS,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the job-shape sweep of Fig. 9(e)."""
    points: List[SweepPoint] = []
    for num_jobs, gpus_per_job in job_configs:
        if num_jobs == 1:
            # A single job has nothing to coordinate: compare the full-server
            # training pipelines directly (MinIO vs page cache).
            points.extend(
                SweepPoint(model=model, loader=kind, dataset=dataset_name,
                           cache_fraction=cache_fraction, num_gpus=gpus_per_job)
                for kind in ("dali-shuffle", "coordl"))
        else:
            points.extend(
                SweepPoint(model=model, loader=kind, dataset=dataset_name,
                           cache_fraction=cache_fraction,
                           num_jobs=num_jobs, gpus_per_job=gpus_per_job)
                for kind in ("hp-baseline", "hp-coordl"))
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    sweep = runner.run(points, store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig9e",
        title="Fig. 9(e) — HP search with multi-GPU jobs (AlexNet/OpenImages, "
              "Config-SSD-V100)",
        columns=["num_jobs", "gpus_per_job", "dali_epoch_s", "coordl_epoch_s", "speedup"],
        notes=["single-job row isolates the MinIO benefit; multi-job rows add "
               "coordinated prep"],
    )
    for num_jobs, gpus_per_job in job_configs:
        if num_jobs == 1:
            dali_t = sweep.one(loader="dali-shuffle",
                               num_gpus=gpus_per_job).steady.epoch_time_s
            coordl_t = sweep.one(loader="coordl",
                                 num_gpus=gpus_per_job).steady.epoch_time_s
        else:
            dali_t = sweep.one(loader="hp-baseline", num_jobs=num_jobs,
                               gpus_per_job=gpus_per_job).hp.epoch_time_s
            coordl_t = sweep.one(loader="hp-coordl", num_jobs=num_jobs,
                                 gpus_per_job=gpus_per_job).hp.epoch_time_s
        result.add_row(
            num_jobs=num_jobs,
            gpus_per_job=gpus_per_job,
            dali_epoch_s=dali_t,
            coordl_epoch_s=coordl_t,
            speedup=speedup(dali_t, coordl_t),
        )
    return result
