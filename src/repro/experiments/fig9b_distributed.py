"""Figure 9(b)/(c) — multi-server distributed training: partitioned caching.

Two servers training one data-parallel job can collectively cache the whole
dataset, but without coordination each server still reads the part of its
(ever-changing) shard that is not in *its own* cache from storage every
epoch.  CoorDL's partitioned cache serves those misses from the other
server's DRAM over 40 Gbps TCP instead, removing storage I/O entirely after
the first epoch.  On HDD servers that is worth up to 15x (AlexNet); on SSD
servers the miss penalty is smaller so gains are 1.3-2.9x.  The
(model x loader) grid runs as distributed sweep points through
:class:`~repro.sim.sweep.SweepRunner` (vectorised partitioned epochs).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALEXNET, AUDIO_M5, RESNET18, RESNET50, SHUFFLENET_V2, ModelSpec
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.units import speedup
from repro.store import PersistentPool, StoreArg

DEFAULT_HDD_MODELS = (ALEXNET, RESNET18, RESNET50, SHUFFLENET_V2)
DEFAULT_SSD_MODELS = (SHUFFLENET_V2, AUDIO_M5, ALEXNET)


def run(scale: float = SWEEP_SCALE, num_servers: int = 2,
        cache_fraction_per_server: float = 0.65, server_name: str = "hdd-1080ti",
        models: Optional[Sequence[ModelSpec]] = None, num_epochs: int = 2,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the distributed-training speedups of Fig. 9(b)/(c)."""
    if server_name == "hdd-1080ti":
        factory = config_hdd_1080ti
        chosen = list(models) if models is not None else list(DEFAULT_HDD_MODELS)
    else:
        factory = config_ssd_v100
        chosen = list(models) if models is not None else list(DEFAULT_SSD_MODELS)
    runner = SweepRunner(factory, scale=scale, seed=seed)
    sweep = runner.run(SweepRunner.grid(
        models=chosen, loaders=["dist-baseline", "dist-coordl"],
        cache_fractions=[cache_fraction_per_server], num_servers=num_servers,
        num_epochs=num_epochs), store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig9b",
        title=f"Fig. 9(b/c) — {num_servers}-server distributed training: CoorDL vs DALI "
              f"({factory().name})",
        columns=["model", "dataset", "dali_epoch_s", "coordl_epoch_s", "speedup",
                 "dali_disk_gb_per_server", "coordl_disk_gb_per_server",
                 "coordl_remote_gb"],
        notes=["paper: up to 15x on HDD servers (AlexNet/OpenImages), 1.3-2.9x on SSD",
               "disk GB reported at the scaled dataset size"],
    )
    for model in chosen:
        baseline_rec = sweep.one(model=model, loader="dist-baseline")
        coordl_rec = sweep.one(model=model, loader="dist-coordl")
        b_epoch = baseline_rec.dist_steady
        c_epoch = coordl_rec.dist_steady
        result.add_row(
            model=model.name,
            dataset=coordl_rec.dataset_name,
            dali_epoch_s=b_epoch.epoch_time_s,
            coordl_epoch_s=c_epoch.epoch_time_s,
            speedup=speedup(b_epoch.epoch_time_s, c_epoch.epoch_time_s),
            dali_disk_gb_per_server=b_epoch.total_disk_bytes / num_servers / 1e9,
            coordl_disk_gb_per_server=c_epoch.total_disk_bytes / num_servers / 1e9,
            coordl_remote_gb=c_epoch.total_remote_bytes / 1e9,
        )
    return result
