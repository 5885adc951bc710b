"""Table 6 — cache misses and disk I/O: DALI-seq vs DALI-shuffle vs CoorDL.

Training ShuffleNetV2 on OpenImages on Config-SSD-V100 (65 % of the dataset
fits in the cache), the paper measures 66 % misses / 422 GB of disk reads for
DALI-seq, 53 % / 340 GB for DALI-shuffle, and the capacity minimum of 35 % /
225 GB for CoorDL.  The three loaders run as one
:class:`~repro.sim.sweep.SweepRunner` grid (disk I/O is reported scaled back
to the full dataset size).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import SHUFFLENET_V2, ModelSpec
from repro.experiments.base import DEFAULT_SCALE, ExperimentResult
from repro.sim.sweep import SweepRunner
from repro.store import PersistentPool, StoreArg


def run(scale: float = DEFAULT_SCALE, model: ModelSpec = SHUFFLENET_V2,
        dataset_name: str = "openimages", cache_fraction: float = 0.65,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the miss-rate / disk-I/O comparison of Table 6."""
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    sweep = runner.run(SweepRunner.grid(
        models=[model], loaders=["dali-seq", "dali-shuffle", "coordl"],
        cache_fractions=[cache_fraction], dataset=dataset_name),
        store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="tab6",
        title=f"Table 6 — cache miss %% and disk I/O ({model.name}/{dataset_name}, "
              f"{cache_fraction:.0%} cache)",
        columns=["loader", "cache_miss_pct", "disk_io_gb", "epoch_time_s"],
        notes=["paper: 66% / 53% / 35% misses and 422 / 340 / 225 GB for "
               "DALI-seq / DALI-shuffle / CoorDL",
               f"minimum possible miss rate is {100 * (1 - cache_fraction):.0f}%",
               "disk I/O reported at full-dataset scale"],
    )
    for kind, label in (("dali-seq", "DALI-seq"), ("dali-shuffle", "DALI-shuffle"),
                        ("coordl", "CoorDL")):
        epoch = sweep.one(loader=kind).steady
        result.add_row(
            loader=label,
            cache_miss_pct=100.0 * epoch.cache_miss_ratio,
            disk_io_gb=epoch.io.disk_bytes / scale / 1e9,
            epoch_time_s=epoch.epoch_time_s,
        )
    return result
