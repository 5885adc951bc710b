"""Figure 9(a) — single-server training: CoorDL (MinIO) versus DALI.

For each model on its paper-assigned large dataset (OpenImages / FMA), the
server can cache roughly 65 % of the data.  CoorDL's MinIO cache removes the
page-cache thrashing, cutting per-epoch disk reads to the capacity minimum
and speeding training up by up to ~1.8x over DALI-seq (less over the stronger
DALI-shuffle baseline).  The (model x loader) grid runs through
:class:`~repro.sim.sweep.SweepRunner` on either server SKU.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALL_STALL_MODELS, ModelSpec
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.units import speedup
from repro.store import PersistentPool, StoreArg


def run(scale: float = SWEEP_SCALE, cache_fraction: float = 0.65,
        models: Optional[Sequence[ModelSpec]] = None, server_name: str = "ssd-v100",
        num_epochs: int = 2, seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the single-server speedup bars of Fig. 9(a)."""
    chosen = list(models) if models is not None else list(ALL_STALL_MODELS)
    factory = config_ssd_v100 if server_name == "ssd-v100" else config_hdd_1080ti
    runner = SweepRunner(factory, scale=scale, seed=seed)
    sweep = runner.run(SweepRunner.grid(
        models=chosen, loaders=["dali-seq", "dali-shuffle", "coordl"],
        cache_fractions=[cache_fraction], num_epochs=num_epochs),
        store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig9a",
        title=f"Fig. 9(a) — single-server training speedup vs DALI ({factory().name}, "
              f"{cache_fraction:.0%} cache)",
        columns=["model", "dataset", "dali_seq_epoch_s", "dali_shuffle_epoch_s",
                 "coordl_epoch_s", "speedup_vs_seq", "speedup_vs_shuffle"],
        notes=["paper: up to 1.8x over DALI-seq (ShuffleNet/SSD) and ~1.2-1.5x over "
               "DALI-shuffle on Config-SSD-V100; 2.1x/1.5x for ResNet50 on HDD"],
    )
    for model in chosen:
        seq = sweep.one(model=model, loader="dali-seq").steady
        shuffle = sweep.one(model=model, loader="dali-shuffle").steady
        coordl_rec = sweep.one(model=model, loader="coordl")
        coordl = coordl_rec.steady
        result.add_row(
            model=model.name,
            dataset=coordl_rec.dataset_name,
            dali_seq_epoch_s=seq.epoch_time_s,
            dali_shuffle_epoch_s=shuffle.epoch_time_s,
            coordl_epoch_s=coordl.epoch_time_s,
            speedup_vs_seq=speedup(seq.epoch_time_s, coordl.epoch_time_s),
            speedup_vs_shuffle=speedup(shuffle.epoch_time_s, coordl.epoch_time_s),
        )
    return result
