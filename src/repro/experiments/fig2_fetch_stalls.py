"""Figure 2 — fetch stalls across nine DNNs with 35 % of the dataset cached.

On Config-SSD-V100 with only 35 % of each dataset cacheable, the paper finds
the nine models spend 10–70 % of epoch time blocked on I/O despite prefetching
and pipelining.  The per-model DALI-shuffle grid runs through
:class:`~repro.sim.sweep.SweepRunner` (each model on its paper-assigned
dataset); this module only reduces the sweep into the stall-fraction table.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALL_STALL_MODELS, ModelSpec
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.store import PersistentPool, StoreArg


def run(scale: float = SWEEP_SCALE, cache_fraction: float = 0.35,
        models: Optional[Sequence[ModelSpec]] = None, num_epochs: int = 2,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the per-model fetch-stall percentages of Fig. 2."""
    chosen = list(models) if models is not None else list(ALL_STALL_MODELS)
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    sweep = runner.run(SweepRunner.grid(
        models=chosen, loaders=["dali-shuffle"],
        cache_fractions=[cache_fraction], num_epochs=num_epochs),
        store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig2",
        title=f"Fig. 2 — fetch stalls with {cache_fraction:.0%} of the dataset cached "
              "(Config-SSD-V100, DALI)",
        columns=["model", "dataset", "fetch_stall_pct", "prep_stall_pct",
                 "epoch_time_s", "cache_miss_pct"],
        notes=["paper: DNNs spend 10-70% of epoch time blocked on I/O at a 35% cache"],
    )
    for model in chosen:
        record = sweep.one(model=model)
        epoch = record.steady
        result.add_row(
            model=model.name,
            dataset=record.dataset_name,
            fetch_stall_pct=100.0 * epoch.fetch_stall_fraction,
            prep_stall_pct=100.0 * epoch.prep_stall_fraction,
            epoch_time_s=epoch.epoch_time_s,
            cache_miss_pct=100.0 * epoch.cache_miss_ratio,
        )
    return result
