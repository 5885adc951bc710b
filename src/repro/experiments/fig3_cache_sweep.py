"""Figure 3 — ResNet18 epoch time split as the cache size varies.

The stacked-bar figure splits the epoch into GPU compute, the *ideal* fetch
stall (what an efficient cache of that size would still pay) and the extra
fetch stall caused by page-cache thrashing.  We obtain the ideal split from a
MinIO (CoorDL) run and the thrashing surcharge from the DALI-shuffle run at
the same cache size.  The sweep over cache fractions x loaders runs through
:class:`~repro.sim.sweep.SweepRunner` (shared dataset/sampler, vectorised
epoch arrays).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import RESNET18
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.store import PersistentPool, StoreArg

DEFAULT_FRACTIONS = (0.25, 0.35, 0.5, 0.65, 0.8, 1.0)


def run(scale: float = SWEEP_SCALE, fractions: Sequence[float] = DEFAULT_FRACTIONS,
        dataset_name: str = "openimages", num_epochs: int = 2,
        seed: int = 0, workers: Optional[int] = None,
        store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the epoch-time split vs cache size for ResNet18."""
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    sweep = runner.run(SweepRunner.grid(
        models=[RESNET18], loaders=["dali-shuffle", "coordl"],
        cache_fractions=fractions, dataset=dataset_name, num_epochs=num_epochs),
        workers=workers, store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig3",
        title="Fig. 3 — ResNet18 epoch split vs cache size (compute / ideal fetch "
              "stall / thrashing)",
        columns=["cache_pct", "compute_s", "ideal_fetch_stall_s", "thrashing_stall_s",
                 "dali_epoch_s", "dali_miss_pct", "ideal_miss_pct"],
        notes=["ideal split measured with the MinIO cache; thrashing is the extra "
               "fetch stall the page cache adds on top"],
    )
    for fraction in fractions:
        dali = sweep.one(loader="dali-shuffle", cache_fraction=fraction).steady
        ideal = sweep.one(loader="coordl", cache_fraction=fraction).steady
        compute_s = dali.epoch_time_s - dali.fetch_stall_s
        ideal_fetch = ideal.fetch_stall_s
        thrashing = max(0.0, dali.fetch_stall_s - ideal_fetch)
        result.add_row(
            cache_pct=100.0 * fraction,
            compute_s=compute_s,
            ideal_fetch_stall_s=ideal_fetch,
            thrashing_stall_s=thrashing,
            dali_epoch_s=dali.epoch_time_s,
            dali_miss_pct=100.0 * dali.cache_miss_ratio,
            ideal_miss_pct=100.0 * ideal.cache_miss_ratio,
        )
    return result
