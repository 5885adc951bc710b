"""Table 5 — DS-Analyzer's predicted versus empirical training speed.

DS-Analyzer predicts the training speed for a hypothetical cache size from
four measured rates (G, P, C, S) using Eq. 4; the paper validates the
prediction against real runs of AlexNet on Config-SSD-V100 at 25/35/50 %
cache and finds at most 4 % error.  Here the "empirical" values come from the
full pipelined simulation with a MinIO cache of the same size (a cache-size
sweep through :class:`~repro.sim.sweep.SweepRunner`), and the predictions
from the closed-form model — the two paths share no code, so the comparison
is meaningful.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, ModelSpec
from repro.dsanalyzer.predictor import DataStallPredictor
from repro.dsanalyzer.profiler import DSAnalyzerProfiler
from repro.experiments.base import DEFAULT_SCALE, ExperimentResult
from repro.sim.sweep import SweepRunner
from repro.store import PersistentPool, StoreArg

DEFAULT_FRACTIONS = (0.25, 0.35, 0.5)


def run(scale: float = DEFAULT_SCALE, model: ModelSpec = ALEXNET,
        dataset_name: str = "imagenet-1k",
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the predicted-vs-empirical comparison of Table 5."""
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    dataset = runner.dataset(dataset_name)
    profiler = DSAnalyzerProfiler(model, dataset, config_ssd_v100(), gpu_prep=False)
    predictor = DataStallPredictor(profiler.profile())
    sweep = runner.run(SweepRunner.grid(
        models=[model], loaders=["coordl"], cache_fractions=fractions,
        dataset=dataset_name, gpu_prep=False), store=store, pool=pool)

    result = ExperimentResult(
        experiment_id="tab5",
        title="Table 5 — DS-Analyzer predicted vs empirical training speed "
              f"({model.name}, Config-SSD-V100)",
        columns=["cache_pct", "predicted_samples_per_s", "empirical_samples_per_s",
                 "error_pct"],
        notes=["paper: predictions within 4% of the empirical values"],
    )
    for fraction in fractions:
        predicted = predictor.predict_training_speed(fraction)
        empirical = sweep.one(cache_fraction=fraction).steady.throughput
        error = abs(predicted - empirical) / empirical * 100.0
        result.add_row(
            cache_pct=100.0 * fraction,
            predicted_samples_per_s=predicted,
            empirical_samples_per_s=empirical,
            error_pct=error,
        )
    return result
