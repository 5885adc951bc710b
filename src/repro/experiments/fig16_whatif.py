"""Figure 16 — estimating the optimal cache size with DS-Analyzer.

Appendix C.2's example: sweep the cache fraction for AlexNet on
Config-SSD-V100, predict the effective fetch rate and the resulting training
speed, and find the smallest cache at which the job stops being IO-bound
(~55 % of ImageNet-1K); beyond that more DRAM buys nothing because the job is
CPU-bound on prep.  The experiment also reports the empirical (simulated)
speed at each point so the two curves can be compared.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, ModelSpec
from repro.dsanalyzer.predictor import DataStallPredictor
from repro.dsanalyzer.profiler import DSAnalyzerProfiler
from repro.dsanalyzer.whatif import optimal_cache_fraction
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepRunner
from repro.store import PersistentPool, StoreArg

DEFAULT_FRACTIONS = (0.0, 0.2, 0.4, 0.55, 0.7, 0.85, 1.0)


def run(scale: float = SWEEP_SCALE, model: ModelSpec = ALEXNET,
        dataset_name: str = "imagenet-1k",
        fractions: Sequence[float] = DEFAULT_FRACTIONS,
        seed: int = 0, store: StoreArg = None,
        pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Reproduce the cache-size what-if sweep of Fig. 16."""
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    dataset = runner.dataset(dataset_name)
    server = config_ssd_v100()
    profiler = DSAnalyzerProfiler(model, dataset, server, gpu_prep=False)
    predictor = DataStallPredictor(profiler.profile())
    recommendation = optimal_cache_fraction(predictor, dataset)
    # The empirical curve is a plain cache-fraction sweep of the simulator.
    sweep = runner.run(SweepRunner.grid(
        models=[model], loaders=["coordl"], cache_fractions=fractions,
        dataset=dataset_name, gpu_prep=False), store=store, pool=pool)

    result = ExperimentResult(
        experiment_id="fig16",
        title=f"Fig. 16 — optimal cache size estimation ({model.name}, Config-SSD-V100)",
        columns=["cache_pct", "predicted_speed", "empirical_speed", "bottleneck"],
        notes=[f"DS-Analyzer recommendation: cache {recommendation.optimal_cache_fraction:.0%} "
               f"of the dataset; beyond that the job is "
               f"{recommendation.bottleneck_beyond_optimum.value}",
               "paper: ~55% of the dataset suffices; more DRAM has no benefit"],
    )
    for fraction in fractions:
        prediction = predictor.predict(fraction)
        empirical = sweep.one(cache_fraction=fraction).steady.throughput
        result.add_row(
            cache_pct=100.0 * fraction,
            predicted_speed=prediction.training_speed,
            empirical_speed=empirical,
            bottleneck=prediction.bottleneck.value,
        )
    return result
