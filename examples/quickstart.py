#!/usr/bin/env python3
"""Quickstart: analyse data stalls for one model and mitigate them with CoorDL.

This walks the paper's core loop on a single Config-SSD-V100 server:

1. build a (scaled) synthetic OpenImages dataset and a server model,
2. profile the pipeline with DS-Analyzer and classify the bottleneck,
3. simulate single-server training with DALI (page cache) and with CoorDL
   (MinIO cache), and
4. report epoch times, stall breakdowns and the speedup.

Run with ``python examples/quickstart.py``.
"""

from __future__ import annotations

from repro.cluster import config_ssd_v100
from repro.compute import RESNET18
from repro.datasets import SyntheticDataset, get_dataset_spec
from repro.dsanalyzer import DataStallPredictor, DSAnalyzerProfiler, summarize
from repro.pipeline.stats import TrainingRunStats
from repro.sim import PipelineSimulator, build_loader
from repro.units import speedup

#: Fraction of the real OpenImages corpus to simulate (keeps the run < 1 min).
SCALE = 1.0 / 50.0
CACHE_FRACTION = 0.65


def main() -> None:
    dataset = SyntheticDataset(get_dataset_spec("openimages"), scale=SCALE)
    server = config_ssd_v100(cache_bytes=dataset.total_bytes * CACHE_FRACTION)
    model = RESNET18

    print(f"dataset : {dataset.name}  ({len(dataset):,} items, "
          f"{dataset.total_bytes / 1e9:.1f} GB at this scale)")
    print(f"server  : {server.name}  ({server.num_gpus}x {server.gpu.name}, "
          f"{server.physical_cores} cores, cache {CACHE_FRACTION:.0%} of the dataset)")
    print()

    # --- 1. DS-Analyzer: where is the bottleneck? --------------------------
    profiler = DSAnalyzerProfiler(model, dataset, server, gpu_prep=True)
    predictor = DataStallPredictor(profiler.profile())
    print(summarize(predictor, CACHE_FRACTION))
    print()

    # --- 2. Simulate training with DALI and with CoorDL --------------------
    # Three epochs each: a cold-cache warm-up, then two measured epochs.
    simulator = PipelineSimulator(model, server.gpu)
    runs = {kind: TrainingRunStats(simulator.run_epochs(
                build_loader(kind, dataset, server, model), 3))
            for kind in ("dali-shuffle", "coordl")}

    print(f"{'loader':<14}{'epoch (s)':>12}{'fetch stall':>14}{'prep stall':>13}"
          f"{'disk GB':>10}{'miss %':>9}")
    for kind, run in runs.items():
        epoch = run.steady_epoch()
        print(f"{kind:<14}{epoch.epoch_time_s:>12.1f}"
              f"{epoch.fetch_stall_fraction:>13.0%}{epoch.prep_stall_fraction:>12.0%}"
              f"{epoch.io.disk_bytes / 1e9:>10.2f}{epoch.cache_miss_ratio:>8.0%}")

    gain = speedup(runs["dali-shuffle"].mean_epoch_time(),
                   runs["coordl"].mean_epoch_time())
    print(f"\nCoorDL (MinIO cache) speedup over DALI: {gain:.2f}x")


if __name__ == "__main__":
    main()
