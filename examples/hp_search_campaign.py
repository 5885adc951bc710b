#!/usr/bin/env python3
"""Hyperparameter-search campaign: eight concurrent jobs on one server.

Reproduces the scenario the paper's introduction motivates: eight HP-search
jobs (one per GPU) training ResNet18 on OpenImages on a Config-SSD-V100
server with a partial cache.  Shows:

* the read amplification and prep redundancy of uncoordinated loaders,
* the coordinated-prep + MinIO numbers (one fetch/prep sweep per epoch),
* recovery when a job crashes mid-epoch, run as a ``coordl-crash`` sweep
  point: when the crash is detected, which survivor takes over the dead
  job's prep shard, and the stall each epoch pays.

Run with ``python examples/hp_search_campaign.py``.
"""

from __future__ import annotations

from repro.cluster import config_ssd_v100
from repro.compute import RESNET18
from repro.datasets import SyntheticDataset, get_dataset_spec
from repro.sim import HPSearchScenario, SweepPoint, SweepRunner
from repro.units import speedup

SCALE = 1.0 / 100.0
NUM_JOBS = 8
CACHE_FRACTION = 0.65


def main() -> None:
    dataset = SyntheticDataset(get_dataset_spec("openimages"), scale=SCALE)
    server = config_ssd_v100(cache_bytes=dataset.total_bytes * CACHE_FRACTION)
    model = RESNET18

    # --- 1. Throughput and I/O comparison ----------------------------------
    scenario = HPSearchScenario(model, dataset, server, num_jobs=NUM_JOBS,
                                gpus_per_job=1)
    baseline = scenario.run_baseline()
    coordl = scenario.run_coordl()

    print(f"{NUM_JOBS} concurrent {model.name} jobs on {server.name} "
          f"({CACHE_FRACTION:.0%} cache):\n")
    print(f"{'':<22}{'DALI (per job)':>16}{'CoorDL (per job)':>18}")
    print(f"{'throughput (samples/s)':<22}{baseline.per_job_throughput:>16,.0f}"
          f"{coordl.per_job_throughput:>18,.0f}")
    print(f"{'disk I/O per epoch (GB)':<22}{baseline.disk_bytes_per_epoch / 1e9:>16.2f}"
          f"{coordl.disk_bytes_per_epoch / 1e9:>18.2f}")
    print(f"{'cache miss ratio':<22}{baseline.cache_miss_ratio:>16.0%}"
          f"{coordl.cache_miss_ratio:>18.0%}")
    print(f"{'staging memory (GB)':<22}{0.0:>16.2f}"
          f"{coordl.staging_peak_bytes / 1e9:>18.2f}")
    amp = baseline.disk_bytes_per_epoch / dataset.total_bytes
    print(f"\nread amplification of the uncoordinated baseline: {amp:.1f}x the dataset")
    print(f"CoorDL speedup: {speedup(baseline.epoch_time_s, coordl.epoch_time_s):.2f}x\n")

    # --- 2. A job crash mid-training ---------------------------------------
    # Job 3 dies in epoch 1.  The survivors wait ten iterations for the
    # batch it owed, then a seeded survivor re-preps its shard; its slice
    # of the MinIO cache is lost and re-read from storage.
    runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
    point = SweepPoint(model=model, loader="coordl-crash", dataset="openimages",
                       cache_fraction=CACHE_FRACTION, num_epochs=3,
                       num_jobs=NUM_JOBS, crash_schedule=((1, 3),))
    crash = runner.run([point], workers=0, store=False).records[0].failure
    for event in crash.events:
        print(f"job {event.failed_job} crashed: detected at "
              f"{event.detected_at:.2f} s, its shard reassigned to job "
              f"{event.reassigned_to}")
    for epoch, stats in enumerate(crash.epochs):
        print(f"epoch {epoch}: {stats.epoch_time_s:6.2f} s, "
              f"stall {stats.stall_s:5.2f} s, {stats.active} jobs active")


if __name__ == "__main__":
    main()
