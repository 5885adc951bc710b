#!/usr/bin/env python3
"""Hyperparameter-search campaign: eight concurrent jobs on one server.

Reproduces the scenario the paper's introduction motivates: eight HP-search
jobs (one per GPU) training ResNet18 on OpenImages on a Config-SSD-V100
server with a partial cache.  Shows:

* the read amplification and prep redundancy of uncoordinated loaders,
* the coordinated-prep + MinIO numbers (one fetch/prep sweep per epoch),
* the cross-job staging machinery in action, including recovery when the HP
  scheduler kills a job mid-epoch.

Run with ``python examples/hp_search_campaign.py``.
"""

from __future__ import annotations

from repro.cluster import config_ssd_v100
from repro.compute import RESNET18
from repro.coordl import (CoordinatedEpochRunner, CoordinatedPrepPlan,
                          FailureDetector, StagingArea)
from repro.datasets import SyntheticDataset, get_dataset_spec
from repro.prep.pipeline import PrepPipeline
from repro.sim import HPSearchScenario
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

    # --- 2. Coordination machinery, including a job failure ----------------
    # One plan assigns each minibatch a producer job; the jobs share the
    # staging area, and a consumer that waits ten iterations (1 s each)
    # for a batch asks the failure detector about its producer.
    plan = CoordinatedPrepPlan(dataset, NUM_JOBS, batch_size=256)
    staging = StagingArea(NUM_JOBS, batch_timeout_s=10.0)
    detector = FailureDetector(NUM_JOBS, iteration_time_s=1.0)
    runner = CoordinatedEpochRunner(plan, PrepPipeline.for_dataset(dataset), dataset,
                                    staging=staging, failure_detector=detector)
    print(f"coordinated epoch plan: {plan.total_batches()} minibatches, "
          f"{plan.unique_item_fetches():,} unique item fetches "
          f"(vs {NUM_JOBS * len(dataset):,} uncoordinated)")

    # Walk a few batches, then pretend the HP scheduler killed job 3 and the
    # remaining jobs hit a batch it owed.
    for assignment in plan.assignments[:4]:
        runner.produce_batch(assignment)
        for job in range(NUM_JOBS):
            runner.consume_batch(job, assignment.batch_id)
    detector.mark_dead(3)
    victim = plan.batches_for_producer(3)[1]
    recovered = runner.consume_batch(0, victim.batch_id,
                                     waited_s=detector.timeout_s + 1.0)
    event = detector.events[-1]
    print(f"job 3 killed mid-epoch -> detected at batch {event.missing_batch_id}, "
          f"its shard reassigned to job {event.reassigned_to} "
          f"(consumer retries: {'pending' if not recovered else 'done'})")
    print(f"staging area currently holds {staging.staged_batches} batches, "
          f"peak {staging.peak_bytes / 1e9:.2f} GB")


if __name__ == "__main__":
    main()
