"""Beyond-paper what-ifs — failure & elasticity scenarios as sweep points.

The paper evaluates CoorDL on static, healthy clusters; Sec. 4.4 describes
the failure-detection protocol (a worker that misses its timeout is declared
dead and its pending minibatch reassigned) but never quantifies what a crash
*costs*.  These four experiments drive
:class:`~repro.sim.failures.FailureScenario` through the sweep executor to
answer that and three neighbouring questions:

* ``fig_crash`` — CoorDL workers crashing mid-training: detection stalls
  (:data:`~repro.sim.failures.DETECTION_TIMEOUT_ITERATIONS` iterations per
  crash), the dead worker's shard re-prepped by a seeded survivor, and the
  cache re-warm I/O for its slice of the shared MinIO cache;
* ``fig_elastic`` — servers joining/leaving a partitioned-cache group:
  joiners warm organically through the miss path, leavers drop their cached
  bytes and survivors re-fetch them from storage;
* ``fig_straggler`` — skewed per-server network/disk rates: the epoch is
  bound by the slowest rank, so one 4x-degraded server drags the job;
* ``fig_multitenant`` — HP-search campaigns competing for one shared page
  cache: the baseline loader thrashes harder as tenants multiply while
  CoorDL's per-job accounting stays flat.

Every scenario runs as first-class sweep points (kinds
``coordl-crash`` / ``coordl-elastic`` / ``coordl-straggler`` /
``hp-multitenant``), so process parallelism, the content-addressed store,
the serve layer and the golden harness all apply unchanged, and each record
carries its deterministic :class:`~repro.sim.failures.FailureEvent` trace.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import RESNET18
from repro.experiments.base import ExperimentResult, SWEEP_SCALE
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import PersistentPool, StoreArg
from repro.units import speedup

__all__ = ["run_crash", "run_elastic", "run_straggler", "run_multitenant"]

#: Crash schedules swept by ``fig_crash``: () is the healthy baseline.
DEFAULT_CRASH_SCHEDULES: Tuple[Tuple[Tuple[int, int], ...], ...] = (
    (), ((1, 1),), ((1, 1), (2, 3)),
)

#: Membership schedules swept by ``fig_elastic`` as (num_servers, schedule).
DEFAULT_MEMBERSHIP: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...] = (
    (2, ()), (2, ((1, 4),)), (4, ((2, 2),)),
)

#: Per-rank degradation factors swept by ``fig_straggler``.
DEFAULT_STRAGGLER_FACTORS: Tuple[Tuple[float, ...], ...] = (
    (), (2.0,), (4.0,), (1.0, 2.0),
)

#: Tenant counts swept by ``fig_multitenant``.
DEFAULT_TENANTS: Tuple[int, ...] = (1, 2, 4)


def _schedule_label(schedule: Tuple[Tuple[int, int], ...]) -> str:
    if not schedule:
        return "healthy"
    return ",".join(f"e{epoch}:j{job}" for epoch, job in schedule)


def run_crash(scale: float = SWEEP_SCALE, num_jobs: int = 4,
              cache_fraction: float = 0.65,
              schedules: Sequence[Tuple[Tuple[int, int], ...]] = DEFAULT_CRASH_SCHEDULES,
              num_epochs: int = 4, seed: int = 0,
              workers: Optional[int] = None, store: StoreArg = None,
              pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Worker crashes mid-training: detection stall + cache re-warm cost."""
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    points = [
        SweepPoint(model=RESNET18, loader="coordl-crash", dataset="openimages",
                   cache_fraction=cache_fraction, num_epochs=num_epochs,
                   num_jobs=num_jobs, crash_schedule=tuple(schedule),
                   label=_schedule_label(tuple(schedule)))
        for schedule in schedules
    ]
    sweep = runner.run(points, workers=workers, store=store, pool=pool)
    baseline = sweep.one(label=_schedule_label(())).failure
    result = ExperimentResult(
        experiment_id="fig_crash",
        title=f"What-if — CoorDL worker crashes ({num_jobs} jobs, SSD server)",
        columns=["schedule", "crashes", "epoch_time_s", "slowdown",
                 "rewarm_gb", "degraded_epochs", "events"],
        notes=["beyond-paper: Sec. 4.4 failure protocol, timeout = 10x iteration time",
               "slowdown is steady epoch time vs the healthy baseline",
               "rewarm GB is storage re-fetch of the dead workers' cache slices"],
    )
    for record in sweep.records:
        failure = record.failure
        result.add_row(
            schedule=record.point.label,
            crashes=len(record.point.crash_schedule),
            epoch_time_s=failure.steady_epoch_time_s,
            slowdown=speedup(failure.steady_epoch_time_s,
                             baseline.steady_epoch_time_s),
            rewarm_gb=failure.total_rewarm_bytes / 1e9,
            degraded_epochs=failure.degraded_epochs,
            events=len(failure.events),
        )
    return result


def run_elastic(scale: float = SWEEP_SCALE, cache_fraction: float = 0.5,
                memberships: Sequence[Tuple[int, Tuple[Tuple[int, int], ...]]] = DEFAULT_MEMBERSHIP,
                num_epochs: int = 4, seed: int = 0,
                workers: Optional[int] = None, store: StoreArg = None,
                pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Servers joining/leaving a CoorDL partition mid-training."""
    runner = SweepRunner(config_hdd_1080ti, scale=scale, seed=seed)
    points = []
    for num_servers, schedule in memberships:
        label = (f"static-{num_servers}" if not schedule else
                 ",".join(f"e{epoch}:n{count}" for epoch, count in schedule))
        points.append(SweepPoint(
            model=RESNET18, loader="coordl-elastic", dataset="openimages",
            cache_fraction=cache_fraction, num_epochs=num_epochs,
            num_servers=num_servers, membership_schedule=tuple(schedule),
            label=label))
    sweep = runner.run(points, workers=workers, store=store, pool=pool)
    result = ExperimentResult(
        experiment_id="fig_elastic",
        title="What-if — elastic CoorDL partition membership (HDD servers)",
        columns=["scenario", "start_servers", "epoch_time_s",
                 "disk_gb", "rewarm_gb", "events"],
        notes=["beyond-paper: joiners warm through the miss path, leavers drop their cache",
               "epoch time is the steady mean over epochs after the first"],
    )
    for record in sweep.records:
        failure = record.failure
        result.add_row(
            scenario=record.point.label,
            start_servers=record.point.num_servers,
            epoch_time_s=failure.steady_epoch_time_s,
            disk_gb=failure.total_disk_bytes / 1e9,
            rewarm_gb=failure.total_rewarm_bytes / 1e9,
            events=len(failure.events),
        )
    return result


def run_straggler(scale: float = SWEEP_SCALE, num_servers: int = 2,
                  cache_fraction: float = 0.5,
                  factor_sets: Sequence[Tuple[float, ...]] = DEFAULT_STRAGGLER_FACTORS,
                  num_epochs: int = 3, seed: int = 0,
                  workers: Optional[int] = None, store: StoreArg = None,
                  pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """Skewed per-server network/disk rates bounding the epoch."""
    runner = SweepRunner(config_hdd_1080ti, scale=scale, seed=seed)
    points = [
        SweepPoint(model=RESNET18, loader="coordl-straggler",
                   dataset="openimages", cache_fraction=cache_fraction,
                   num_epochs=num_epochs, num_servers=num_servers,
                   straggler_factors=tuple(factors),
                   label="uniform" if not factors else
                         "x".join(f"{f:g}" for f in factors))
        for factors in factor_sets
    ]
    sweep = runner.run(points, workers=workers, store=store, pool=pool)
    baseline = sweep.one(label="uniform").failure
    result = ExperimentResult(
        experiment_id="fig_straggler",
        title=f"What-if — straggling servers in a {num_servers}-server partition",
        columns=["factors", "epoch_time_s", "slowdown", "events"],
        notes=["beyond-paper: factor f multiplies rank i's fetch time (network + disk)",
               "the epoch is bound by the slowest rank"],
    )
    for record in sweep.records:
        failure = record.failure
        result.add_row(
            factors=record.point.label,
            epoch_time_s=failure.steady_epoch_time_s,
            slowdown=speedup(failure.steady_epoch_time_s,
                             baseline.steady_epoch_time_s),
            events=len(failure.events),
        )
    return result


def run_multitenant(scale: float = SWEEP_SCALE, num_jobs: int = 2,
                    cache_fraction: float = 0.65,
                    tenants: Sequence[int] = DEFAULT_TENANTS,
                    num_epochs: int = 3, seed: int = 0,
                    workers: Optional[int] = None, store: StoreArg = None,
                    pool: Optional[PersistentPool] = None) -> ExperimentResult:
    """HP campaigns competing for one shared page cache."""
    runner = SweepRunner(config_ssd_v100, scale=scale, seed=seed)
    points = [
        SweepPoint(model=RESNET18, loader="hp-multitenant",
                   dataset="openimages", cache_fraction=cache_fraction,
                   num_epochs=num_epochs, num_jobs=num_jobs,
                   tenants=count, label=f"tenants-{count}")
        for count in tenants
    ]
    sweep = runner.run(points, workers=workers, store=store, pool=pool)
    baseline = sweep.one(tenants=min(tenants)).failure
    result = ExperimentResult(
        experiment_id="fig_multitenant",
        title=f"What-if — multi-tenant HP search ({num_jobs} jobs per campaign)",
        columns=["tenants", "total_jobs", "epoch_time_s", "slowdown",
                 "disk_gb", "miss_ratio"],
        notes=["beyond-paper: campaigns share one page cache and split the CPU cores",
               "slowdown is steady epoch time vs the fewest-tenants row"],
    )
    for record in sweep.records:
        failure = record.failure
        result.add_row(
            tenants=record.point.tenants,
            total_jobs=record.point.tenants * num_jobs,
            epoch_time_s=failure.steady_epoch_time_s,
            slowdown=speedup(failure.steady_epoch_time_s,
                             baseline.steady_epoch_time_s),
            disk_gb=failure.total_disk_bytes / 1e9,
            miss_ratio=failure.epochs[-1].cache_miss_ratio,
        )
    return result
