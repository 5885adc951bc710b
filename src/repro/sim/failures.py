"""Failure & elasticity scenarios — the what-if analysis' unhappy paths.

The paper's analysis (and everything in :mod:`repro.sim` before this
module) assumes a healthy cluster: every job survives the run, membership
is fixed and servers are homogeneous.  Cluster operators asking "should I
buy DRAM or faster disks?" also need the unhappy paths priced in, so this
module simulates four of them on top of the existing substrates:

* **crash** (:meth:`FailureScenario.run_crash`) — coordinated HP-search
  prep where scheduled jobs die mid-epoch.  Survivors wait
  :data:`DETECTION_TIMEOUT_ITERATIONS` iterations for the dead job's
  batch before the driver hands its shard to a survivor
  (:func:`pick_replacement`, Sec. 4.4); the epoch pays the detection
  latency, the re-prep of the dead job's shard, and the re-warm of the
  MinIO slice the crashed worker took down with it.
* **elastic** (:meth:`FailureScenario.run_partitioned` with a membership
  schedule) — servers join or leave a CoorDL partition
  (:class:`~repro.cache.partitioned.PartitionedCacheGroup`) between
  epochs.  Joiners arrive cold and warm through misses; leavers drop
  their cached bytes, which survivors re-fetch from storage.  An empty
  schedule is the static membership run.
* **straggler** (:meth:`FailureScenario.run_partitioned` with straggler
  factors) — static membership, but per-server fetch-side slowdown
  factors skew the network/disk rates; the lockstep epoch is bound by
  the slowest rank.
* **multi-tenant** (:meth:`FailureScenario.run_multitenant`) — several
  uncoordinated HP campaigns share one server's page cache and split its
  cores, compounding the thrashing of Sec. 3.3.

Every run returns a :class:`FailureScenarioResult`: per-epoch figures plus
a deterministic :class:`FailureEvent` trace.  The trace folds into
:meth:`repro.sim.sweep.SweepRecord.snapshot` byte-exactly
— the PRAM-style trace-checking discipline: the golden harness replays the
scenarios at workers=0/1/4 and through the result store, and the committed
trace must come back bit for bit.

All simulations here are analytic/vectorised (the cache masks and byte
sums are exact, never sampled).  The crash and multi-tenant kinds price
their epochs with :class:`~repro.sim.hp_search.HPSearchScenario`, whose
bulk replays keep per-item references.  Its page-cache side
(``hp-multitenant``) is bit-identical to its reference.  Its MinIO side
(``coordl-crash``) is not: it sums an epoch's miss bytes pairwise where
the reference adds them one at a time, so disk bytes can differ in the
last bits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.cache.partitioned import PartitionedCacheGroup
from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import DistributedSampler, Sampler
from repro.exceptions import ConfigurationError, SimulationError
from repro.prep.pipeline import PrepPipeline
from repro.sim.hp_search import HPSearchScenario
from repro.sim.kinds import (PointContext, PointFamily, PointKind,
                             dataclass_codec, named, require,
                             require_measured_epoch, require_servers)
from repro.storage.device import dram
from repro.units import safe_div

__all__ = [
    "FailureEvent",
    "FailureEpoch",
    "FailureScenarioResult",
    "FailureScenario",
]


@dataclass
class FailureEvent:
    """One event of a failure/elasticity trace.

    ``kind`` is ``"crash"`` (a job died: ``reassigned_to`` is the survivor
    that took over its shard, ``missing_batch_id`` the batch that timed
    out), ``"join"``, ``"leave"`` or ``"straggler"``.  Fields a kind does
    not use carry the ``-1`` sentinel (e.g. a ``join`` event has no failed
    job and no missing batch).
    """

    failed_job: int
    detected_at: float
    reassigned_to: int
    missing_batch_id: int
    kind: str = "crash"


@dataclass
class FailureEpoch:
    """One epoch of a failure/elasticity scenario.

    Attributes:
        epoch_time_s: Wall-clock epoch time, including any failure stall.
        disk_bytes: Bytes read from storage this epoch (all jobs/servers).
        remote_bytes: Bytes served from remote caches (partitioned kinds).
        rewarm_bytes: Cached bytes lost to a crash/leave at this epoch —
            the re-warm debt the following epochs repay through storage.
        stall_s: Failure overhead inside ``epoch_time_s`` (detection
            latency + shard re-prep; 0 for healthy epochs).
        cache_miss_ratio: Item-level miss ratio of the scenario's cache
            this epoch (local misses for the partitioned kinds).
        active: Jobs (crash/multi-tenant) or servers (elastic/straggler)
            participating once this epoch's events are applied.
    """

    epoch_time_s: float
    disk_bytes: float
    remote_bytes: float = 0.0
    rewarm_bytes: float = 0.0
    stall_s: float = 0.0
    cache_miss_ratio: float = 0.0
    active: int = 0


@dataclass
class FailureScenarioResult:
    """Multi-epoch outcome of one failure/elasticity configuration.

    ``events`` is the deterministic trace: crash events carry the
    seeded reassignment, join/leave/straggler events describe the
    membership/skew change with ``-1`` sentinels in the fields that do not
    apply.  The trace is part of the byte-identical snapshot contract.
    """

    loader_name: str
    samples_per_epoch: int
    epochs: List[FailureEpoch] = field(default_factory=list)
    events: List[FailureEvent] = field(default_factory=list)

    @property
    def steady_epoch_time_s(self) -> float:
        """Mean epoch time after the cold-cache warm-up epoch."""
        steady = self.epochs[1:] if len(self.epochs) > 1 else self.epochs
        return sum(e.epoch_time_s for e in steady) / len(steady)

    @property
    def total_disk_bytes(self) -> float:
        """Storage bytes summed over every epoch."""
        return sum(e.disk_bytes for e in self.epochs)

    @property
    def total_rewarm_bytes(self) -> float:
        """Cached bytes lost to crashes/leaves over the whole run."""
        return sum(e.rewarm_bytes for e in self.epochs)

    @property
    def degraded_epochs(self) -> int:
        """Epochs that paid a failure stall or a re-warm."""
        return sum(1 for e in self.epochs if e.stall_s > 0 or e.rewarm_bytes > 0)


#: Iterations a consumer waits for a staged minibatch before it reports
#: the batch's producer as failed (CoorDL uses 10x the iteration time,
#: Sec. 4.4).
DETECTION_TIMEOUT_ITERATIONS = 10


def pick_replacement(seed: int, failed_job: int, event_count: int,
                     survivors: Sequence[int]) -> int:
    """The survivor that takes over ``failed_job``'s prep shard.

    A BLAKE2 digest of ``(seed, failed_job, event_count)`` indexes the
    sorted ``survivors`` (which must not be empty): a pure function of the
    scenario seed and the crash history, never ambient RNG, so a crash
    trace is byte-identical in any process and at any worker count, and
    successive crashes spread over the survivors instead of loading the
    lowest-numbered one.
    """
    candidates = sorted(survivors)
    key = repr((seed, failed_job, event_count)).encode("utf-8")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return candidates[int.from_bytes(digest, "big") % len(candidates)]


class FailureScenario:
    """Simulate the four unhappy-path scenarios on one configuration.

    Args:
        model: Model every job/server trains.
        dataset: Shared dataset.
        server: Server SKU (homogeneous across servers for the
            elastic/straggler kinds; its ``cache_bytes`` is the per-server
            budget there, the shared budget for crash/multi-tenant).
        seed: Scenario seed; drives the samplers, the shard assignment and
            the crash kind's replacement picking.  The sweep runner passes
            its :meth:`~repro.sim.sweep.SweepRunner.point_seed`.
        sampler: The random-sampler getter the crash and multi-tenant
            kinds' HP-search epoch model draws its jobs' permutations
            through (see :class:`~repro.sim.hp_search.HPSearchScenario`).
    """

    def __init__(self, model: ModelSpec, dataset: SyntheticDataset,
                 server: ServerConfig, *, seed: int = 0,
                 sampler: Optional[Callable[[Any], Sampler]] = None) -> None:
        self._model = model
        self._dataset = dataset
        self._server = server
        self._seed = seed
        self._sampler = sampler

    # -- shared rate-model helpers ------------------------------------------

    def _hp(self, num_jobs: int) -> HPSearchScenario:
        """The HP-search epoch model the crash/multi-tenant kinds price with."""
        return HPSearchScenario(self._model, self._dataset, self._server,
                                num_jobs=num_jobs, gpus_per_job=1,
                                seed=self._seed, sampler=self._sampler)

    def _server_prep_rate(self) -> float:
        """CPU-only DALI prep rate of one whole server (distributed kinds)."""
        pool = self._server.worker_pool(gpu_offload=False)
        return pool.prep_rate(PrepPipeline.for_dataset(self._dataset),
                              self._dataset.mean_item_bytes)

    def _server_gpu_rate(self) -> float:
        """Aggregate GPU ingestion rate of one whole server."""
        return self._model.aggregate_gpu_rate(self._server.gpu,
                                              self._server.num_gpus)

    # -- coordl-crash -------------------------------------------------------

    def run_crash(self, num_jobs: int,
                  crash_schedule: Sequence[Tuple[int, int]],
                  num_epochs: int) -> FailureScenarioResult:
        """Coordinated HP-search prep with scheduled worker crashes.

        ``crash_schedule`` is ``(epoch, job)`` pairs (processed in sorted
        order, so any permutation of the schedule yields a bit-identical
        result).  A crash at epoch ``e`` costs that epoch a detection
        timeout (:data:`DETECTION_TIMEOUT_ITERATIONS` iterations, one after
        another when several jobs die in the same epoch), the re-prep of
        the dead job's prep shard by the survivor :func:`pick_replacement`
        names, and the MinIO slice the crashed worker hosted — those items
        are evicted and re-read from storage by later epochs.
        """
        hp = self._hp(num_jobs)
        schedule = sorted((int(e), int(j)) for e, j in crash_schedule)
        num_items = len(self._dataset)
        batch = hp.batch_size
        prep_rate = hp.prep_rate(coordinated=True)
        timeout = (DETECTION_TIMEOUT_ITERATIONS
                   * safe_div(batch, hp.gpu_rate_per_job))
        missing_batch = max(1, num_items // batch) // 2
        dead: set = set()
        cache = MinIOCache(self._server.cache_bytes)
        result = FailureScenarioResult(loader_name="coordl-crash",
                                       samples_per_epoch=num_items)
        elapsed = 0.0
        for epoch in range(num_epochs):
            healthy = hp.run_epoch(cache, epoch, coordinated=True)
            base = healthy.time_s
            stall = 0.0
            rewarm = 0.0
            crash_time = elapsed + 0.5 * base
            for order, (_, job) in enumerate(
                    (e, j) for e, j in schedule if e == epoch):
                dead.add(job)
                survivors = [j for j in range(num_jobs) if j not in dead]
                if not survivors:
                    raise SimulationError(
                        "crash schedule killed every coordinated-prep job")
                # Detection is serialised: each crash is noticed one full
                # timeout after the previous one was handled.
                result.events.append(FailureEvent(
                    failed_job=job,
                    detected_at=crash_time + timeout * (order + 1),
                    reassigned_to=pick_replacement(
                        self._seed, job, len(result.events), survivors),
                    missing_batch_id=missing_batch))
                # The crashed worker hosted a 1/num_jobs slice of the shared
                # MinIO cache: those entries die with it and must be
                # re-fetched from storage by the epochs that follow.
                for item in sorted(cache.cached_items()):
                    if item % num_jobs == job:
                        rewarm += cache.evict(item)
                # The replacement re-preps the orphaned shard's sweep.
                stall += timeout
                stall += safe_div(num_items / num_jobs, prep_rate)
            epoch_time = base + stall
            result.epochs.append(FailureEpoch(
                epoch_time_s=epoch_time, disk_bytes=healthy.disk_bytes,
                rewarm_bytes=rewarm, stall_s=stall,
                cache_miss_ratio=healthy.miss_ratio,
                active=num_jobs - len(dead)))
            elapsed += epoch_time
        return result

    # -- coordl-elastic / coordl-straggler ----------------------------------

    def _partitioned_epoch(self, group: PartitionedCacheGroup,
                           active: List[int], epoch: int,
                           prep_rate: float, gpu_rate: float,
                           factors: Sequence[float]) -> FailureEpoch:
        """One lockstep epoch of the active servers over the partition.

        Each active server draws its rank's disjoint shard of the epoch
        permutation, classifies it against the group (local DRAM / remote
        cache / storage) with exact side effects, and converts the byte
        sums into a fetch time; the epoch is bound by the slowest rank.
        ``factors[server]`` multiplies that server's network+storage time
        (the straggler skew); servers past the end of ``factors`` are
        healthy (1.0).
        """
        dram_bw = dram().random_read_bw
        net = self._server.network
        storage = self._server.storage
        num_items = len(self._dataset)
        epoch_time = 0.0
        disk_total = 0.0
        remote_total = 0.0
        misses = 0
        for rank, server_idx in enumerate(active):
            sampler = DistributedSampler(num_items, num_replicas=len(active),
                                         rank=rank, seed=self._seed)
            order = sampler.epoch(epoch)
            sizes = self._dataset.item_sizes(order)
            local, remote = group.bulk_epoch_lookup(server_idx, order, sizes)
            storage_mask = ~(local | remote)
            local_bytes = float(sizes[local].sum())
            remote_bytes = float(sizes[remote].sum())
            disk_bytes = float(sizes[storage_mask].sum())
            remote_time = (int(remote.sum()) * net.rtt_s
                           + remote_bytes / net.effective_bandwidth)
            disk_time = (int(storage_mask.sum()) * storage.request_overhead_s
                         + disk_bytes / storage.random_read_bw)
            factor = factors[server_idx] if server_idx < len(factors) else 1.0
            fetch = local_bytes / dram_bw + factor * (remote_time + disk_time)
            shard = len(order)
            rank_time = max(fetch, safe_div(shard, prep_rate),
                            safe_div(shard, gpu_rate))
            epoch_time = max(epoch_time, rank_time)
            disk_total += disk_bytes
            remote_total += remote_bytes
            misses += int((~local).sum())
        return FailureEpoch(
            epoch_time_s=epoch_time, disk_bytes=disk_total,
            remote_bytes=remote_total,
            cache_miss_ratio=safe_div(misses, num_items),
            active=len(active))

    def run_partitioned(self, loader_name: str, num_servers: int,
                        membership_schedule: Sequence[Tuple[int, int]],
                        straggler_factors: Sequence[float],
                        num_epochs: int) -> FailureScenarioResult:
        """A CoorDL partition over lockstep epochs (the ``coordl-elastic``
        and ``coordl-straggler`` kinds; ``loader_name`` names the result).

        ``membership_schedule`` is ``(epoch, server_count)`` pairs: at the
        start of that epoch the active set grows or shrinks to the given
        count.  Joiners are brand-new cold servers
        (:meth:`~repro.cache.partitioned.PartitionedCacheGroup.add_server`);
        leavers are the most recently added active servers, and their
        cached bytes are dropped from the partition
        (:meth:`~repro.cache.partitioned.PartitionedCacheGroup.deactivate_server`).

        ``straggler_factors[i]`` multiplies server ``i``'s network and
        storage time (1.0 = healthy).  Servers past the end of the tuple,
        joiners included, are healthy, so ``(4.0,)`` means "server 0
        fetches 4x slower".  Because the epoch is lockstep, one straggler
        bounds the whole job.  An empty schedule with no factors is the
        static membership run.
        """
        factors = [float(f) for f in straggler_factors]
        if len(factors) > num_servers:
            raise ConfigurationError(
                f"{len(factors)} straggler factors for {num_servers} servers")
        schedule = sorted((int(e), int(n)) for e, n in membership_schedule)
        cache_budget = self._server.cache_bytes
        group = PartitionedCacheGroup(
            self._dataset, [cache_budget] * num_servers, seed=self._seed)
        group.populate_from_shards()
        active = list(range(num_servers))
        prep_rate = self._server_prep_rate()
        gpu_rate = self._server_gpu_rate()
        result = FailureScenarioResult(loader_name=loader_name,
                                       samples_per_epoch=len(self._dataset))
        for server, factor in enumerate(factors):
            if factor != 1.0:
                result.events.append(FailureEvent(
                    kind="straggler", failed_job=server, detected_at=0.0,
                    reassigned_to=-1, missing_batch_id=-1))
        elapsed = 0.0
        for epoch in range(num_epochs):
            rewarm = 0.0
            for _, count in (entry for entry in schedule if entry[0] == epoch):
                if count < 1:
                    raise SimulationError("membership cannot drop below one")
                while len(active) < count:
                    joined = group.add_server(cache_budget)
                    active.append(joined)
                    result.events.append(FailureEvent(
                        kind="join", failed_job=-1, detected_at=elapsed,
                        reassigned_to=joined, missing_batch_id=-1))
                while len(active) > count:
                    departed = active.pop()
                    rewarm += group.deactivate_server(departed)
                    result.events.append(FailureEvent(
                        kind="leave", failed_job=departed, detected_at=elapsed,
                        reassigned_to=-1, missing_batch_id=-1))
            stats = self._partitioned_epoch(group, active, epoch, prep_rate,
                                            gpu_rate, factors)
            stats.rewarm_bytes = rewarm
            result.epochs.append(stats)
            elapsed += stats.epoch_time_s
        return result

    # -- hp-multitenant ------------------------------------------------------

    def run_multitenant(self, tenants: int, num_jobs: int,
                        num_epochs: int) -> FailureScenarioResult:
        """Several uncoordinated HP campaigns share one server.

        ``tenants`` campaigns of ``num_jobs`` jobs each interleave their
        access streams through the one shared OS page cache and split the
        server's cores ``tenants * num_jobs`` ways — the Sec. 3.3
        thrashing/read-amplification regime, compounded across tenants.
        The trace is empty: nothing fails, the tenants just contend.
        """
        total_jobs = tenants * num_jobs
        hp = self._hp(total_jobs)
        cache = PageCache(self._server.cache_bytes)
        result = FailureScenarioResult(loader_name="hp-multitenant",
                                       samples_per_epoch=len(self._dataset))
        for epoch in range(num_epochs):
            contended = hp.run_epoch(cache, epoch)
            result.epochs.append(FailureEpoch(
                epoch_time_s=contended.time_s, disk_bytes=contended.disk_bytes,
                cache_miss_ratio=contended.miss_ratio, active=total_jobs))
        return result


def _scenario(point: Any, context: PointContext) -> FailureScenario:
    # The scenario seed doubles as the crash kind's replacement-picking
    # seed, so crash traces are a pure function of the point spec.
    return FailureScenario(point.model, context.dataset, context.server,
                           seed=context.seed, sampler=context.sampler)


def _run_partitioned(point: Any, context: PointContext) -> Tuple[str, Any]:
    # Each partitioned kind leaves the other's field at its default: a
    # straggler point's membership schedule is empty, an elastic point
    # has no straggler factors.
    return named(_scenario(point, context).run_partitioned(
        point.loader, point.num_servers, point.membership_schedule,
        point.straggler_factors, point.num_epochs))


def _check_crash(point: Any) -> None:
    require_measured_epoch(point)
    jobs = [job for _, job in point.crash_schedule]
    for epoch, job in point.crash_schedule:
        require(0 <= epoch < point.num_epochs,
                f"crash epoch {epoch} outside [0, {point.num_epochs})")
        require(0 <= job < point.num_jobs,
                f"crashed job {job} outside [0, {point.num_jobs})")
    require(len(set(jobs)) == len(jobs),
            "a job can crash at most once (dead jobs stay dead)")
    require(len(jobs) < point.num_jobs,
            "crash schedule must leave at least one surviving job")


def _check_elastic(point: Any) -> None:
    require_servers(point)
    epochs = [epoch for epoch, _ in point.membership_schedule]
    for epoch, count in point.membership_schedule:
        require(1 <= epoch < point.num_epochs,
                f"membership change at epoch {epoch} outside "
                f"[1, {point.num_epochs}) (epoch 0 is the initial membership)")
        require(count >= 1, "membership cannot drop below one server")
    require(len(set(epochs)) == len(epochs),
            "at most one membership change per epoch")


def _check_straggler(point: Any) -> None:
    require_servers(point)
    require(len(point.straggler_factors) <= point.num_servers,
            f"{len(point.straggler_factors)} straggler factors for "
            f"{point.num_servers} servers")
    require(all(f > 0 and math.isfinite(f) for f in point.straggler_factors),
            "straggler factors must be positive and finite")


def _check_multitenant(point: Any) -> None:
    require_measured_epoch(point)
    require(point.tenants >= 1, "need at least one tenant")


def _metrics(failure: FailureScenarioResult) -> Dict[str, Any]:
    steady = failure.steady_epoch_time_s
    return dict(epoch_time_s=steady,
                throughput=(failure.samples_per_epoch / steady
                            if steady else 0.0),
                disk_bytes=failure.total_disk_bytes,
                rewarm_bytes=failure.total_rewarm_bytes,
                events=len(failure.events))


#: Failure points: per-epoch figures plus the full event trace.
FAILURE_FAMILY = PointFamily("failure", "failure",
                             *dataclass_codec(FailureScenarioResult),
                             metrics=_metrics)

#: Sweep-point kinds simulated through :class:`FailureScenario` — the
#: unhappy paths (crashes, elastic membership, stragglers, multi-tenant
#: cache contention).  ``cache_fraction`` / ``cache_bytes`` are per-server
#: budgets for the elastic/straggler kinds.
FAILURE_POINT_KINDS = {
    "coordl-crash": PointKind(
        FAILURE_FAMILY, ("num_jobs", "crash_schedule"),
        lambda point, context: named(_scenario(point, context).run_crash(
            point.num_jobs, point.crash_schedule, point.num_epochs)),
        _check_crash),
    "coordl-elastic": PointKind(
        FAILURE_FAMILY, ("num_servers", "membership_schedule"),
        _run_partitioned, _check_elastic),
    "coordl-straggler": PointKind(
        FAILURE_FAMILY, ("num_servers", "straggler_factors"),
        _run_partitioned, _check_straggler),
    "hp-multitenant": PointKind(
        FAILURE_FAMILY, ("num_jobs", "tenants"),
        lambda point, context: named(_scenario(point, context).run_multitenant(
            point.tenants, point.num_jobs, point.num_epochs)),
        _check_multitenant),
}

#: The failure/elasticity sweep-point kinds, in table order.
FAILURE_KINDS = tuple(FAILURE_POINT_KINDS)
