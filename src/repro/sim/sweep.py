"""Parameter-sweep runner over the pipelined epoch simulator.

Every figure/table reproduction walks a grid of configurations — cache
sizes (Fig. 3), prep cores (Fig. 4), models (Figs. 6/9d), predictor
validation points (Tab. 5) — and each experiment module used to hand-roll
its own loops over :class:`~repro.sim.single_server.SingleServerTraining`
or :class:`~repro.sim.hp_search.HPSearchScenario`.  :class:`SweepRunner`
replaces those loops with one subsystem that

* expands a grid of (model, loader, cache size, cores, batch size)
  into :class:`SweepPoint`\\ s,
* **shares** dataset materialisation and per-epoch sampler permutations
  across all points of the same (dataset, seed) pair,
* runs every point through the simulator's vectorised fast path
  (:meth:`repro.sim.engine.PipelineSimulator.collect_batch_times`), and
* returns a tidy :class:`SweepResult` the experiment modules reduce into
  their :class:`~repro.experiments.base.ExperimentResult` tables.

Four point-kind families are supported: single-server training sweeps
(``loader`` in :data:`~repro.sim.single_server.LOADER_KINDS`), HP-search
scenario sweeps (``loader`` in :data:`HP_SEARCH_KINDS`, which run
:class:`~repro.sim.hp_search.HPSearchScenario` per point), multi-server
distributed sweeps (``loader`` in :data:`DISTRIBUTED_KINDS`, which run
:class:`~repro.sim.distributed.DistributedTraining` per point), and
failure/elasticity sweeps (``loader`` in :data:`FAILURE_KINDS`, which run
:class:`~repro.sim.failures.FailureScenario` per point and fold a
deterministic :class:`~repro.coordl.failure.FailureEvent` trace into the
snapshot).

Because every point is an independent simulation, :meth:`SweepRunner.run`
can fan a grid out over a spawn-safe ``multiprocessing`` worker pool
(``workers=N``).  Each worker rebuilds its substrates from the pickled
runner configuration and point spec alone; every point's sampling derives
from :meth:`SweepRunner.point_seed` — a stable hash derived from the point
spec that depends neither on scheduling order nor on worker count — and
results are reassembled in input order, so the parallel
:class:`SweepResult` is byte-identical to the serial one (asserted by the
golden and property tests in ``tests/test_golden_sweeps.py`` /
``tests/test_sweep_parallel.py``).

The same canonicalisation discipline powers the content-addressed result
store (:mod:`repro.store`): :meth:`SweepRunner.point_spec` renders the
(runner, point, env-flag) identity of a simulation, the store keys the
record's fully-invertible snapshot (:meth:`SweepRecord.snapshot` with
embedded timelines, inverted by :meth:`SweepRecord.from_snapshot`) under a
BLAKE2 digest of it, and :meth:`SweepRunner.run` partitions a grid into
store hits (rehydrated, byte-identical) and misses (simulated through one
executor — :class:`SerialExecutor` in process, a one-shot or long-lived
:class:`repro.store.PersistentPool`, or a :class:`repro.dist.DistExecutor`
— then written back).
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Tuple)

import numpy as np

if TYPE_CHECKING:  # repro.store imports this module; annotation-only here
    from repro.store import PersistentPool, StoreArg

from repro.cache.page_cache import ReplayMemo
from repro.cache.warm_kernel import warm_kernel_enabled
from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec, get_model
from repro.datasets.catalog import get_dataset_spec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import CachingSampler, RandomSampler, Sampler
from repro.exceptions import ConfigurationError, SweepPointError
from repro.pipeline.stats import EpochStats, TrainingRunStats
from repro.storage.iostats import IOStats
from repro.coordl.failure import FailureEvent
from repro.sim.distributed import DistributedEpoch, DistributedResult, DistributedTraining
from repro.sim.engine import PipelineSimulator
from repro.sim.failures import (
    FailureEpoch,
    FailureScenario,
    FailureScenarioResult,
)
from repro.sim.hp_search import HPSearchResult, HPSearchScenario
from repro.sim.single_server import LOADER_KINDS, build_loader

#: Sweep-point kinds simulated through :class:`HPSearchScenario` instead of
#: the single-server epoch pipeline.
HP_SEARCH_KINDS = ("hp-baseline", "hp-coordl")

#: Sweep-point kinds simulated through :class:`DistributedTraining`
#: (``cache_fraction`` / ``cache_bytes`` are per-server budgets there).
DISTRIBUTED_KINDS = ("dist-baseline", "dist-coordl")

#: Sweep-point kinds simulated through :class:`~repro.sim.failures.
#: FailureScenario` — the unhappy paths (crashes, elastic membership,
#: stragglers, multi-tenant cache contention).  ``cache_fraction`` /
#: ``cache_bytes`` are per-server budgets for the elastic/straggler kinds.
FAILURE_KINDS = ("coordl-crash", "coordl-elastic", "coordl-straggler",
                 "hp-multitenant")

#: Failure-kind → the scenario fields it plumbs through (anything else
#: kind-specific must stay at its default, enforced by point validation).
_FAILURE_FIELDS = {
    "coordl-crash": ("num_jobs", "crash_schedule"),
    "coordl-elastic": ("num_servers", "membership_schedule"),
    "coordl-straggler": ("num_servers", "straggler_factors"),
    "hp-multitenant": ("num_jobs", "tenants"),
}

#: Environment variable supplying the default worker count of
#: :meth:`SweepRunner.run` when the caller does not pass ``workers=``
#: explicitly (the CI ``workers=2`` leg sets it to run the whole tier-1
#: suite through the pool).
WORKERS_ENV_VAR = "REPRO_SWEEP_WORKERS"


def clamp_workers(workers: int) -> int:
    """Clamp a requested worker count to the machine's core count.

    Simulation workers are CPU-bound, so a pool wider than
    ``os.cpu_count()`` only adds spawn cost and scheduler contention — on
    a 1-core machine the unclamped ``workers=4`` pool ran the 16-point
    parallel benchmark at ~0.4x serial speed.  Clamping ``min(workers,
    cores)`` keeps an oversubscribed request no worse than a full-width
    pool (degrading toward serial, never below it); ``workers=0`` (serial)
    is preserved, and results are byte-identical either way.  Shared by
    :meth:`SweepRunner.run` and :class:`repro.store.PersistentPool`.
    """
    if workers <= 0:
        return workers
    return min(workers, os.cpu_count() or 1)


@dataclass(frozen=True)
class SweepPoint:
    """One configuration in a sweep grid.

    Attributes:
        model: DNN trained at this point.
        loader: One of :data:`~repro.sim.single_server.LOADER_KINDS` for
            single-server training points, one of :data:`HP_SEARCH_KINDS`
            for HP-search scenario points, or one of
            :data:`DISTRIBUTED_KINDS` for multi-server points.
        dataset: Catalog name of the dataset; ``None`` uses the model's
            ``default_dataset`` (the Fig. 6/9 per-model convention).
        cache_fraction: Cache budget as a fraction of the dataset's bytes
            (may exceed 1.0 for fully-cached configurations); mutually
            exclusive with ``cache_bytes``.  ``None`` keeps the server's
            default budget.  For distributed points this is the *per-server*
            budget (Fig. 9b's convention).
        cache_bytes: Absolute cache budget override.
        cores: Physical prep cores for the job (``None``: all).
        num_gpus: GPUs used by the job (``None``: all on the server).
        batch_size: Explicit per-iteration batch size (``None``: derived
            from the model, clamped for scaled datasets).
        gpu_prep: Force GPU prep on/off (``None``: faster variant; treated
            as off for distributed points, matching Fig. 9b).
        num_epochs: Epochs to simulate (first is the cold-cache warm-up).
        num_jobs / gpus_per_job: HP-search points only (``num_jobs`` is
            also the crash kind's job count and the per-tenant job count
            of ``hp-multitenant``).
        num_servers: Distributed and elastic/straggler points only
            (homogeneous servers; the *initial* membership for
            ``coordl-elastic``).
        crash_schedule: ``coordl-crash`` only — ``(epoch, job)`` pairs;
            normalised to sorted order, so any permutation is the same
            point (and the same store key).
        membership_schedule: ``coordl-elastic`` only — ``(epoch, count)``
            pairs applied at the start of that epoch; sorted, epochs
            distinct.
        straggler_factors: ``coordl-straggler`` only — positional
            per-server fetch slowdowns (padded with 1.0).
        tenants: ``hp-multitenant`` only — campaigns of ``num_jobs`` jobs
            each sharing the server.
        label: Free-form tag carried through to the record.
    """

    model: ModelSpec
    loader: str = "coordl"
    dataset: Optional[str] = None
    cache_fraction: Optional[float] = None
    cache_bytes: Optional[float] = None
    cores: Optional[float] = None
    num_gpus: Optional[int] = None
    batch_size: Optional[int] = None
    gpu_prep: Optional[bool] = None
    num_epochs: int = 2
    num_jobs: int = 8
    gpus_per_job: int = 1
    num_servers: int = 2
    crash_schedule: Tuple[Tuple[int, int], ...] = ()
    membership_schedule: Tuple[Tuple[int, int], ...] = ()
    straggler_factors: Tuple[float, ...] = ()
    tenants: int = 2
    label: str = ""

    def __post_init__(self) -> None:
        # Normalise the schedule fields first (the serve wire format hands
        # them back as JSON lists; order canonicalisation makes a permuted
        # crash schedule the *same* point — same snapshot, same store key).
        object.__setattr__(self, "crash_schedule", tuple(sorted(
            (int(e), int(j)) for e, j in self.crash_schedule)))
        object.__setattr__(self, "membership_schedule", tuple(sorted(
            (int(e), int(n)) for e, n in self.membership_schedule)))
        object.__setattr__(self, "straggler_factors", tuple(
            float(f) for f in self.straggler_factors))
        known = (LOADER_KINDS + HP_SEARCH_KINDS + DISTRIBUTED_KINDS
                 + FAILURE_KINDS)
        if self.loader not in known:
            raise ConfigurationError(
                f"unknown sweep loader {self.loader!r}; expected one of {known}")
        if self.cache_fraction is not None and self.cache_bytes is not None:
            raise ConfigurationError(
                "give cache_fraction or cache_bytes, not both")
        if not self.is_hp_search and self.num_epochs < 2:
            raise ConfigurationError(
                "need at least two epochs (warm-up + one measured epoch)")
        if self.is_distributed and self.num_servers < 2:
            raise ConfigurationError(
                "distributed sweep points need at least two servers")
        # Fields that a point kind does not plumb through are rejected rather
        # than silently ignored: a plausible-looking result simulated without
        # the requested knob is worse than an error.
        scenario_fields = (("num_jobs", self.num_jobs, 8),
                           ("gpus_per_job", self.gpus_per_job, 1),
                           ("num_servers", self.num_servers, 2),
                           ("crash_schedule", self.crash_schedule, ()),
                           ("membership_schedule", self.membership_schedule, ()),
                           ("straggler_factors", self.straggler_factors, ()),
                           ("tenants", self.tenants, 2))
        if self.is_failure:
            inapplicable = [("batch_size", self.batch_size),
                            ("cores", self.cores),
                            ("num_gpus", self.num_gpus),
                            ("gpu_prep", self.gpu_prep)]
            bad = [name for name, value in inapplicable if value is not None]
            if bad:
                raise ConfigurationError(
                    f"{self.loader!r} sweep points do not support {bad} "
                    "(training-point-only fields)")
            allowed = _FAILURE_FIELDS[self.loader]
            bad = [name for name, value, default in scenario_fields
                   if value != default and name not in allowed]
            if bad:
                raise ConfigurationError(
                    f"{self.loader!r} sweep points do not support {bad} "
                    "(fields of another scenario kind)")
            self._validate_failure_point()
        elif self.is_hp_search or self.is_distributed:
            inapplicable = [("batch_size", self.batch_size),
                            ("cores", self.cores),
                            ("num_gpus", self.num_gpus)]
            if self.is_hp_search:
                inapplicable.append(("gpu_prep", self.gpu_prep))
            bad = [name for name, value in inapplicable if value is not None]
            if bad:
                raise ConfigurationError(
                    f"{self.loader!r} sweep points do not support {bad} "
                    "(training-point-only fields)")
            failure_only = ("crash_schedule", "membership_schedule",
                            "straggler_factors", "tenants")
            bad = [name for name, value, default in scenario_fields
                   if value != default and name in failure_only]
            if bad:
                raise ConfigurationError(
                    f"{self.loader!r} sweep points do not support {bad} "
                    "(failure-point-only fields)")
        else:
            bad = [name for name, value, default in scenario_fields
                   if value != default]
            if bad:
                raise ConfigurationError(
                    f"training sweep points do not support {bad} "
                    "(scenario-point-only fields)")

    def _validate_failure_point(self) -> None:
        """Range/shape checks of the failure kinds' schedule fields."""
        if self.loader == "coordl-crash":
            jobs = [job for _, job in self.crash_schedule]
            for epoch, job in self.crash_schedule:
                if not 0 <= epoch < self.num_epochs:
                    raise ConfigurationError(
                        f"crash epoch {epoch} outside [0, {self.num_epochs})")
                if not 0 <= job < self.num_jobs:
                    raise ConfigurationError(
                        f"crashed job {job} outside [0, {self.num_jobs})")
            if len(set(jobs)) != len(jobs):
                raise ConfigurationError(
                    "a job can crash at most once (dead jobs stay dead)")
            if len(jobs) >= self.num_jobs:
                raise ConfigurationError(
                    "crash schedule must leave at least one surviving job")
        elif self.loader == "coordl-elastic":
            if self.num_servers < 2:
                raise ConfigurationError(
                    "elastic sweep points need at least two initial servers")
            epochs = [epoch for epoch, _ in self.membership_schedule]
            for epoch, count in self.membership_schedule:
                if not 1 <= epoch < self.num_epochs:
                    raise ConfigurationError(
                        f"membership change at epoch {epoch} outside "
                        f"[1, {self.num_epochs}) (epoch 0 is the initial "
                        "membership)")
                if count < 1:
                    raise ConfigurationError(
                        "membership cannot drop below one server")
            if len(set(epochs)) != len(epochs):
                raise ConfigurationError(
                    "at most one membership change per epoch")
        elif self.loader == "coordl-straggler":
            if self.num_servers < 2:
                raise ConfigurationError(
                    "straggler sweep points need at least two servers")
            if len(self.straggler_factors) > self.num_servers:
                raise ConfigurationError(
                    f"{len(self.straggler_factors)} straggler factors for "
                    f"{self.num_servers} servers")
            for factor in self.straggler_factors:
                if not (factor > 0 and math.isfinite(factor)):
                    raise ConfigurationError(
                        "straggler factors must be positive and finite")
        elif self.tenants < 1:
            raise ConfigurationError("need at least one tenant")

    @property
    def is_hp_search(self) -> bool:
        """Whether this point runs through the HP-search scenario."""
        return self.loader in HP_SEARCH_KINDS

    @property
    def is_distributed(self) -> bool:
        """Whether this point runs through the distributed scenario."""
        return self.loader in DISTRIBUTED_KINDS

    @property
    def is_failure(self) -> bool:
        """Whether this point runs through the failure/elasticity scenario."""
        return self.loader in FAILURE_KINDS

    def describe(self) -> str:
        """The point's label, or a synthesised short description.

        Used in error messages (:class:`~repro.exceptions.SweepPointError`)
        so a failing point can be located in its grid.
        """
        if self.label:
            return self.label
        parts = [self.model.name, self.loader]
        if self.dataset is not None:
            parts.append(self.dataset)
        if self.cache_fraction is not None:
            parts.append(f"cache={self.cache_fraction:g}")
        if self.cache_bytes is not None:
            parts.append(f"cache_bytes={self.cache_bytes:g}")
        if self.cores is not None:
            parts.append(f"cores={self.cores:g}")
        if self.batch_size is not None:
            parts.append(f"batch={self.batch_size}")
        return "/".join(parts)


def _hex(value: float) -> str:
    """Lossless, byte-exact float representation for snapshots."""
    return float(value).hex()


def _canonical(value: Any) -> Any:
    """JSON-stable value for store-key specs (floats byte-exact).

    Tuples (the schedule fields of the failure kinds) render as lists —
    the JSON form — element-recursively, so a point's canonical identity
    is independent of the tuple/list distinction the wire format erases.
    """
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    # bool before float: isinstance(True, int) but bools are JSON-stable.
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return _hex(value)


def _jsonable(value: Any) -> Any:
    """Tuple-free rendering of a point field for snapshots (JSON round-trip
    stable: what comes back from ``json.loads`` compares equal)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _io_snapshot(io: IOStats, include_timeline: bool = False) -> Dict[str, Any]:
    """Canonical byte-exact form of one epoch's I/O counters.

    The (possibly long) per-read disk timeline is folded into a digest of
    its ``"<t hex>:<bytes hex>;"`` rendering: two timelines agree on the
    digest iff they agree sample for sample on the exact float bits, which
    keeps golden files small without weakening the byte-identical
    guarantee; the digest form cannot be inverted.  ``include_timeline``
    replaces the digest with the timeline itself — the self-contained
    variant the result store and both wire protocols carry, so a record
    can be rehydrated losslessly (:meth:`SweepRecord.from_snapshot`).  It
    is base64 of the little-endian float64 columns, all times then all
    cumulative bytes: exact bits, and no per-sample work on either side.
    """
    times, cumulative = io.timeline_columns
    data: Dict[str, Any] = {
        "disk_bytes": _hex(io.disk_bytes),
        "disk_requests": io.disk_requests,
        "cache_bytes": _hex(io.cache_bytes),
        "cache_requests": io.cache_requests,
        "remote_bytes": _hex(io.remote_bytes),
        "remote_requests": io.remote_requests,
        "timeline_len": int(times.size),
    }
    if include_timeline:
        columns = np.concatenate((times, cumulative)).astype("<f8", copy=False)
        data["timeline"] = base64.b64encode(columns.tobytes()).decode("ascii")
    else:
        # One update over the whole rendering hashes the same stream as
        # one update per sample.
        rendered = "".join(f"{t.hex()}:{b.hex()};" for t, b
                           in zip(times.tolist(), cumulative.tolist()))
        data["timeline_digest"] = hashlib.blake2b(
            rendered.encode("ascii"), digest_size=16).hexdigest()
    return data


def _io_from_snapshot(data: Dict[str, Any]) -> IOStats:
    """Inverse of :func:`_io_snapshot` (requires the embedded timeline).

    Raises:
        ConfigurationError: The snapshot is digest-only with a non-empty
            timeline, or its timeline does not hold exactly
            ``timeline_len`` samples.
    """
    count = int(data["timeline_len"])
    if count and "timeline" not in data:
        raise ConfigurationError(
            "I/O snapshot carries only the timeline digest; rehydration needs "
            "the full-timeline form (snapshot(include_timeline=True))")
    raw = base64.b64decode(data.get("timeline", ""), validate=True)
    if len(raw) != 16 * count:
        raise ConfigurationError(
            f"I/O snapshot timeline holds {len(raw)} bytes, but "
            f"timeline_len {count} needs {16 * count}")
    io = IOStats(
        disk_bytes=float.fromhex(data["disk_bytes"]),
        disk_requests=int(data["disk_requests"]),
        cache_bytes=float.fromhex(data["cache_bytes"]),
        cache_requests=int(data["cache_requests"]),
        remote_bytes=float.fromhex(data["remote_bytes"]),
        remote_requests=int(data["remote_requests"]),
    )
    columns = np.frombuffer(raw, dtype="<f8")
    io.timeline_columns = (columns[:count], columns[count:])
    return io


def _epoch_snapshot(stats: EpochStats,
                    include_timeline: bool = False) -> Dict[str, Any]:
    """Canonical byte-exact form of one :class:`EpochStats`."""
    return {
        "epoch_time_s": _hex(stats.epoch_time_s),
        "gpu_time_s": _hex(stats.gpu_time_s),
        "prep_limited_time_s": _hex(stats.prep_limited_time_s),
        "samples": stats.samples,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "io": _io_snapshot(stats.io, include_timeline),
    }


def _epoch_from_snapshot(data: Dict[str, Any]) -> EpochStats:
    """Inverse of :func:`_epoch_snapshot`."""
    return EpochStats(
        epoch_time_s=float.fromhex(data["epoch_time_s"]),
        gpu_time_s=float.fromhex(data["gpu_time_s"]),
        prep_limited_time_s=float.fromhex(data["prep_limited_time_s"]),
        samples=int(data["samples"]),
        io=_io_from_snapshot(data["io"]),
        cache_hits=int(data["cache_hits"]),
        cache_misses=int(data["cache_misses"]),
    )


@dataclass
class SweepRecord:
    """Outcome of one sweep point.

    Training points carry the full multi-epoch ``run``; HP-search points
    carry the scenario's steady-state ``hp`` result; distributed points
    carry the multi-epoch, multi-server ``dist`` result; failure points
    carry the multi-epoch ``failure`` result with its event trace.
    """

    point: SweepPoint
    dataset_name: str
    loader_name: str
    run: Optional[TrainingRunStats] = None
    hp: Optional[HPSearchResult] = None
    dist: Optional[DistributedResult] = None
    failure: Optional[FailureScenarioResult] = None

    @property
    def steady(self) -> EpochStats:
        """Representative steady-state epoch (training points)."""
        if self.run is None:
            raise ConfigurationError(
                f"sweep point {self.point.loader!r} has no epoch run "
                "(HP-search points expose .hp, distributed points .dist)")
        return self.run.steady_epoch()

    @property
    def dist_steady(self) -> DistributedEpoch:
        """Representative steady-state job epoch (distributed points)."""
        if self.dist is None:
            raise ConfigurationError(
                f"sweep point {self.point.loader!r} has no distributed run")
        return self.dist.steady_epochs()[-1]

    def row(self) -> Dict[str, Any]:
        """Tidy-table row: the point's configuration plus key metrics."""
        values: Dict[str, Any] = {
            "model": self.point.model.name,
            "loader": self.point.loader,
            "loader_name": self.loader_name,
            "dataset": self.dataset_name,
            "cache_fraction": self.point.cache_fraction,
            "cores": self.point.cores,
            "batch_size": self.point.batch_size,
            "label": self.point.label,
        }
        if self.hp is not None:
            values.update(
                epoch_time_s=self.hp.epoch_time_s,
                throughput=self.hp.per_job_throughput,
                disk_bytes=self.hp.disk_bytes_per_epoch,
                cache_miss_ratio=self.hp.cache_miss_ratio,
            )
        elif self.failure is not None:
            steady = self.failure.steady_epoch_time_s
            values.update(
                epoch_time_s=steady,
                throughput=(self.failure.samples_per_epoch / steady
                            if steady else 0.0),
                disk_bytes=self.failure.total_disk_bytes,
                rewarm_bytes=self.failure.total_rewarm_bytes,
                events=len(self.failure.events),
            )
        elif self.dist is not None:
            steady = self.dist_steady
            values.update(
                epoch_time_s=steady.epoch_time_s,
                throughput=steady.throughput,
                disk_bytes=steady.total_disk_bytes,
                remote_bytes=steady.total_remote_bytes,
            )
        else:
            steady = self.steady
            values.update(
                epoch_time_s=steady.epoch_time_s,
                throughput=steady.throughput,
                fetch_stall_s=steady.fetch_stall_s,
                prep_stall_s=steady.prep_stall_s,
                disk_bytes=steady.io.disk_bytes,
                cache_miss_ratio=steady.cache_miss_ratio,
            )
        return values

    def snapshot(self, include_timeline: bool = False) -> Dict[str, Any]:
        """Canonical, byte-exact, JSON-serialisable form of this record.

        Floats are rendered with :meth:`float.hex` (lossless), so two
        snapshots compare equal **iff** the underlying results are
        bit-identical.  This is what the golden regression tests and the
        serial-vs-parallel determinism tests diff.

        With ``include_timeline`` each per-read disk timeline is embedded
        whole (base64 float64 columns) instead of as a digest, which makes
        the snapshot fully invertible — :meth:`from_snapshot` rehydrates a
        bit-identical record from it.  The result store and both wire
        protocols carry this form; the committed goldens keep the compact
        digest-only default.
        """
        point = {
            f.name: (self.point.model.name if f.name == "model"
                     else _jsonable(getattr(self.point, f.name)))
            for f in fields(SweepPoint)
        }
        data: Dict[str, Any] = {
            "point": point,
            "dataset": self.dataset_name,
            "loader_name": self.loader_name,
        }
        if self.run is not None:
            data["epochs"] = [_epoch_snapshot(e, include_timeline)
                              for e in self.run.epochs]
        if self.hp is not None:
            data["hp"] = {
                "loader_name": self.hp.loader_name,
                "num_jobs": self.hp.num_jobs,
                "gpus_per_job": self.hp.gpus_per_job,
                "epoch_time_s": _hex(self.hp.epoch_time_s),
                "per_job_throughput": _hex(self.hp.per_job_throughput),
                "disk_bytes_per_epoch": _hex(self.hp.disk_bytes_per_epoch),
                "cache_miss_ratio": _hex(self.hp.cache_miss_ratio),
                "prep_bound": self.hp.prep_bound,
                "fetch_bound": self.hp.fetch_bound,
                "gpu_bound": self.hp.gpu_bound,
                "staging_peak_bytes": _hex(self.hp.staging_peak_bytes),
            }
        if self.dist is not None:
            data["dist"] = [
                [_epoch_snapshot(server, include_timeline)
                 for server in epoch.per_server]
                for epoch in self.dist.epochs
            ]
        if self.failure is not None:
            data["failure"] = {
                "loader_name": self.failure.loader_name,
                "samples_per_epoch": self.failure.samples_per_epoch,
                "epochs": [{
                    "epoch_time_s": _hex(e.epoch_time_s),
                    "disk_bytes": _hex(e.disk_bytes),
                    "remote_bytes": _hex(e.remote_bytes),
                    "rewarm_bytes": _hex(e.rewarm_bytes),
                    "stall_s": _hex(e.stall_s),
                    "cache_miss_ratio": _hex(e.cache_miss_ratio),
                    "active": e.active,
                } for e in self.failure.epochs],
                "events": [{
                    "kind": ev.kind,
                    "failed_job": ev.failed_job,
                    "detected_at": _hex(ev.detected_at),
                    "reassigned_to": ev.reassigned_to,
                    "missing_batch_id": ev.missing_batch_id,
                } for ev in self.failure.events],
            }
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, Any]) -> "SweepRecord":
        """Rehydrate a record from :meth:`snapshot(include_timeline=True)`.

        The inverse is exact: floats come back bit for bit from their hex
        form, the model is resolved by name from the zoo, and each disk
        timeline is installed from its embedded float64 columns (a wrong
        sample count raises :class:`~repro.exceptions.ConfigurationError`)
        — so
        ``SweepRecord.from_snapshot(r.snapshot(include_timeline=True))``
        snapshots byte-identically to ``r``.  A digest-only snapshot with a
        non-empty timeline cannot be inverted and raises
        :class:`~repro.exceptions.ConfigurationError` (the store never
        writes that form).

        The model resolves through the zoo by name, so records simulated
        under a *custom* :class:`ModelSpec` rehydrate to the zoo spec (or
        fail for non-zoo names); the store's point guard rejects both
        cases as misses — custom-model sweeps stay correct but never warm.
        (They can never be *served wrongly* either: the content address
        covers every ``ModelSpec`` field, not just the name.)
        """
        point_data = dict(data["point"])
        model = get_model(point_data.pop("model"))
        point = SweepPoint(model=model, **point_data)
        record = cls(point=point, dataset_name=data["dataset"],
                     loader_name=data["loader_name"])
        if "epochs" in data:
            run = TrainingRunStats()
            for epoch in data["epochs"]:
                run.add(_epoch_from_snapshot(epoch))
            record.run = run
        if "hp" in data:
            hp = data["hp"]
            record.hp = HPSearchResult(
                loader_name=hp["loader_name"],
                num_jobs=int(hp["num_jobs"]),
                gpus_per_job=int(hp["gpus_per_job"]),
                epoch_time_s=float.fromhex(hp["epoch_time_s"]),
                per_job_throughput=float.fromhex(hp["per_job_throughput"]),
                disk_bytes_per_epoch=float.fromhex(hp["disk_bytes_per_epoch"]),
                cache_miss_ratio=float.fromhex(hp["cache_miss_ratio"]),
                prep_bound=bool(hp["prep_bound"]),
                fetch_bound=bool(hp["fetch_bound"]),
                gpu_bound=bool(hp["gpu_bound"]),
                staging_peak_bytes=float.fromhex(hp["staging_peak_bytes"]),
            )
        if "dist" in data:
            record.dist = DistributedResult(
                loader_name=data["loader_name"],
                epochs=[DistributedEpoch(per_server=[
                    _epoch_from_snapshot(server) for server in epoch])
                    for epoch in data["dist"]],
            )
        if "failure" in data:
            failure = data["failure"]
            record.failure = FailureScenarioResult(
                loader_name=failure["loader_name"],
                samples_per_epoch=int(failure["samples_per_epoch"]),
                epochs=[FailureEpoch(
                    epoch_time_s=float.fromhex(e["epoch_time_s"]),
                    disk_bytes=float.fromhex(e["disk_bytes"]),
                    remote_bytes=float.fromhex(e["remote_bytes"]),
                    rewarm_bytes=float.fromhex(e["rewarm_bytes"]),
                    stall_s=float.fromhex(e["stall_s"]),
                    cache_miss_ratio=float.fromhex(e["cache_miss_ratio"]),
                    active=int(e["active"]),
                ) for e in failure["epochs"]],
                events=[FailureEvent(
                    kind=ev["kind"],
                    failed_job=int(ev["failed_job"]),
                    detected_at=float.fromhex(ev["detected_at"]),
                    reassigned_to=int(ev["reassigned_to"]),
                    missing_batch_id=int(ev["missing_batch_id"]),
                ) for ev in failure["events"]],
            )
        return record


class SweepResult:
    """Tidy collection of sweep records with config-based selection."""

    def __init__(self, records: Sequence[SweepRecord]) -> None:
        self._records = list(records)

    def __iter__(self) -> Iterator[SweepRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[SweepRecord]:
        """All records, in sweep order."""
        return list(self._records)

    def filter(self, **attrs: Any) -> "SweepResult":
        """Records whose :class:`SweepPoint` matches every given attribute."""
        point_fields = {f.name for f in fields(SweepPoint)}
        unknown = set(attrs) - point_fields
        if unknown:
            raise ConfigurationError(f"unknown sweep-point fields {sorted(unknown)}")
        kept = [r for r in self._records
                if all(getattr(r.point, k) == v for k, v in attrs.items())]
        return SweepResult(kept)

    def one(self, **attrs: Any) -> SweepRecord:
        """The unique record matching the given point attributes."""
        matches = self.filter(**attrs)
        if len(matches) != 1:
            raise ConfigurationError(
                f"expected exactly one record for {attrs}, found {len(matches)}")
        return matches.records[0]

    def rows(self) -> List[Dict[str, Any]]:
        """One tidy dict per record (config columns + key metrics)."""
        return [record.row() for record in self._records]

    def snapshot(self) -> Dict[str, Any]:
        """Byte-exact canonical form of the whole sweep, in sweep order.

        See :meth:`SweepRecord.snapshot`; equal snapshots mean bit-identical
        results, which is the contract the parallel executor is tested
        against (serial ≡ ``workers=N`` for every N).
        """
        return {"records": [record.snapshot() for record in self._records]}


class SweepRunner:
    """Run a grid of simulation configurations with shared substrates.

    Args:
        server_factory: Callable building the server model, accepting a
            ``cache_bytes`` keyword (e.g.
            :func:`repro.cluster.configs.config_ssd_v100`).  Must be
            picklable (a module-level function) for ``workers > 0``.
        scale: Dataset scale applied to every point (experiments pass their
            usual ``SWEEP_SCALE``/``DEFAULT_SCALE``).
        seed: Root seed.  Dataset materialisation uses it directly (every
            point of a sweep must see the *same* dataset bytes, or cache
            fractions would not be comparable); sampling/scenario seeds are
            derived from it per point via :meth:`point_seed`.
        queue_depth: Prefetch queue depth of the simulated pipeline.
        fast_path: Allow the vectorised epoch collection (disable to force
            the per-batch reference path, e.g. for benchmarking it).
        dataset_cache / sampler_cache: Optional externally-owned memo dicts
            for the shared substrates.  Datasets key by ``(name, seed,
            scale)`` and samplers by ``(dataset size, sampling seed)``, so
            one process-wide dict can be shared safely across runners —
            which is how :class:`repro.store.PersistentPool` workers avoid
            rematerialising datasets across successive ``run()`` calls and
            runner configurations.  ``None`` keeps a private per-runner
            cache (the default, and the previous behaviour).

    Besides those two memos every runner owns a
    :class:`~repro.cache.page_cache.ReplayMemo`, active only while
    :meth:`_run_point` runs a point.  Points whose page caches replay an
    identical segmented-LRU trajectory — HP-search grids over models
    with one batch size, loader sweeps that differ only in the model —
    then replay it once per runner.  The memo lives as long as the
    runner: one experiment in a report, one request batch in serve, one
    runner spec for a pool worker's or dist agent's whole life.  It is
    bounded by :data:`~repro.cache.page_cache.REPLAY_MEMO_BUDGET_BYTES`
    and thread-safe, since agents share a runner across connections.
    """

    def __init__(self, server_factory: Callable[..., ServerConfig], *,
                 scale: float = 1.0, seed: int = 0, queue_depth: int = 4,
                 fast_path: bool = True,
                 dataset_cache: Optional[Dict[Tuple[str, int, float],
                                              SyntheticDataset]] = None,
                 sampler_cache: Optional[Dict[Tuple[int, int],
                                              Sampler]] = None) -> None:
        self._server_factory = server_factory
        self._scale = scale
        self._seed = seed
        self._queue_depth = queue_depth
        self._fast_path = fast_path
        self._datasets = {} if dataset_cache is None else dataset_cache
        self._samplers = {} if sampler_cache is None else sampler_cache
        self._replays = ReplayMemo()

    @staticmethod
    def grid(models: Sequence[ModelSpec], loaders: Sequence[str],
             cache_fractions: Sequence[Optional[float]] = (None,),
             cores: Sequence[Optional[float]] = (None,),
             batch_sizes: Sequence[Optional[int]] = (None,),
             **common: Any) -> List[SweepPoint]:
        """Cross-product grid of sweep points.

        ``common`` keyword arguments (``dataset``, ``num_epochs``,
        ``gpu_prep``, ...) are applied to every point.
        """
        return [
            SweepPoint(model=model, loader=loader, cache_fraction=fraction,
                       cores=core, batch_size=batch, **common)
            for model, loader, fraction, core, batch in itertools.product(
                models, loaders, cache_fractions, cores, batch_sizes)
        ]

    # -- shared substrate construction --------------------------------------

    def dataset(self, name: str) -> SyntheticDataset:
        """Materialise (once) the scaled dataset of the given catalog name.

        Keyed by ``(name, seed, scale)`` so the memo dict stays correct
        when shared across runners (see ``dataset_cache``); for a private
        cache the seed/scale components are constant and the behaviour is
        the old per-name memoisation.
        """
        key = (name, self._seed, self._scale)
        cached = self._datasets.get(key)
        if cached is None:
            cached = SyntheticDataset(get_dataset_spec(name), seed=self._seed,
                                      scale=self._scale)
            self._datasets[key] = cached
        return cached

    def point_seed(self, point: SweepPoint) -> int:
        """Stable sampling seed for one point, derived from the point spec.

        A BLAKE2 hash of the runner seed and the point's *resolved dataset*
        — the only field that defines which stochastic item stream the
        point samples.  Two properties matter:

        * the derivation is a pure function of the point spec, independent
          of the point's grid position, of which process simulates it and
          of the worker count — which is what lets a spawned worker rebuild
          the exact sampling a serial run would use, byte for byte;
        * configuration knobs (``loader``, cache budget, cores, ...) and
          ``label`` deliberately do **not** participate, so every point of
          a sweep that walks the same dataset sees the *same* per-epoch
          permutations: the paired comparisons the experiments report
          (DALI vs CoorDL at one cache size, baseline vs coordinated) stay
          free of unpaired sampling noise, exactly as in a serial sweep
          sharing one memoised sampler.
        """
        key = (self._seed, point.dataset or point.model.default_dataset)
        digest = hashlib.blake2b(repr(key).encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def _shared_sampler(self, dataset: SyntheticDataset,
                        seed: Optional[int] = None) -> Sampler:
        """One memoised random sampler per (dataset size, seed) pair.

        Points of a grid that hash to the same :meth:`point_seed` (and any
        caller using the runner-seed default) share the memoised per-epoch
        permutations instead of redrawing them.
        """
        if seed is None:
            seed = self._seed
        sampler = self._samplers.get((len(dataset), seed))
        if sampler is None:
            sampler = CachingSampler(RandomSampler(len(dataset), seed=seed))
            self._samplers[(len(dataset), seed)] = sampler
        return sampler

    def _resolve(self, point: SweepPoint) -> tuple:
        dataset = self.dataset(point.dataset or point.model.default_dataset)
        cache_bytes = point.cache_bytes
        if point.cache_fraction is not None:
            cache_bytes = dataset.total_bytes * point.cache_fraction
        if cache_bytes is not None:
            server = self._server_factory(cache_bytes=cache_bytes)
        else:
            server = self._server_factory()
        return dataset, server

    # -- content-addressed identity ------------------------------------------

    def spec(self) -> tuple:
        """Picklable runner configuration (enough to rebuild this runner).

        :class:`repro.store.PersistentPool` workers and
        :mod:`repro.dist` agents reconstruct an equivalent runner from
        exactly this tuple, so anything that can change a simulated bit
        must be in it.
        """
        return (self._server_factory, self._scale, self._seed,
                self._queue_depth, self._fast_path)

    def point_spec(self, point: SweepPoint) -> Dict[str, Any]:
        """Canonical, JSON-stable identity of one (runner, point) pairing.

        This is what the result store hashes into a content address
        (:func:`repro.store.store_key`).  It extends :meth:`point_seed`'s
        canonicalisation discipline — a pure function of configuration,
        independent of grid position, scheduling and worker count — to
        *every* input that can move a simulated bit:

        * the runner spec (server factory by qualified name — see
          :meth:`_factory_identity` for why that is safe — plus scale,
          seed, queue depth and the ``fast_path`` toggle),
        * the full point spec: all :class:`SweepPoint` fields, the model
          expanded to *every* :class:`ModelSpec` field — not just its name,
          so a custom spec reusing a zoo name can never share an address
          with the zoo model — and ``label`` (it is part of the record's
          byte-exact snapshot), and
        * result-affecting environment kill-switches — currently the warm
          segmented-LRU kernel toggle.  The kernel is byte-exact either
          way, but a store must never answer a query for one configuration
          with bytes computed under another, so the flag keys the entry.

        Floats are rendered with :meth:`float.hex` so the identity is as
        byte-exact as the snapshots it addresses.  ``REPRO_SWEEP_WORKERS``
        deliberately does **not** participate: worker count is proven not
        to change results (the golden tests), so serial and pooled runs
        share entries.
        """
        point_fields: Dict[str, Any] = {}
        for f in fields(SweepPoint):
            value = getattr(point, f.name)
            if f.name == "model":
                value = {mf.name: _canonical(getattr(point.model, mf.name))
                         for mf in fields(ModelSpec)}
            else:
                value = _canonical(value)
            point_fields[f.name] = value
        return {
            "runner": {
                "server_factory": self._factory_identity(),
                "scale": _hex(self._scale),
                "seed": self._seed,
                "queue_depth": self._queue_depth,
                "fast_path": bool(self._fast_path),
            },
            "point": point_fields,
            "env": {"warm_kernel": warm_kernel_enabled()},
        }

    def _factory_identity(self) -> str:
        """``module:qualname`` of the server factory, proven resolvable.

        Naming the factory is only a sound content address if the name
        uniquely identifies the behaviour — which holds exactly when the
        name resolves back to *this* object (a module-level function, the
        same constraint pickling already imposes for ``workers > 0``).
        Closures, lambdas and ``functools.partial`` objects fail that
        round-trip (two ``make(100)``/``make(500)`` closures would share a
        qualified name and silently cross-serve bytes), so they are
        rejected loudly rather than mis-keyed.  Memoised per runner.
        """
        cached = getattr(self, "_factory_token", None)
        if cached is not None:
            return cached
        factory = self._server_factory
        module = getattr(factory, "__module__", None)
        qualname = getattr(factory, "__qualname__", None)
        resolved: Any = sys.modules.get(module) if module else None
        if qualname is not None and "<locals>" not in qualname:
            for part in qualname.split("."):
                resolved = getattr(resolved, part, None)
        else:
            resolved = None
        if resolved is not factory:
            raise ConfigurationError(
                f"result-store keying needs a module-level server factory "
                f"whose qualified name resolves back to it; got {factory!r} "
                f"(a closure, lambda, partial or shadowed name) — pass "
                f"store=False or lift the factory to module level")
        self._factory_token = f"{module}:{qualname}"
        return self._factory_token

    # -- execution ----------------------------------------------------------

    def run(self, points: Iterable[SweepPoint], workers: Optional[int] = None,
            chunksize: Optional[int] = None, store: "StoreArg" = None,
            pool: Optional["PersistentPool"] = None,
            on_record: Optional[Callable[[int, SweepRecord], None]] = None,
            ) -> SweepResult:
        """Simulate every point and return the tidy result table.

        Args:
            points: Sweep points to simulate; the result keeps their order.
            workers: Worker processes to fan the grid out over.  ``0`` and
                ``1`` (and single-point grids) simulate in-process — a
                one-worker spawn pool would pay the spawn and
                substrate-rebuild cost for no parallelism; ``None`` reads
                the :data:`WORKERS_ENV_VAR` environment variable,
                defaulting to ``0``.  Counts above ``os.cpu_count()`` are
                clamped to it
                (oversubscribing a small machine degrades toward serial
                speed, it never helps).  Results are byte-identical for
                every value.
            chunksize: Points pickled to a worker per task (default: grid
                split into about four chunks per worker).
            store: Content-addressed result store
                (:class:`repro.store.SweepStore`, or a directory path).
                Points whose key is already stored are rehydrated instead
                of simulated; newly simulated points are written back.
                ``None`` reads the :data:`repro.store.STORE_ENV_VAR`
                environment variable (no store when unset); ``False``
                disables the store even when the variable is set.  Results
                are byte-identical with and without a store.
            pool: A :class:`repro.store.PersistentPool` whose workers
                outlive this call, or any other executor with the same
                ``run_points`` surface — :class:`repro.dist.DistExecutor`
                satisfies it to fan the grid out over remote worker
                agents.  Takes precedence over ``workers`` for the points
                that actually need simulating; store hits never touch the
                pool (or the network).
            on_record: Streaming hook called as ``on_record(index, record)``
                once per input point, as its record becomes available —
                immediately for store hits, in completion order for
                simulated points (before this method returns, and before a
                late failure is raised).  This is the coalescing hook the
                serve layer's batcher (:mod:`repro.serve`) uses to resolve
                per-point futures while a shared grid is still draining;
                the callback runs on the caller's thread and must not
                raise.

        Raises:
            SweepPointError: A point failed to simulate.  Every other point
                still runs first; the error then names the lowest failing
                input index, with its label/description in the message and
                the original exception — re-raised from a worker when the
                point ran in one — chained as ``__cause__``.  Failed points
                are never written to the store, but every point that
                finished (before the failure is raised, or before an
                interruption) already is — the retry resumes from them.
        """
        from repro.store import (  # local: repro.store imports us
            resolve_store,
            runner_spec_digest,
            store_key,
        )

        points = list(points)
        workers = self._resolve_workers(workers)
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError("chunksize must be at least 1")
        records: List[Optional[SweepRecord]] = [None] * len(points)
        sweep_store = resolve_store(store)
        if sweep_store is not None:
            try:
                self._factory_identity()
            except ConfigurationError:
                # An *ambient* store (the REPRO_SWEEP_STORE default) must
                # not break runners the store cannot key — closure/lambda
                # factories simulated fine before the store existed, so
                # they simply bypass it.  An explicitly requested store
                # still fails loudly: the caller asked for memoisation the
                # runner cannot soundly get.
                if store is not None:
                    raise
                sweep_store = None
        keys: List[Optional[str]] = [None] * len(points)
        runner_digest = ""
        to_run = list(enumerate(points))
        if sweep_store is not None:
            to_run = []
            for index, point in enumerate(points):
                spec = self.point_spec(point)
                if not runner_digest:
                    # Index metadata: identical for every point of a run.
                    runner_digest = runner_spec_digest(spec["runner"])
                keys[index] = store_key(spec)
                hit = sweep_store.get(keys[index], point)
                if hit is None:
                    to_run.append((index, point))
                else:
                    records[index] = hit
                    if on_record is not None:
                        on_record(index, hit)

        def commit(index: int, record: SweepRecord) -> None:
            # Called as each simulation completes (not after the whole
            # grid), so a failing point or an interrupted run keeps every
            # already-finished point in the store: the retry resumes
            # instead of re-paying the full grid.
            records[index] = record
            if sweep_store is not None:
                sweep_store.put(keys[index], record,
                                runner_digest=runner_digest)
            if on_record is not None:
                on_record(index, record)

        if to_run:
            executor = pool
            one_shot = None
            if executor is None and (workers <= 1 or len(to_run) <= 1):
                # workers<=1 degrades to the serial executor outright: a
                # clamped-to-1 spawn pool still pays the full spawn +
                # substrate-rebuild cost for zero parallelism.
                executor = SERIAL_EXECUTOR
            elif executor is None:
                from repro.store.pool import PersistentPool  # import cycle

                executor = one_shot = PersistentPool(min(workers,
                                                         len(to_run)))
            try:
                executor.run_points(self, to_run, chunksize,
                                    on_record=commit)
            finally:
                if one_shot is not None:
                    one_shot.close(drain=False)
        return SweepResult(records)  # type: ignore[arg-type]  # all slots filled

    def _resolve_workers(self, workers: Optional[int]) -> int:
        if workers is None:
            raw = os.environ.get(WORKERS_ENV_VAR, "").strip()
            try:
                workers = int(raw) if raw else 0
            except ValueError:
                raise ConfigurationError(
                    f"{WORKERS_ENV_VAR}={raw!r} is not an integer") from None
        if workers < 0:
            raise ConfigurationError("workers must be >= 0")
        return clamp_workers(workers)

    def _run_point(self, point: SweepPoint) -> SweepRecord:
        with self._replays.activated():
            if point.is_hp_search:
                return self._run_hp_point(point)
            if point.is_distributed:
                return self._run_distributed_point(point)
            if point.is_failure:
                return self._run_failure_point(point)
            return self._run_training_point(point)

    def _run_training_point(self, point: SweepPoint) -> SweepRecord:
        dataset, server = self._resolve(point)
        seed = self.point_seed(point)
        # dali-seq builds its own shuffle-buffer sampler (the storage-visible
        # order is what matters there); every other kind shares the memoised
        # random permutations of its per-point seed.
        sampler = (None if point.loader == "dali-seq"
                   else self._shared_sampler(dataset, seed))
        loader = build_loader(point.loader, dataset, server, point.model,
                              num_gpus=point.num_gpus, cores=point.cores,
                              gpu_prep=point.gpu_prep, seed=seed,
                              batch_size=point.batch_size, sampler=sampler)
        simulator = PipelineSimulator(point.model, server.gpu,
                                      queue_depth=self._queue_depth,
                                      fast_path=self._fast_path)
        run = TrainingRunStats()
        for stats in simulator.run_epochs(loader, point.num_epochs):
            run.add(stats)
        return SweepRecord(point=point, dataset_name=dataset.spec.name,
                           loader_name=loader.name, run=run)

    def _run_hp_point(self, point: SweepPoint) -> SweepRecord:
        dataset, server = self._resolve(point)
        scenario = HPSearchScenario(point.model, dataset, server,
                                    num_jobs=point.num_jobs,
                                    gpus_per_job=point.gpus_per_job,
                                    seed=self.point_seed(point),
                                    fast_path=self._fast_path)
        if point.loader == "hp-baseline":
            hp = scenario.run_baseline()
        else:
            hp = scenario.run_coordl()
        return SweepRecord(point=point, dataset_name=dataset.spec.name,
                           loader_name=hp.loader_name, hp=hp)

    def _run_distributed_point(self, point: SweepPoint) -> SweepRecord:
        dataset, server = self._resolve(point)
        # Homogeneous servers, as in the paper's distributed experiments.
        servers = [server for _ in range(point.num_servers)]
        training = DistributedTraining(point.model, dataset, servers,
                                       num_epochs=point.num_epochs,
                                       queue_depth=self._queue_depth,
                                       fast_path=self._fast_path)
        # Per-rank DistributedSampler shards (and the shard assignment of the
        # partitioned cache group) must derive from the point's stable seed
        # so repeated sweeps are reproducible and ranks agree on each epoch's
        # permutation (drawing disjoint slices of it, never identical ones).
        seed = self.point_seed(point)
        if point.loader == "dist-baseline":
            dist = training.run_baseline(gpu_prep=bool(point.gpu_prep),
                                         seed=seed)
        else:
            dist = training.run_coordl(gpu_prep=bool(point.gpu_prep),
                                       seed=seed)
        return SweepRecord(point=point, dataset_name=dataset.spec.name,
                           loader_name=dist.loader_name, dist=dist)

    def _run_failure_point(self, point: SweepPoint) -> SweepRecord:
        dataset, server = self._resolve(point)
        # The scenario seed doubles as the FailureDetector's replacement-
        # picking seed, so crash traces are a pure function of the point
        # spec — byte-identical at any worker count.
        scenario = FailureScenario(point.model, dataset, server,
                                   seed=self.point_seed(point),
                                   fast_path=self._fast_path)
        if point.loader == "coordl-crash":
            failure = scenario.run_crash(point.num_jobs, point.crash_schedule,
                                         point.num_epochs)
        elif point.loader == "coordl-elastic":
            failure = scenario.run_elastic(point.num_servers,
                                           point.membership_schedule,
                                           point.num_epochs)
        elif point.loader == "coordl-straggler":
            failure = scenario.run_straggler(point.num_servers,
                                             point.straggler_factors,
                                             point.num_epochs)
        else:
            failure = scenario.run_multitenant(point.tenants, point.num_jobs,
                                               point.num_epochs)
        return SweepRecord(point=point, dataset_name=dataset.spec.name,
                           loader_name=failure.loader_name, failure=failure)


class SerialExecutor:
    """The in-process executor: every point on the calling thread.

    It implements the executor contract every ``SweepRunner.run`` dispatch
    goes through — ``run_points(runner, indexed_points, chunksize=None,
    on_record=None)``: run every point, stream each success through
    ``on_record``, then raise the lowest failing input index as a labelled
    :class:`SweepPointError` (:func:`_raise_lowest_failure`).
    :class:`repro.store.PersistentPool` and
    :class:`repro.dist.DistExecutor` implement the same contract across
    processes and hosts.

    Points run through ``runner._run_point`` looked up on the caller's
    runner, so they share that runner's dataset and sampler memos, and
    the only per-point overhead is the call itself.  ``chunksize`` has no
    meaning in-process and is ignored.  Stateless, hence thread-safe:
    :data:`SERIAL_EXECUTOR` is the one shared instance.
    """

    def run_points(self, runner: SweepRunner,
                   indexed_points: List[Tuple[int, SweepPoint]],
                   chunksize: Optional[int] = None,
                   on_record: Optional[Callable[[int, SweepRecord], None]]
                   = None) -> List[Tuple[int, SweepRecord]]:
        ran: List[Tuple[int, SweepRecord]] = []
        failures: Dict[int, tuple] = {}
        for index, point in indexed_points:
            try:
                record = runner._run_point(point)
            except Exception as exc:
                failures[index] = (exc, None)
                continue
            ran.append((index, record))
            if on_record is not None:
                on_record(index, record)
        if failures:
            _raise_lowest_failure(failures, indexed_points)
        return ran


#: The shared in-process executor (see :class:`SerialExecutor`).
SERIAL_EXECUTOR = SerialExecutor()


def _point_error(point: SweepPoint, original: BaseException,
                 child_traceback: Optional[str] = None) -> SweepPointError:
    """Build the labelled sweep failure raised to the caller."""
    where = "in worker process" if child_traceback else "in process"
    error = SweepPointError(
        f"sweep point [{point.describe()}] failed {where}: "
        f"{type(original).__name__}: {original}")
    error.point_label = point.describe()
    error.child_traceback = child_traceback
    return error


def _raise_lowest_failure(failures: Dict[int, tuple],
                          indexed_points: List[Tuple[int, SweepPoint]]) -> None:
    """Raise the failure of the lowest failing input index.

    Every executor drains all of its points before raising: completion
    order depends on scheduling, so raising on the first failure *seen*
    would name a scheduling-dependent point.  The lowest input index names
    the same point at any worker count and on any host.  ``failures`` maps
    index -> (exception, worker traceback text or ``None``) and rides
    along on the raised error for callers that report every failing point.
    """
    index = min(failures)
    exc, child_traceback = failures[index]
    error = _point_error(dict(indexed_points)[index], exc, child_traceback)
    error.failures = failures
    raise error from exc


def _raise_lost_points(lost: Iterable[int],
                       indexed_points: List[Tuple[int, SweepPoint]],
                       what: str, recovery: str) -> None:
    """Raise the failure of work whose workers or hosts kept dying.

    Names the lowest *input-order* point still unfinished, like
    :func:`_raise_lowest_failure` does for points that raised, so callers
    handle both kinds of failure identically.  ``what`` names the dead
    parts (``"workers"``, ``"hosts"``) and ``recovery`` the recovery
    already spent on them.
    """
    lost = sorted(lost)
    label = dict(indexed_points)[lost[0]].describe() if lost else ""
    where = f" (first lost point: {label})" if label else ""
    error = SweepPointError(
        f"sweep {what} kept dying: {len(lost)} point(s) lost after "
        f"{recovery}{where}")
    error.point_label = label
    raise error
