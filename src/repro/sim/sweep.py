"""Parameter-sweep runner over the pipelined epoch simulator.

Every figure/table reproduction walks a grid of configurations — cache
sizes (Fig. 3), prep cores (Fig. 4), models (Figs. 6/9d), predictor
validation points (Tab. 5).  :class:`SweepRunner` expands such a grid into
:class:`SweepPoint`\\ s, **shares** dataset materialisation and per-epoch
sampler permutations across all points of the same (dataset, seed) pair,
runs every point through the simulator's vectorised epoch paths, and returns
a tidy :class:`SweepResult` the experiment modules reduce into their
:class:`~repro.experiments.base.ExperimentResult` tables.

Every ``loader`` name is a row of :data:`POINT_KINDS`, the point-kind
table (:mod:`repro.sim.kinds`), covering four families: single-server
training, HP search, multi-server distributed training and
failure/elasticity scenarios.  Each scenario module defines its rows —
the kind-specific fields a kind takes, its checks, how to run it, and its
family's record attribute, snapshot codec and ``row()`` metrics — so point
validation, :meth:`SweepRunner._run_point` and the :class:`SweepRecord`
codec each make one table lookup.

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

import hashlib
import itertools
import os
import sys
from dataclasses import dataclass, fields
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator,
                    List, Optional, Sequence, Tuple)

if TYPE_CHECKING:  # repro.store imports this module; annotation-only here
    from repro.store import PersistentPool, StoreArg

from repro.cache.page_cache import ReplayMemo
from repro.cache.warm_kernel import warm_kernel_enabled
from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ModelSpec, get_model
from repro.datasets.catalog import get_dataset_spec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import SamplerMemo
from repro.exceptions import ConfigurationError, SweepPointError
from repro.pipeline.stats import EpochStats, TrainingRunStats
from repro.sim.distributed import (DISTRIBUTED_POINT_KINDS, DistributedEpoch,
                                   DistributedResult)
from repro.sim.failures import FAILURE_POINT_KINDS, FailureScenarioResult
from repro.sim.hp_search import HP_SEARCH_POINT_KINDS, HPSearchResult
from repro.sim.kinds import PointContext, PointFamily, PointKind
from repro.sim.single_server import TRAINING_POINT_KINDS

#: The point-kind table: every ``SweepPoint.loader`` name and its
#: :class:`~repro.sim.kinds.PointKind`, training kinds first, then HP
#: search, distributed and failure kinds.
POINT_KINDS: Dict[str, PointKind] = {
    **TRAINING_POINT_KINDS, **HP_SEARCH_POINT_KINDS,
    **DISTRIBUTED_POINT_KINDS, **FAILURE_POINT_KINDS,
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
        loader: A kind in :data:`POINT_KINDS`: one of
            :data:`~repro.sim.single_server.LOADER_KINDS` for single-server
            training points, or an HP-search, distributed or failure kind.
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
        num_jobs / gpus_per_job: Concurrent jobs and GPUs per job (also
            the crash kind's job count and the per-tenant job count of
            ``hp-multitenant``).
        num_servers: Homogeneous servers (the *initial* membership for
            ``coordl-elastic``).
        crash_schedule: ``(epoch, job)`` pairs; normalised to sorted
            order, so any permutation is the same point (and store key).
        membership_schedule: ``(epoch, count)`` pairs applied at the start
            of that epoch; sorted, epochs distinct.
        straggler_factors: Positional per-server fetch slowdowns (padded
            with 1.0).
        tenants: Campaigns of ``num_jobs`` jobs each sharing the server.
        label: Free-form tag carried through to the record.

    ``cores`` to ``gpu_prep`` and ``num_jobs`` to ``tenants`` are
    kind-specific: a point whose kind does not take one
    (``POINT_KINDS[loader].fields``) must leave it at its default.
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
        kind = POINT_KINDS.get(self.loader)
        if kind is None:
            raise ConfigurationError(
                f"unknown sweep loader {self.loader!r}; expected one of "
                f"{tuple(POINT_KINDS)}")
        if self.cache_fraction is not None and self.cache_bytes is not None:
            raise ConfigurationError(
                "give cache_fraction or cache_bytes, not both")
        # Fields that a point kind does not take are rejected rather than
        # silently ignored: a plausible-looking result simulated without
        # the requested knob is worse than an error.
        bad = [name for name, default in _KIND_FIELDS[self.loader][1]
               if getattr(self, name) != default]
        if bad:
            raise ConfigurationError(
                f"{self.loader!r} sweep points do not support {bad} "
                f"(their kind-specific fields are {list(kind.fields)})")
        kind.check(self)

    def describe(self) -> str:
        """The point's label, or else its model, loader, dataset, cache
        budget and every non-default field its kind takes.

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
        for name, default in _KIND_FIELDS[self.loader][0]:
            value = getattr(self, name)
            if value != default:
                shown = format(value, "g") if isinstance(value, float) else value
                parts.append(f"{name}={shown}")
        return "/".join(parts)


#: ``(name, default)`` of every kind-specific field (one some kind takes),
#: in :class:`SweepPoint` field order.
_SPECIFIC_FIELDS = tuple(
    (f.name, f.default) for f in fields(SweepPoint)
    if any(f.name in kind.fields for kind in POINT_KINDS.values()))

#: Loader -> (kind-specific fields its kind takes, those it does not),
#: precomputed so validating a point costs one lookup per field.
_KIND_FIELDS = {
    loader: (tuple(item for item in _SPECIFIC_FIELDS if item[0] in kind.fields),
             tuple(item for item in _SPECIFIC_FIELDS
                   if item[0] not in kind.fields))
    for loader, kind in POINT_KINDS.items()
}

#: Every :class:`SweepPoint` field name.
_POINT_FIELDS = frozenset(f.name for f in fields(SweepPoint))


def point_to_wire(point: SweepPoint) -> Dict[str, Any]:
    """JSON form of one sweep point (the model by zoo name, tuples as
    lists) that record snapshots, the serve protocol and dist frames carry;
    it compares equal to its own JSON round trip."""
    return {f.name: (point.model.name if f.name == "model"
                     else _jsonable(getattr(point, f.name)))
            for f in fields(SweepPoint)}


def _jsonable(value: Any) -> Any:
    """Tuple-free rendering of a point field for snapshots (JSON round-trip
    stable: what comes back from ``json.loads`` compares equal)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def point_from_wire(data: Dict[str, Any]) -> SweepPoint:
    """Build the point a wire dict describes (inverse of
    :func:`point_to_wire`; unknown fields are rejected, and
    :class:`SweepPoint` validation applies as usual)."""
    if not isinstance(data, dict):
        raise ConfigurationError("each point must be a JSON object")
    values = dict(data)
    try:
        model = get_model(str(values.pop("model")))
    except KeyError:
        raise ConfigurationError("each point needs a 'model' name") from None
    unknown = set(values) - _POINT_FIELDS
    if unknown:
        raise ConfigurationError(
            f"unknown point fields {sorted(unknown)}; known: "
            f"{sorted(_POINT_FIELDS)}")
    return SweepPoint(model=model, **values)


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
    return float(value).hex()


@dataclass
class SweepRecord:
    """Outcome of one sweep point.

    The result sits in the attribute its kind's family names: training
    points carry the full multi-epoch ``run``, HP-search points the
    steady-state ``hp`` result, distributed points the multi-server
    ``dist`` result, and failure points the ``failure`` result with its
    event trace.
    """

    point: SweepPoint
    dataset_name: str
    loader_name: str
    run: Optional[TrainingRunStats] = None
    hp: Optional[HPSearchResult] = None
    dist: Optional[DistributedResult] = None
    failure: Optional[FailureScenarioResult] = None

    @property
    def _family(self) -> PointFamily:
        return POINT_KINDS[self.point.loader].family

    @property
    def steady(self) -> EpochStats:
        """Representative steady-state epoch (training points)."""
        if self.run is None:
            raise ConfigurationError(
                f"sweep point {self.point.loader!r} has no epoch run (its "
                f"result is .{self._family.slot})")
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
        family = self._family
        values.update(family.metrics(getattr(self, family.slot)))
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
        family = self._family
        return {
            "point": point_to_wire(self.point),
            "dataset": self.dataset_name,
            "loader_name": self.loader_name,
            family.key: family.encode(getattr(self, family.slot),
                                      include_timeline),
        }

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
        writes that form), as does a point with unknown fields.

        The model resolves through the zoo by name, so records simulated
        under a *custom* :class:`ModelSpec` rehydrate to the zoo spec (or
        fail for non-zoo names); the store's point guard rejects both
        cases as misses — custom-model sweeps stay correct but never warm.
        (They can never be *served wrongly* either: the content address
        covers every ``ModelSpec`` field, not just the name.)
        """
        point = point_from_wire(data["point"])
        family = POINT_KINDS[point.loader].family
        return cls(point=point, dataset_name=data["dataset"],
                   loader_name=data["loader_name"],
                   **{family.slot: family.decode(data[family.key],
                                                 data["loader_name"])})


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
        unknown = set(attrs) - _POINT_FIELDS
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
        dataset_cache / sampler_cache: Optional externally-owned memos
            for the shared substrates: a dict of datasets keyed by ``(name,
            seed, scale)`` and a :class:`~repro.datasets.sampler.SamplerMemo`
            keyed by ``(dataset size, sampling seed)``.  Both keys name
            everything that defines the contents, so one process-wide memo
            can be shared safely across runners — which is how
            :class:`repro.store.PersistentPool` workers avoid
            rematerialising datasets and permutations across successive
            ``run()`` calls and runner configurations.  ``None`` keeps a
            private per-runner memo (the default).

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
                 dataset_cache: Optional[Dict[Tuple[str, int, float],
                                              SyntheticDataset]] = None,
                 sampler_cache: Optional[SamplerMemo] = None) -> None:
        self._server_factory = server_factory
        self._scale = scale
        self._seed = seed
        self._queue_depth = queue_depth
        self._datasets = {} if dataset_cache is None else dataset_cache
        self._samplers = SamplerMemo() if sampler_cache is None else sampler_cache
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
                self._queue_depth)

    def point_spec(self, point: SweepPoint) -> Dict[str, Any]:
        """Canonical, JSON-stable identity of one (runner, point) pairing.

        This is what the result store hashes into a content address
        (:func:`repro.store.store_key`).  It extends :meth:`point_seed`'s
        canonicalisation discipline — a pure function of configuration,
        independent of grid position, scheduling and worker count — to
        *every* input that can move a simulated bit:

        * the runner spec (server factory by qualified name — see
          :meth:`_factory_identity` for why that is safe — plus scale,
          seed and queue depth),
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
        point_fields = {name: _canonical(value)
                        for name, value in point_to_wire(point).items()}
        point_fields["model"] = {
            mf.name: _canonical(getattr(point.model, mf.name))
            for mf in fields(ModelSpec)}
        return {
            "runner": {
                "server_factory": self._factory_identity(),
                "scale": float(self._scale).hex(),
                "seed": self._seed,
                "queue_depth": self._queue_depth,
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
            store: "StoreArg" = None,
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
                executor.run_points(self, to_run, on_record=commit)
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
        kind = POINT_KINDS[point.loader]
        with self._replays.activated():
            dataset, server = self._resolve(point)
            seed = self.point_seed(point)
            context = PointContext(
                dataset, server, seed, self._queue_depth,
                partial(self._samplers.sampler, len(dataset)))
            loader_name, result = kind.run(point, context)
        return SweepRecord(point=point, dataset_name=dataset.spec.name,
                           loader_name=loader_name,
                           **{kind.family.slot: result})


class SerialExecutor:
    """The in-process executor: every point on the calling thread.

    It implements the executor contract every ``SweepRunner.run`` dispatch
    goes through — ``run_points(runner, indexed_points, on_record=None)``:
    run every point, stream each success through ``on_record``, then raise
    the lowest failing input index as a labelled :class:`SweepPointError`
    (:func:`_raise_lowest_failure`).
    :class:`repro.store.PersistentPool` and
    :class:`repro.dist.DistExecutor` implement the same contract across
    processes and hosts.

    Points run through ``runner._run_point`` looked up on the caller's
    runner, so they share that runner's dataset and sampler memos, and
    the only per-point overhead is the call itself.  Stateless, hence
    thread-safe: :data:`SERIAL_EXECUTOR` is the one shared instance.
    """

    def run_points(self, runner: SweepRunner,
                   indexed_points: List[Tuple[int, SweepPoint]],
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
                       what: str, recovery: str, cause: str = "") -> None:
    """Raise the failure of work whose workers or hosts kept dying.

    Names the lowest *input-order* point still unfinished, like
    :func:`_raise_lowest_failure` does for points that raised, so callers
    handle both kinds of failure identically.  ``what`` names the dead
    parts (``"workers"``, ``"hosts"``), ``recovery`` the recovery already
    spent on them and ``cause``, when given, the likely reason.
    """
    lost = sorted(lost)
    label = dict(indexed_points)[lost[0]].describe() if lost else ""
    where = f" (first lost point: {label})" if label else ""
    error = SweepPointError(
        f"sweep {what} kept dying: {len(lost)} point(s) lost after "
        f"{recovery}{where}{'; ' + cause if cause else ''}")
    error.point_label = label
    raise error
