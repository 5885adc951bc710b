"""Determinism test harness for the parallel sweep executor.

:meth:`~repro.sim.sweep.SweepRunner.run` promises that a grid fanned out
over ``workers=N`` processes is **byte-identical** to the serial run, for
every N and every input ordering.  This module is the shared vocabulary the
golden-regression tests (``tests/test_golden_sweeps.py``), the property
tests (``tests/test_sweep_parallel.py``) and the regeneration tool
(``tools/make_golden.py``) use to state that promise:

* :data:`GOLDEN_GRIDS` — seven small, fast reference grids: a Fig. 3 cache
  sweep (single-server training points), a Fig. 9(b) distributed grid, a
  Tab. 7 HP-search grid, a warm multi-epoch Fig. 3 grid, a
  thrashing-regime Fig. 9(d) grid (the last two drive the segmented-LRU
  warm kernel, and are additionally asserted byte-identical with the
  kernel disabled via :data:`~repro.cache.warm_kernel.WARM_KERNEL_ENV_VAR`),
  and two failure-scenario grids — crash/re-warm plus multi-tenant HP
  (``fig_crash_small``) and elastic membership plus stragglers
  (``fig_elastic_small``) — pinning the deterministic ``FailureEvent``
  traces emitted by :class:`~repro.sim.failures.FailureScenario`;
* :func:`run_golden_grid` — build the grid's runner, run it (optionally
  through the worker pool) and return the byte-exact
  :meth:`~repro.sim.sweep.SweepResult.snapshot`;
* :func:`snapshot_to_json` / :func:`load_golden` — the canonical on-disk
  form committed under ``tests/golden/``.

Snapshots serialise floats with :meth:`float.hex`, so comparing two of
them compares exact bit patterns, not formatted approximations.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.cluster.server import ServerConfig
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.exceptions import ConfigurationError
from repro.sim.sweep import SweepPoint, SweepRunner

#: Dataset scale of the golden grids — small enough that each grid runs in
#: well under a second serially, large enough for dozens of minibatches.
GOLDEN_SCALE = 1.0 / 400.0

#: Seed of the golden grids' runners.
GOLDEN_SEED = 0


@dataclass(frozen=True)
class GoldenGrid:
    """One committed reference grid.

    Attributes:
        name: Stem of the committed snapshot file (``<name>.json``).
        server_factory: Runner's server model.
        points: Builder returning the grid (a fresh list each call, so
            tests may permute it freely).
    """

    name: str
    server_factory: Callable[..., ServerConfig]
    points: Callable[[], List[SweepPoint]]

    def build_runner(self) -> SweepRunner:
        """Fresh runner configured exactly as the committed snapshot was."""
        return SweepRunner(self.server_factory, scale=GOLDEN_SCALE,
                           seed=GOLDEN_SEED)


def _fig3_points() -> List[SweepPoint]:
    """Small Fig. 3 slice: ResNet18, page cache vs MinIO, two cache sizes."""
    return SweepRunner.grid(
        models=[RESNET18], loaders=["dali-shuffle", "coordl"],
        cache_fractions=(0.35, 0.8), dataset="openimages", num_epochs=3)


def _fig9b_points() -> List[SweepPoint]:
    """Small Fig. 9(b) slice: two HDD servers, baseline vs partitioned."""
    return SweepRunner.grid(
        models=[RESNET18], loaders=["dist-baseline", "dist-coordl"],
        cache_fractions=(0.6,), dataset="openimages",
        num_servers=2, num_epochs=2)


def _tab7_points() -> List[SweepPoint]:
    """Small Tab. 7 slice: fully-cached HP search, two models."""
    return SweepRunner.grid(
        models=[ALEXNET, RESNET18], loaders=["hp-baseline", "hp-coordl"],
        cache_fractions=(1.2,), dataset="imagenet-1k", num_jobs=4)


def _fig3_warm_points() -> List[SweepPoint]:
    """Warm multi-epoch Fig. 3 slice: epochs 2+ replay the segmented-LRU
    warm kernel (page cache below and near the dataset size)."""
    return SweepRunner.grid(
        models=[RESNET18], loaders=["dali-shuffle", "coordl"],
        cache_fractions=(0.35, 0.8), dataset="openimages", num_epochs=5)


def _fig9d_points() -> List[SweepPoint]:
    """Thrashing-regime Fig. 9(d) slice: the shared page cache sits below
    the dataset, so the interleaved multi-job stream evicts continuously
    (the dali side) — the warm kernel's multi-pass entry."""
    return SweepRunner.grid(
        models=[ALEXNET], loaders=["hp-baseline", "hp-coordl"],
        cache_fractions=(0.35, 0.65), dataset="imagenet-1k", num_jobs=4)


def _fig_crash_points() -> List[SweepPoint]:
    """Crash/re-warm slice: CoorDL jobs losing workers mid-training, plus
    two multi-tenant HP points (shared page cache under 1 vs 4 campaigns)."""
    common = dict(model=RESNET18, dataset="openimages",
                  cache_fraction=0.65, num_epochs=4)
    return [
        SweepPoint(loader="coordl-crash", num_jobs=4,
                   crash_schedule=(), label="no-crash", **common),
        SweepPoint(loader="coordl-crash", num_jobs=4,
                   crash_schedule=((1, 1),), label="one-crash", **common),
        SweepPoint(loader="coordl-crash", num_jobs=4,
                   crash_schedule=((1, 1), (2, 3)), label="two-crashes", **common),
        SweepPoint(loader="hp-multitenant", num_jobs=2, tenants=1,
                   label="single-tenant", **common),
        SweepPoint(loader="hp-multitenant", num_jobs=2, tenants=4,
                   label="four-tenants", **common),
    ]


def _fig_elastic_points() -> List[SweepPoint]:
    """Elasticity slice: servers joining/leaving a CoorDL partition, plus
    skewed-rate stragglers degrading the slowest rank."""
    common = dict(model=RESNET18, dataset="openimages",
                  cache_fraction=0.5, num_epochs=4)
    return [
        SweepPoint(loader="coordl-elastic", num_servers=2,
                   membership_schedule=(), label="static-2", **common),
        SweepPoint(loader="coordl-elastic", num_servers=2,
                   membership_schedule=((1, 4),), label="grow-to-4", **common),
        SweepPoint(loader="coordl-elastic", num_servers=4,
                   membership_schedule=((2, 2),), label="shrink-to-2", **common),
        SweepPoint(loader="coordl-straggler", num_servers=2,
                   straggler_factors=(4.0,), label="one-straggler-4x", **common),
        SweepPoint(loader="coordl-straggler", num_servers=2,
                   straggler_factors=(1.0, 2.0), label="rank1-2x", **common),
    ]


#: The committed reference grids, by name.
GOLDEN_GRIDS: Dict[str, GoldenGrid] = {
    grid.name: grid
    for grid in (
        GoldenGrid("fig3_small", config_ssd_v100, _fig3_points),
        GoldenGrid("fig9b_small", config_hdd_1080ti, _fig9b_points),
        GoldenGrid("tab7_small", config_ssd_v100, _tab7_points),
        GoldenGrid("fig3_warm", config_ssd_v100, _fig3_warm_points),
        GoldenGrid("fig9d_small", config_ssd_v100, _fig9d_points),
        GoldenGrid("fig_crash_small", config_ssd_v100, _fig_crash_points),
        GoldenGrid("fig_elastic_small", config_hdd_1080ti, _fig_elastic_points),
    )
}

def run_golden_grid(name: str, workers: int = 0) -> Dict[str, Any]:
    """Run one reference grid and return its byte-exact snapshot.

    The bulk warm kernel is toggled through the
    :data:`~repro.cache.warm_kernel.WARM_KERNEL_ENV_VAR` environment
    variable (which spawned sweep workers inherit).
    """
    try:
        grid = GOLDEN_GRIDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown golden grid {name!r}; known: {sorted(GOLDEN_GRIDS)}") from None
    runner = grid.build_runner()
    return runner.run(grid.points(), workers=workers).snapshot()


def snapshot_to_json(snapshot: Dict[str, Any]) -> str:
    """Canonical JSON text of a snapshot (sorted keys, stable indentation)."""
    return json.dumps(snapshot, indent=1, sort_keys=True) + "\n"


def golden_path(name: str, directory: pathlib.Path) -> pathlib.Path:
    """Path of a committed snapshot file inside the given golden directory.

    The directory (``tests/golden/`` in this repo) is the *caller's* to
    supply: the library cannot assume it is imported from a source
    checkout, so it never derives test-tree paths from ``__file__``.
    """
    return pathlib.Path(directory) / f"{name}.json"


def load_golden(name: str, directory: pathlib.Path) -> Dict[str, Any]:
    """Load one committed reference snapshot."""
    path = golden_path(name, directory)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_golden(name: str, directory: pathlib.Path) -> pathlib.Path:
    """Regenerate one committed snapshot (serial run); returns its path."""
    path = golden_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(snapshot_to_json(run_golden_grid(name)))
    return path


def snapshot_diff(expected: Dict[str, Any], actual: Dict[str, Any]) -> List[str]:
    """Human-readable paths at which two snapshots disagree (first few).

    Byte-identical snapshots return ``[]``.  Used by the golden tests to
    point at the diverging record/epoch/field instead of dumping two JSON
    blobs.
    """
    diffs: List[str] = []

    def walk(path: str, a: Any, b: Any) -> None:
        if len(diffs) >= 10:
            return
        if type(a) is not type(b):
            diffs.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        elif isinstance(a, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a or key not in b:
                    diffs.append(f"{path}.{key}: missing on one side")
                else:
                    walk(f"{path}.{key}", a[key], b[key])
        elif isinstance(a, list):
            if len(a) != len(b):
                diffs.append(f"{path}: length {len(a)} != {len(b)}")
            for i, (va, vb) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", va, vb)
        elif a != b:
            diffs.append(f"{path}: {a!r} != {b!r}")

    walk("snapshot", expected, actual)
    return diffs
