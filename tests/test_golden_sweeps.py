"""Golden regression tests for the sweep executor.

Each committed file under ``tests/golden/`` is the byte-exact snapshot
(:meth:`~repro.sim.sweep.SweepResult.snapshot`, ``float.hex`` floats) of a
small reference grid — Fig. 3 (single-server training points), Fig. 9(b)
(distributed points), Tab. 7 (HP-search points), a warm multi-epoch Fig. 3
grid, a thrashing-regime Fig. 9(d) grid (the last two exercise the
segmented-LRU warm kernel), and two failure-scenario grids
(crash/multi-tenant and elastic/straggler points, whose deterministic
``FailureEvent`` traces are part of the committed bytes; these two are
additionally driven cold-then-warm through both result-store backends
with a zero-simulation warm-pass gate).  The tests assert that
:class:`~repro.sim.sweep.SweepRunner` reproduces every one of them
bit-for-bit serially (``workers=0``) and through the spawn worker pool
(``workers=1`` and ``workers=4``): parallel execution must not change a
single float bit, I/O counter or cache statistic.  The warm-kernel grids
are additionally reproduced with the kernel disabled
(``REPRO_WARM_KERNEL=0`` — spawned workers inherit it), pinning the kernel
≡ per-item-walk equivalence to the committed bytes at every worker count.

Regenerate the files with ``python tools/make_golden.py`` only when a
deliberate simulation change moves the numbers.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.cache.warm_kernel import WARM_KERNEL_ENV_VAR
from repro.sim.harness import (
    GOLDEN_GRIDS,
    golden_path,
    load_golden,
    run_golden_grid,
    snapshot_diff,
    snapshot_to_json,
)

#: The committed snapshots live next to this test module.
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

GRID_NAMES = sorted(GOLDEN_GRIDS)

#: Grids whose warm/thrashing epochs run through the segmented-LRU kernel.
WARM_KERNEL_GRIDS = ("fig3_warm", "fig9d_small")

#: Grids made of failure/elasticity points — their deterministic
#: ``FailureEvent`` traces are part of the committed bytes.
FAILURE_GRIDS = ("fig_crash_small", "fig_elastic_small")


@pytest.mark.parametrize("name", GRID_NAMES)
def test_golden_file_exists_and_parses(name):
    assert golden_path(name, GOLDEN_DIR).exists(), (
        f"missing committed snapshot for {name}; run tools/make_golden.py")
    expected = load_golden(name, GOLDEN_DIR)
    assert len(expected["records"]) == len(GOLDEN_GRIDS[name].points())


@pytest.mark.parametrize("workers", [0, 1, 4])
@pytest.mark.parametrize("name", GRID_NAMES)
def test_sweep_reproduces_golden_snapshot(name, workers):
    """Serial and pooled runs reproduce the committed bytes exactly."""
    expected = load_golden(name, GOLDEN_DIR)
    actual = run_golden_grid(name, workers=workers)
    diffs = snapshot_diff(expected, actual)
    assert not diffs, (
        f"{name} at workers={workers} diverged from the committed snapshot "
        f"(first differences: {diffs}); if the simulation legitimately "
        "changed, regenerate with tools/make_golden.py")


@pytest.mark.parametrize("workers", [0, 1, 4])
@pytest.mark.parametrize("name", WARM_KERNEL_GRIDS)
def test_warm_kernel_off_reproduces_golden_snapshot(name, workers, monkeypatch):
    """The per-item warm walk must reproduce the kernel's committed bytes.

    The snapshots were generated with the kernel enabled; disabling it
    (the environment variable is inherited by spawned workers) must not
    move a single bit — the kernel is a fast path, not an approximation.
    """
    monkeypatch.setenv(WARM_KERNEL_ENV_VAR, "0")
    expected = load_golden(name, GOLDEN_DIR)
    actual = run_golden_grid(name, workers=workers)
    diffs = snapshot_diff(expected, actual)
    assert not diffs, (
        f"{name} with the warm kernel disabled (workers={workers}) diverged "
        f"from the committed snapshot (first differences: {diffs})")


def test_fig9d_dali_side_reproduces_golden_without_fast_path():
    """The fully per-item reference stack agrees on the thrashing side.

    Training points are compared through the vectorised stack only (their
    epoch timelines reassociate float sums), and so are the MinIO/coordl
    points (their analytic epoch sums bytes pairwise).  The page-cache
    baseline points, however, reduce the warm kernel's walk with the same
    left-to-right accumulation the reference uses, so the Fig. 9(d) dali
    side must be byte-identical even against ``fast_path=False``.
    """
    expected = load_golden("fig9d_small", GOLDEN_DIR)
    actual = run_golden_grid("fig9d_small", fast_path=False)
    compared = 0
    for exp_record, act_record in zip(expected["records"], actual["records"]):
        if exp_record["point"]["loader"] == "hp-baseline":
            compared += 1
            assert exp_record == act_record, (
                "fig9d_small: HP-search baseline point diverged between "
                "the kernel and the per-item reference scenario")
    assert compared, "fig9d grid lost its dali side"


@pytest.mark.parametrize("backend", ["json", "sqlite"])
@pytest.mark.parametrize("name", FAILURE_GRIDS)
def test_failure_grid_cold_then_warm_through_store(name, backend, tmp_path):
    """Failure traces survive the content-addressed store bit for bit.

    A cold store-backed run must match the committed snapshot (all misses),
    and a warm second run must rehydrate every record — events included —
    without a single simulation, on both store backends.  Simulations are
    counted as store misses: a run simulates exactly its misses, whether in
    process or in pool workers (the ``REPRO_SWEEP_WORKERS=2`` leg).
    """
    from repro.store import SweepStore

    location = (f"sqlite://{tmp_path / 'store.db'}" if backend == "sqlite"
                else str(tmp_path / "store"))
    expected = load_golden(name, GOLDEN_DIR)
    grid = GOLDEN_GRIDS[name]

    cold_store = SweepStore(location)
    cold = grid.build_runner().run(grid.points(), store=cold_store).snapshot()
    assert not snapshot_diff(expected, cold)
    assert cold_store.misses == cold_store.puts == len(grid.points())

    warm_store = SweepStore(location)
    warm = grid.build_runner().run(grid.points(), store=warm_store).snapshot()
    assert not snapshot_diff(expected, warm)
    assert warm_store.misses == 0, (
        f"{name}: warm store pass re-simulated {warm_store.misses} points")
    assert warm_store.hits == len(grid.points())


@pytest.mark.parametrize("name", GRID_NAMES)
def test_golden_file_is_in_canonical_form(name):
    """Committed files carry the canonical serialisation, not a stale dump.

    Guards against hand-edits and against the serialisation drifting away
    from what ``tools/make_golden.py`` writes.
    """
    text = golden_path(name, GOLDEN_DIR).read_text(encoding="utf-8")
    assert text == snapshot_to_json(load_golden(name, GOLDEN_DIR))
