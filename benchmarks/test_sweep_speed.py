"""Benchmarks: vectorised Fig. 3 sweep vs reference, the warm/thrashing
segmented-LRU kernel vs the per-item reference, parallel vs serial, the
content-addressed result store (cold vs warm), and the kernel core's
per-access cost.

The first benchmark runs the identical sweep grid (ResNet18, DALI-shuffle +
CoorDL, the six cache fractions of Fig. 3, two epochs each) twice through
:class:`~repro.sim.sweep.SweepRunner` — once with the vectorised epoch fast
path, once forced onto the per-batch ``fetch_batch`` loop — and asserts that

* every simulated epoch time agrees within 1e-9 (the fast path is a
  numerical fast path, not an approximation), and
* the vectorised sweep is at least 3x faster end to end.

The warm-regime gate does the same for the two regimes the segmented-LRU
bulk kernel closed: a warm multi-epoch Fig. 3 grid (epochs 2+ replay the
kernel) and the Fig. 9(d) dali thrashing side (the interleaved multi-job
stream over a page cache below the dataset).  Together they must run at
least 3x faster than the per-item reference — with epoch times within
1e-9, the Fig. 9(d) side byte-identical to the per-item reference, and the
kernel-on vs kernel-off snapshots byte-identical (epoch times, I/O
counters and cache stats; see ``tests/golden/``).

The parallel benchmark runs a 16-point grid serially and through the
``workers=4`` spawn pool, asserts the two results are **byte-identical**
(snapshot comparison — the pool is not allowed to change a single bit),
and that the pooled run is at least 2x faster when the machine actually
has 4 cores.

The store benchmark stands in for a warm ``report`` run: it executes
three real sweep-backed experiment modules end to end against a cold
content-addressed store, then again against the warm store, three
alternating pairs, each cold pass into a fresh store.  It asserts every
warm pass simulated nothing (all store hits) yet produced identical
tables, and gates the best warm pass at >= 5x over the best cold one.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.cache.warm_kernel import WARM_KERNEL_ENV_VAR, simulate_segmented_lru
from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.experiments import fig3_cache_sweep, fig9d_hp_search, tab7_hp_cached
from repro.experiments.base import SWEEP_SCALE
from repro.experiments.fig3_cache_sweep import DEFAULT_FRACTIONS
from repro.sim.harness import snapshot_diff
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import SweepStore

#: Wall-clock advantage the vectorised sweep must demonstrate.  Overridable
#: so shared CI runners (noisy neighbours, throttled cores) can keep the
#: exactness gate hard while softening the timing gate.
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "3.0"))

#: Best-of repetitions per path (damps scheduler noise in the ratio).
REPEATS = 2

#: Wall-clock advantage the ``workers=4`` pool must demonstrate over the
#: serial run of the same grid (env-overridable like MIN_SPEEDUP; only
#: asserted on machines with at least PARALLEL_WORKERS cores).
MIN_PARALLEL_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_PARALLEL_SPEEDUP", "2.0"))

#: Pool size of the parallel-sweep benchmark.
PARALLEL_WORKERS = 4

#: Dataset scale of the parallel benchmark grid — heavy enough per point
#: that the sweep dominates worker spawn + per-worker dataset rebuild.
PARALLEL_SCALE = 1.0 / 10.0

#: Combined wall-clock advantage the segmented-LRU warm kernel must show
#: over the per-item reference across the warm Fig. 3 + thrashing Fig. 9d
#: grids (env-overridable for noisy CI runners, like MIN_SPEEDUP).
MIN_WARM_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_WARM_SPEEDUP", "3.0"))

#: Per-grid floor within the warm gate: neither regime may fall back to
#: reference-level speed even when the combined gate would still pass.
MIN_WARM_GRID_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_WARM_GRID_SPEEDUP", "1.5"))

#: Wall-clock advantage a warm (all-hits) store-backed experiment run must
#: show over the cold run that populated the store (env-overridable for
#: noisy CI runners, like the other gates).
MIN_STORE_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_STORE_SPEEDUP", "5.0"))

#: Cold/warm pairs of the store gate, run alternately; each side keeps its
#: best pass, as the Fig. 9(b) gate does.
STORE_PAIRS = 3


def _fig3_sweep() -> Tuple[float, Dict[tuple, List[float]]]:
    """Run the Fig. 3 grid; return (elapsed seconds, per-point epoch times)."""
    runner = SweepRunner(config_ssd_v100, scale=SWEEP_SCALE, seed=0)
    points = SweepRunner.grid(models=[RESNET18],
                              loaders=["dali-shuffle", "coordl"],
                              cache_fractions=DEFAULT_FRACTIONS,
                              dataset="openimages", num_epochs=2)
    start = time.perf_counter()
    # workers=0 pins the serial executor and store=False bypasses any
    # ambient store: this benchmark isolates the vectorised-vs-reference
    # ratio, and the reference leg must simulate in this process.
    sweep = runner.run(points, workers=0, store=False)
    elapsed = time.perf_counter() - start
    epoch_times = {
        (record.point.loader, record.point.cache_fraction):
            [epoch.epoch_time_s for epoch in record.run.epochs]
        for record in sweep
    }
    return elapsed, epoch_times


def test_vectorized_fig3_sweep_is_3x_faster_and_exact(benchmark, bench_report,
                                                       reference_paths):
    slow_elapsed = float("inf")
    with reference_paths() as calls:
        for _ in range(REPEATS):
            elapsed, slow_times = _fig3_sweep()
            slow_elapsed = min(slow_elapsed, elapsed)
    epochs = sum(len(times) for times in slow_times.values())
    assert calls["batch_walks"] == REPEATS * epochs

    fast_runs = [_fig3_sweep() for _ in range(REPEATS - 1)]
    fast_times = benchmark.pedantic(_fig3_sweep, rounds=1, iterations=1)[1]
    fast_elapsed = min([r[0] for r in fast_runs]
                       + [benchmark.stats.stats.min])

    assert set(fast_times) == set(slow_times)
    worst = max(abs(a - b)
                for key in slow_times
                for a, b in zip(slow_times[key], fast_times[key]))
    assert worst <= 1e-9, f"fast path diverged from reference by {worst}"

    speedup = slow_elapsed / fast_elapsed
    print(f"\nFig. 3 sweep: per-batch {slow_elapsed * 1e3:.0f} ms, "
          f"vectorized {fast_elapsed * 1e3:.0f} ms -> {speedup:.2f}x "
          f"(max epoch-time deviation {worst:.2e})")
    bench_report.record("fig3_vectorized", points=len(fast_times),
                        reference_s=slow_elapsed, fast_s=fast_elapsed)
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized sweep only {speedup:.2f}x faster (need {MIN_SPEEDUP}x)")


def _warm_fig3_points() -> List[SweepPoint]:
    """Multi-epoch Fig. 3 grid: five warm epochs follow the cold one."""
    return SweepRunner.grid(models=[RESNET18],
                            loaders=["dali-shuffle", "coordl"],
                            cache_fractions=(0.35, 0.65),
                            dataset="openimages", num_epochs=6)


def _fig9d_dali_points() -> List[SweepPoint]:
    """The Fig. 9(d) dali thrashing side: eight jobs interleaving over one
    page cache that holds 65 % of the dataset."""
    return SweepRunner.grid(models=[ALEXNET, RESNET18],
                            loaders=["hp-baseline"],
                            cache_fractions=(0.65,), num_jobs=8)


def _timed_points(points: List[SweepPoint]):
    """Run one grid serially with no store; return (elapsed s, byte-exact
    snapshot)."""
    runner = SweepRunner(config_ssd_v100, scale=SWEEP_SCALE, seed=0)
    start = time.perf_counter()
    sweep = runner.run(points, workers=0, store=False)
    return time.perf_counter() - start, sweep.snapshot()


def _epoch_times(snapshot: Dict) -> List[float]:
    """Every simulated epoch/HP epoch time in a snapshot, in order."""
    times: List[float] = []
    for record in snapshot["records"]:
        for epoch in record.get("epochs", ()):
            times.append(float.fromhex(epoch["epoch_time_s"]))
        if "hp" in record:
            times.append(float.fromhex(record["hp"]["epoch_time_s"]))
    return times


def test_warm_kernel_fig3_and_fig9d_thrashing_3x_and_exact(
        benchmark, bench_report, monkeypatch, reference_paths):
    """The segmented-LRU warm-kernel gate (see the module docstring)."""
    grids = {"fig3_warm": _warm_fig3_points(),
             "fig9d_dali": _fig9d_dali_points()}
    with reference_paths() as calls:
        reference = {name: min((_timed_points(points)
                                for _ in range(REPEATS)), key=lambda r: r[0])
                     for name, points in grids.items()}
    # Every training epoch walked, and every HP-search point ran its
    # warm-up and measured epochs on the per-item page cache.
    assert calls == {
        "batch_walks": REPEATS * sum(p.num_epochs for p in grids["fig3_warm"]),
        "page_cache_epochs": REPEATS * 2 * len(grids["fig9d_dali"])}

    def _kernel_runs():
        return {name: _timed_points(points) for name, points in grids.items()}

    warm_runs = [_kernel_runs() for _ in range(REPEATS - 1)]
    warm_runs.append(benchmark.pedantic(_kernel_runs, rounds=1, iterations=1))
    fast = {name: min((run[name] for run in warm_runs), key=lambda r: r[0])
            for name in grids}

    # Exactness, tier 1 — against the fully per-item reference: epoch
    # times within 1e-9 everywhere, and the Fig. 9(d) dali side (a pure
    # reduction of the cache walk, no timeline reassociation) bit-exact.
    for name in grids:
        ref_times = _epoch_times(reference[name][1])
        fast_times = _epoch_times(fast[name][1])
        worst = max(abs(a - b) for a, b in zip(ref_times, fast_times))
        assert len(ref_times) == len(fast_times)
        assert worst <= 1e-9, (
            f"{name}: warm kernel diverged from the reference by {worst}")
    assert not snapshot_diff(reference["fig9d_dali"][1], fast["fig9d_dali"][1]), (
        "fig9d dali side is not byte-identical to the per-item reference")

    # Exactness, tier 2 — kernel on vs kernel off inside the vectorised
    # stack is byte-identical: same epoch times, I/O counters/timeline
    # digests and cache stats, for both grids.
    monkeypatch.setenv(WARM_KERNEL_ENV_VAR, "0")
    kernel_off = {name: _timed_points(points) for name, points in grids.items()}
    monkeypatch.delenv(WARM_KERNEL_ENV_VAR)
    for name in grids:
        diffs = snapshot_diff(kernel_off[name][1], fast[name][1])
        assert not diffs, (
            f"{name}: kernel on/off snapshots differ (first: {diffs})")

    # Speed: each regime beats the per-item reference, and combined the
    # warm/thrashing sweeps are >= MIN_WARM_SPEEDUP faster.
    for name in grids:
        grid_speedup = reference[name][0] / fast[name][0]
        bench_report.record(name, points=len(grids[name]),
                            reference_s=reference[name][0],
                            fast_s=fast[name][0],
                            kernel_off_s=round(kernel_off[name][0], 6))
        print(f"\n{name}: per-item {reference[name][0] * 1e3:.0f} ms, "
              f"warm kernel {fast[name][0] * 1e3:.0f} ms -> "
              f"{grid_speedup:.2f}x (kernel off: "
              f"{kernel_off[name][0] * 1e3:.0f} ms)")
        assert grid_speedup >= MIN_WARM_GRID_SPEEDUP, (
            f"{name} only {grid_speedup:.2f}x faster than the per-item "
            f"reference (need {MIN_WARM_GRID_SPEEDUP}x)")
    combined_ref = sum(reference[name][0] for name in grids)
    combined_fast = sum(fast[name][0] for name in grids)
    combined = combined_ref / combined_fast
    bench_report.record("warm_kernel_combined",
                        points=sum(len(p) for p in grids.values()),
                        reference_s=combined_ref, fast_s=combined_fast)
    print(f"warm kernel combined: {combined_ref * 1e3:.0f} ms -> "
          f"{combined_fast * 1e3:.0f} ms = {combined:.2f}x")
    assert combined >= MIN_WARM_SPEEDUP, (
        f"warm kernel only {combined:.2f}x faster overall "
        f"(need {MIN_WARM_SPEEDUP}x)")


def _parallel_grid():
    """A 16-point training grid (2 models x 2 loaders x 4 cache sizes)."""
    return SweepRunner.grid(models=[RESNET18, ALEXNET],
                            loaders=["dali-shuffle", "coordl"],
                            cache_fractions=(0.25, 0.5, 0.75, 1.0),
                            dataset="openimages", num_epochs=3)


def _timed_sweep(workers: int):
    """Run the parallel-benchmark grid; return (elapsed s, snapshot)."""
    runner = SweepRunner(config_ssd_v100, scale=PARALLEL_SCALE, seed=0)
    start = time.perf_counter()
    sweep = runner.run(_parallel_grid(), workers=workers)
    return time.perf_counter() - start, sweep.snapshot()


def test_parallel_sweep_is_byte_identical_and_2x_faster(benchmark, bench_report):
    serial_elapsed, serial_snapshot = _timed_sweep(workers=0)
    # Compare sweep time to sweep time: _timed_sweep measures run() alone,
    # so the pooled leg must use the same clock — the pedantic wall time
    # would also charge the (identical, ~2x-the-sweep) snapshot
    # serialisation to the pooled side only.
    parallel_elapsed, parallel_snapshot = benchmark.pedantic(
        lambda: _timed_sweep(workers=PARALLEL_WORKERS), rounds=1, iterations=1)

    # The exactness gate is unconditional: pooled results must be
    # bit-for-bit the serial ones, reassembled in input order.
    assert parallel_snapshot == serial_snapshot, (
        "workers=4 sweep diverged from the serial bytes")

    speedup = serial_elapsed / parallel_elapsed
    cores = os.cpu_count() or 1
    bench_report.record("parallel_16pt", points=len(_parallel_grid()),
                        reference_s=serial_elapsed, fast_s=parallel_elapsed,
                        workers=PARALLEL_WORKERS, cores=cores)
    print(f"\n16-point sweep: serial {serial_elapsed:.2f} s, "
          f"workers={PARALLEL_WORKERS} {parallel_elapsed:.2f} s -> "
          f"{speedup:.2f}x on {cores} cores (exact)")
    if cores < PARALLEL_WORKERS:
        print(f"(speedup gate skipped: {cores} < {PARALLEL_WORKERS} cores)")
        return
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"parallel sweep only {speedup:.2f}x faster "
        f"(need {MIN_PARALLEL_SPEEDUP}x on {cores} cores)")


def _report_slice(store: SweepStore) -> List[dict]:
    """A representative slice of ``report`` generation, store-backed.

    Three real experiment modules end to end — the Fig. 3 cache sweep
    (multi-epoch training points), a two-model Fig. 9(d) HP-search column
    and the Tab. 7 fully-cached HP grid — so the warm timing includes
    everything a warm report pays besides the simulations: key
    derivation, store reads, rehydration and the tidy reduction into
    experiment tables.
    """
    results = [
        fig3_cache_sweep.run(scale=SWEEP_SCALE, store=store),
        fig9d_hp_search.run(scale=SWEEP_SCALE, models=[ALEXNET, RESNET18],
                            store=store),
        tab7_hp_cached.run(scale=SWEEP_SCALE, store=store),
    ]
    return [result.to_dict() for result in results]


def test_store_warm_report_run_is_5x_and_identical(benchmark, bench_report,
                                                   tmp_path):
    """A warm store turns the experiment slice into near-pure store reads.

    :data:`STORE_PAIRS` cold/warm pairs run alternately.  Cold pass: every
    sweep point simulates and is written to a fresh store directory.  Warm
    pass: every point must be served from that store (zero simulations,
    asserted through the store counters) and the resulting tables must be
    **identical** (the rehydrated records are bit-exact, so every derived
    table value matches).  The best warm pass must run at least
    :data:`MIN_STORE_SPEEDUP` times faster than the best cold pass.
    """
    cold_passes: List[Tuple[float, SweepStore, List[dict]]] = []
    warm_passes: List[Tuple[SweepStore, List[dict]]] = []

    def cold_pass():
        directory = tmp_path / f"sweep-store-{len(cold_passes)}"
        store = SweepStore(directory)
        start = time.perf_counter()
        tables = _report_slice(store)
        cold_passes.append((time.perf_counter() - start, store, tables))
        return (SweepStore(directory),), {}

    def warm_pass(store: SweepStore) -> None:
        warm_passes.append((store, _report_slice(store)))

    # The cold pass is the untimed setup of each timed warm round.
    benchmark.pedantic(warm_pass, setup=cold_pass, rounds=STORE_PAIRS,
                       iterations=1)
    warm_elapsed = benchmark.stats.stats.min
    cold_elapsed = min(elapsed for elapsed, _, _ in cold_passes)

    assert len(cold_passes) == len(warm_passes) == STORE_PAIRS
    for (_, cold_store, cold_tables), (warm_store, warm_tables) in zip(
            cold_passes, warm_passes):
        assert cold_store.hits == 0 and cold_store.puts == cold_store.misses > 0
        assert warm_store.misses == 0, (
            f"warm report run simulated {warm_store.misses} points "
            "(expected all store hits)")
        assert warm_store.hits == cold_store.puts
        assert warm_tables == cold_tables, (
            "store-rehydrated experiment tables diverged from the cold run")

    points = cold_passes[0][1].puts
    speedup = cold_elapsed / warm_elapsed
    bench_report.record("store_warm_report", points=points,
                        reference_s=cold_elapsed, fast_s=warm_elapsed,
                        store_entries=warm_passes[0][0].stats().entries)
    print(f"\nstore-backed report slice, best of {STORE_PAIRS}: cold "
          f"{cold_elapsed * 1e3:.0f} ms, warm {warm_elapsed * 1e3:.0f} ms -> "
          f"{speedup:.2f}x ({points} points, all hits on the warm passes)")
    assert speedup >= MIN_STORE_SPEEDUP, (
        f"warm store-backed run only {speedup:.2f}x faster "
        f"(need {MIN_STORE_SPEEDUP}x)")


def test_warm_kernel_core_per_access_cost(benchmark, bench_report):
    """Track the segmented-LRU kernel's per-access cost over time.

    Informational (no speedup gate — absolute ns/access is machine-bound;
    the regression gate for the kernel is the warm-grid benchmark above):
    a synthetic 40,000-access thrashing stream (ten passes over 4,000
    items of 20–79 pages, a cache of 60% of their pages) is replayed
    through :func:`simulate_segmented_lru` as page counts, prologue and
    epilogue included, and the best of four replays' per-access wall
    clock lands in ``BENCH_sweep.json`` (so a first replay that compiles
    the native core does not count).  On a 2-core x86_64 VM under CPython
    3.11 the C core over linked lists measures ~27–41 ns/access, where the
    Python loop over lazily-invalidated deques it replaced measured ~676.
    """
    rng = np.random.default_rng(0)
    num_items = 4000
    item_pages = rng.integers(20, 80, num_items)
    stream = np.concatenate([rng.permutation(num_items) for _ in range(10)])
    capacity_pages = int(item_pages.sum() * 0.6)
    empty = (np.zeros(0, dtype=np.int64),) * 2   # a cold cache's lists

    def replay():
        return simulate_segmented_lru(
            stream, item_pages[stream], capacity_pages=capacity_pages,
            active_limit_pages=capacity_pages // 2, inactive=empty,
            active=empty)

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = replay()
        best = min(best, time.perf_counter() - start)
    benchmark.pedantic(replay, rounds=1, iterations=1)
    best = min(best, benchmark.stats.stats.min)
    assert result is not None and result.misses > 0

    ns_per_access = best / stream.size * 1e9
    bench_report.record("warm_kernel_core", points=int(stream.size),
                        fast_s=best, ns_per_access=round(ns_per_access, 1))
    print(f"\nwarm-kernel core: {stream.size} thrashing accesses in "
          f"{best * 1e3:.2f} ms -> {ns_per_access:.1f} ns/access")
