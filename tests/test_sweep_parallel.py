"""Tests for the process-parallel sweep executor.

Covers the worker pool's determinism contract (serial ≡ ``workers=N`` at
the byte level, for any N, chunking and input ordering — hypothesis
property tests), the fast-path fallback inside worker processes, worker
error propagation, and the ``workers=`` knob plumbing (argument, env-var
default, validation).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.exceptions import ConfigurationError, SweepPointError
from repro.sim.sweep import (
    SERIAL_EXECUTOR,
    WORKERS_ENV_VAR,
    SweepPoint,
    SweepRunner,
)
from repro.store import PersistentPool, SweepStore

SCALE = 1 / 500.0


def _mixed_grid():
    """A small grid exercising all three point kinds."""
    points = SweepRunner.grid(models=[RESNET18],
                              loaders=["coordl", "dali-shuffle"],
                              cache_fractions=(0.35, 0.8),
                              dataset="openimages")
    points += SweepRunner.grid(models=[ALEXNET], loaders=["hp-coordl"],
                               cache_fractions=(0.65,), num_jobs=4)
    points += SweepRunner.grid(models=[RESNET18], loaders=["dist-coordl"],
                               cache_fractions=(0.6,), dataset="openimages",
                               num_servers=2, num_epochs=2)
    return points


def _snapshot(points, workers, **runner_kwargs):
    runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0, **runner_kwargs)
    return runner.run(points, workers=workers).snapshot()


class TestParallelExecution:
    def test_pool_matches_serial_bytes(self, monkeypatch):
        """workers=2 reproduces the serial bytes on all three point kinds.

        ``os.cpu_count`` is pinned to 2 so a real pool spawns even on a
        one-core box (where the clamp would otherwise degrade the run to
        the serial executor and the comparison would be vacuous)."""
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        points = _mixed_grid()
        assert _snapshot(points, workers=2) == _snapshot(points, workers=0)

    def test_explicit_chunksize_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # force a real pool
        points = _mixed_grid()
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        with PersistentPool(2, chunksize=1) as pool:
            chunked = runner.run(points, pool=pool).snapshot()
        assert chunked == _snapshot(points, workers=0)

    def test_single_point_grid_never_spawns_a_pool(self, monkeypatch):
        """One-point grids run in-process even when workers are requested."""
        def boom(method):  # pragma: no cover - would mean a pool was built
            raise AssertionError("pool spawned for a single-point grid")

        # Every pool (one-shot and persistent) is a PersistentPool, so
        # patching its context factory catches any spawn.
        import repro.store.pool as pool_module
        monkeypatch.setattr(pool_module.multiprocessing, "get_context", boom)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        (record,) = runner.run([SweepPoint(model=RESNET18, loader="coordl",
                                           dataset="openimages",
                                           cache_fraction=0.5)],
                               workers=4).records
        assert record.steady.epoch_time_s > 0

    def test_env_var_supplies_the_default_worker_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        points = _mixed_grid()[:3]
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        pooled = runner.run(points).snapshot()  # workers=None -> env
        assert pooled == _snapshot(points, workers=0)

    def test_explicit_workers_beats_the_env_var(self, monkeypatch):
        """workers=0 forces serial execution even when the env var is set."""
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")

        def boom(method):  # pragma: no cover
            raise AssertionError("pool spawned despite workers=0")

        import repro.store.pool as pool_module
        monkeypatch.setattr(pool_module.multiprocessing, "get_context", boom)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert len(runner.run(_mixed_grid()[:2], workers=0)) == 2

    def test_rejects_bad_worker_settings(self, monkeypatch):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        point = SweepPoint(model=RESNET18, loader="coordl",
                           dataset="openimages", cache_fraction=0.5)
        with pytest.raises(ConfigurationError):
            runner.run([point], workers=-1)
        monkeypatch.setenv(WORKERS_ENV_VAR, "two")
        with pytest.raises(ConfigurationError):
            runner.run([point])

    def test_point_seed_pairs_same_dataset_points(self):
        """Seeds derive from (runner seed, dataset) only: points walking the
        same dataset share permutations (paired loader comparisons), labels
        and configuration knobs never perturb the sampling."""
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        a = SweepPoint(model=RESNET18, loader="coordl", cache_fraction=0.5)
        b = SweepPoint(model=RESNET18, loader="dali-shuffle", cache_fraction=0.8,
                       label="same dataset, different knobs")
        c = SweepPoint(model=RESNET18, loader="coordl", dataset="imagenet-1k",
                       cache_fraction=0.5)
        assert runner.point_seed(a) == runner.point_seed(b)
        assert runner.point_seed(a) != runner.point_seed(c)
        other = SweepRunner(config_ssd_v100, scale=SCALE, seed=11)
        assert runner.point_seed(a) != other.point_seed(a)


class TestPooledBulkEpochs:
    """Bulk epochs run inside a worker process exactly as in process."""

    def _pooled_grid(self):
        # A half-size page cache goes warm after the first epoch and
        # thrashes from then on.  DALI-shuffle's loader still prices every
        # epoch as bulk arrays (the page cache replays each stream).  A
        # one-point grid runs in-process by design, so a second point keeps
        # the warm one inside an actual worker process.
        return [SweepPoint(model=RESNET18, loader="dali-shuffle",
                           dataset="openimages", cache_fraction=0.5,
                           num_epochs=3),
                SweepPoint(model=RESNET18, loader="coordl",
                           dataset="openimages", cache_fraction=0.5)]

    def test_pooled_bulk_epochs_match_serial_bytes(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # force a real pool
        points = self._pooled_grid()
        assert _snapshot(points, workers=2) == _snapshot(points, workers=0)

    def test_pooled_bulk_epochs_match_the_serial_per_batch_reference(
            self, monkeypatch, reference_paths):
        """Pooled bulk I/O totals equal the serial per-batch reference walk.

        Catches double-counted or dropped aggregated I/O stats when a
        worker applies whole epochs in bulk.
        """
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # force a real pool
        grid = self._pooled_grid()
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        pooled = runner.run(grid, workers=2, store=False).records[0]
        reference_runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        with reference_paths() as calls:
            (reference,) = reference_runner.run(grid[:1], workers=0,
                                                store=False).records
        assert calls["batch_walks"] == 3
        for fast_epoch, slow_epoch in zip(pooled.run.epochs,
                                          reference.run.epochs):
            assert fast_epoch.io.disk_requests == slow_epoch.io.disk_requests
            assert fast_epoch.io.cache_requests == slow_epoch.io.cache_requests
            assert fast_epoch.cache_hits == slow_epoch.cache_hits
            assert fast_epoch.cache_misses == slow_epoch.cache_misses
            assert fast_epoch.io.disk_bytes == pytest.approx(
                slow_epoch.io.disk_bytes, rel=1e-12)
            assert fast_epoch.samples == slow_epoch.samples


class TestWorkerClamp:
    """Requested worker counts clamp to the machine's core count.

    Oversubscribing a small machine only adds spawn cost and contention
    (the 1-core CI box measured a 0.4x parallel 'speedup' before the
    clamp), so both executors cap ``workers`` at ``os.cpu_count()``.
    """

    def test_resolve_workers_clamps_to_one_core(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert runner._resolve_workers(8) == 1
        assert runner._resolve_workers(1) == 1

    def test_serial_stays_serial_under_clamp(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert runner._resolve_workers(0) == 0

    def test_clamp_respects_larger_machines(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 16)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert runner._resolve_workers(8) == 8
        assert runner._resolve_workers(32) == 16

    def test_persistent_pool_clamps_to_one_core(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        from repro.store import PersistentPool
        pool = PersistentPool(8)
        assert pool.workers == 1

    def test_env_var_workers_are_clamped_too(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        monkeypatch.setenv(WORKERS_ENV_VAR, "8")
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert runner._resolve_workers(None) == 1

    def test_workers_one_degrades_to_serial(self, monkeypatch):
        """A one-worker 'pool' never spawns: workers<=1 (requested or
        clamped) dispatches to the serial executor, skipping the per-run
        process spawn cost that buys zero parallelism."""
        def boom(method):  # pragma: no cover - would mean a pool was built
            raise AssertionError("pool spawned for workers<=1")

        import repro.store.pool as pool_module
        monkeypatch.setattr(pool_module.multiprocessing, "get_context", boom)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        points = _mixed_grid()[:2]
        assert len(runner.run(points, workers=1)) == 2
        # A clamped request degrades the same way.
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert len(runner.run(points, workers=8)) == 2


class TestWorkerErrorPropagation:
    """A failing point surfaces its label and the original exception."""

    def _failing_grid(self):
        # Valid as a point spec, but HPSearchScenario rejects 64 jobs on an
        # 8-GPU server when the point is actually simulated.
        good = SweepPoint(model=RESNET18, loader="coordl",
                          dataset="openimages", cache_fraction=0.5)
        bad = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                         label="overcommitted-hp-point")
        return [good, bad]

    def test_child_failure_carries_label_and_original_exception(
            self, monkeypatch):
        # Pin the core count so workers=2 survives the clamp: on a one-core
        # box the run would degrade to the serial executor, which records no
        # child traceback (covered by the serial test below).
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        with pytest.raises(SweepPointError) as excinfo:
            # store=False pins the pool path: with an ambient result store
            # (the CI store leg) the good point would be a hit, leaving a
            # single miss that runs in-process instead of in a worker.
            runner.run(self._failing_grid(), workers=2, store=False)
        error = excinfo.value
        assert "overcommitted-hp-point" in str(error)
        assert error.point_label == "overcommitted-hp-point"
        assert isinstance(error.__cause__, ConfigurationError)
        assert "exceed" in str(error.__cause__)
        # The child traceback is preserved for debugging, not lost to a
        # bare multiprocessing RemoteTraceback.
        assert error.child_traceback is not None
        assert "ConfigurationError" in error.child_traceback

    def test_serial_failure_is_labelled_the_same_way(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        with pytest.raises(SweepPointError) as excinfo:
            runner.run(self._failing_grid(), workers=0)
        error = excinfo.value
        assert "overcommitted-hp-point" in str(error)
        assert isinstance(error.__cause__, ConfigurationError)
        assert error.child_traceback is None

    def test_the_rest_of_the_grid_is_stored_at_any_worker_count(
            self, monkeypatch, tmp_path):
        """Serial runs, like pooled ones, finish the grid before raising:
        a store-backed [ok, bad, ok'] grid leaves the same two entries."""
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # force a real pool
        good, bad = self._failing_grid()
        points = [good, bad, SweepPoint(model=RESNET18, loader="coordl",
                                        dataset="openimages",
                                        cache_fraction=0.8)]
        entries = {}
        for workers in (0, 2):
            store = SweepStore(tmp_path / f"store-{workers}")
            runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
            with pytest.raises(SweepPointError,
                               match="overcommitted-hp-point"):
                runner.run(points, workers=workers, store=store)
            entries[workers] = store.backend.entries()
        assert len(entries[0]) == 2
        assert entries[0] == entries[2]

    def test_unlabelled_points_get_a_synthesised_description(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        bad = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64)
        with pytest.raises(SweepPointError) as excinfo:
            runner.run([bad, bad], workers=2)
        assert "alexnet/hp-baseline" in str(excinfo.value)

    def test_multiple_failures_report_the_first_in_input_order(
            self, monkeypatch):
        """The raised point does not depend on pool scheduling order."""
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # force a real pool
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        first = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                           label="first-bad")
        second = SweepPoint(model=ALEXNET, loader="hp-coordl", num_jobs=64,
                            label="second-bad")
        with pytest.raises(SweepPointError) as excinfo:
            runner.run([first, second], workers=2)
        assert excinfo.value.point_label == "first-bad"


class TestExecutorContract:
    """``run_points`` means the same on every executor: run every point,
    stream each success, then raise the lowest failing input index with
    every failure attached."""

    @pytest.mark.parametrize("kind", ["serial", "pool"])
    def test_successes_stream_then_the_lowest_failure_raises(
            self, kind, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)  # a real pool
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        points = [
            (3, SweepPoint(model=RESNET18, loader="coordl",
                           dataset="openimages", cache_fraction=0.5)),
            (5, SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                           label="bad-64")),
            (8, SweepPoint(model=RESNET18, loader="coordl",
                           dataset="openimages", cache_fraction=0.8)),
            (9, SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=48,
                           label="bad-48")),
        ]
        streamed = []
        with PersistentPool(2, chunksize=1) as pool:
            executor = SERIAL_EXECUTOR if kind == "serial" else pool
            with pytest.raises(SweepPointError) as excinfo:
                executor.run_points(runner, points,
                                    on_record=lambda i, _: streamed.append(i))
        assert sorted(streamed) == [3, 8]
        error = excinfo.value
        assert error.point_label == "bad-64"
        assert sorted(error.failures) == [5, 9]
        assert "48 jobs" in str(error.failures[9][0])
        assert (error.child_traceback is None) == (kind == "serial")


# -- property tests ----------------------------------------------------------

def _make_point(model, loader, fraction):
    if loader in ("hp-baseline", "hp-coordl"):
        return SweepPoint(model=model, loader=loader, dataset="openimages",
                          cache_fraction=fraction, num_jobs=4)
    if loader in ("dist-baseline", "dist-coordl"):
        return SweepPoint(model=model, loader=loader, dataset="openimages",
                          cache_fraction=fraction, num_servers=2, num_epochs=2)
    return SweepPoint(model=model, loader=loader, dataset="openimages",
                      cache_fraction=fraction, num_epochs=2)


_POINTS = st.lists(
    st.builds(_make_point,
              model=st.sampled_from([RESNET18, ALEXNET]),
              loader=st.sampled_from(["coordl", "dali-shuffle", "pytorch",
                                      "hp-coordl", "dist-coordl"]),
              fraction=st.sampled_from([0.3, 0.5, 0.8, 1.1])),
    min_size=1, max_size=4)


@st.composite
def _grid_and_permutation(draw):
    points = draw(_POINTS)
    permuted = draw(st.permutations(points))
    return points, permuted


def _record_map(snapshot):
    """point-config -> record bytes, for order-independent comparison."""
    return {json.dumps(r["point"], sort_keys=True): json.dumps(r, sort_keys=True)
            for r in snapshot["records"]}


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=_grid_and_permutation(), seed=st.integers(min_value=0, max_value=3))
def test_results_are_invariant_to_point_ordering(grid, seed):
    """Permuting the input grid permutes — never changes — the records."""
    points, permuted = grid
    base = SweepRunner(config_ssd_v100, scale=SCALE, seed=seed)
    base_map = _record_map(base.run(points, workers=0).snapshot())
    other = SweepRunner(config_ssd_v100, scale=SCALE, seed=seed)
    permuted_snapshot = other.run(permuted, workers=0).snapshot()
    # Records come back in input order...
    for point, record in zip(permuted, permuted_snapshot["records"]):
        assert record["point"]["model"] == point.model.name
        assert record["point"]["loader"] == point.loader
    # ...and each point's result is byte-identical to its unpermuted run.
    assert _record_map(permuted_snapshot) == base_map


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(grid=_grid_and_permutation(), workers=st.integers(min_value=1, max_value=3))
def test_results_are_invariant_to_worker_count(grid, workers):
    """Pooled runs of a permuted grid reproduce the serial bytes per point."""
    points, permuted = grid
    serial = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
    serial_map = _record_map(serial.run(points, workers=0).snapshot())
    pooled = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
    pooled_map = _record_map(pooled.run(permuted, workers=workers).snapshot())
    assert pooled_map == serial_map
