"""Tests for the persistent sweep worker pool (``repro.store.PersistentPool``).

The pool's contract: workers outlive individual ``run()`` calls (pid
stability across consecutive runs — the PR 3 "amortise spawn" open item),
per-worker dataset/sampler caches are shared across runner configurations
(the PR 3 "shared dataset materialisation" open item), results stay
byte-identical to the serial executor, failures keep the labelled
``SweepPointError`` protocol, and store hits never touch the pool.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.exceptions import ConfigurationError, SweepPointError
from repro.sim.sweep import SweepPoint, SweepRunner
from repro.store import PersistentPool, SweepStore

SCALE = 1 / 500.0


def _grid(cache_fractions=(0.4, 0.8)):
    return SweepRunner.grid(models=[RESNET18], loaders=["coordl", "dali-shuffle"],
                            cache_fractions=cache_fractions,
                            dataset="openimages")


@pytest.fixture(scope="module")
def pool():
    """One spawn pool shared by the whole module (spawning is the point)."""
    with PersistentPool(2) as shared:
        yield shared


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            PersistentPool(0)

    def test_rejects_bad_chunksize(self):
        with pytest.raises(ConfigurationError):
            PersistentPool(2, chunksize=0)


class TestWorkerReuse:
    def test_workers_survive_consecutive_runs_and_results_are_exact(self, pool):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        serial = runner.run(_grid(), workers=0, store=False).snapshot()

        runs_before = pool.runs
        first = SweepRunner(config_ssd_v100, scale=SCALE, seed=0).run(
            _grid(), pool=pool, store=False).snapshot()
        pids_after_first = set(pool.pids_seen)
        second = SweepRunner(config_ssd_v100, scale=SCALE, seed=0).run(
            _grid(), pool=pool, store=False).snapshot()
        pids_after_second = set(pool.pids_seen)

        assert first == serial and second == serial
        assert pool.runs == runs_before + 2
        # The reuse assertion: the second run introduced no new worker
        # process, and the pool never used more than its configured size.
        assert pids_after_second == pids_after_first
        assert 1 <= len(pids_after_second) <= pool.workers
        assert pool.last_run_pids <= pids_after_second

    def test_substrate_caches_are_shared_across_runner_specs(self, pool):
        """Two different runner configurations (same dataset, seed and
        scale) served by one pool materialise the dataset once per worker:
        the worker-side dataset cache keys by (name, seed, scale), not by
        runner."""
        for factory in (config_ssd_v100, config_hdd_1080ti):
            SweepRunner(factory, scale=SCALE, seed=0).run(
                _grid(cache_fractions=(0.5,)), pool=pool, store=False)
        for pid, (runners, datasets, samplers) in pool.probe().items():
            if runners >= 2:
                # This worker served both specs, yet holds one dataset.
                assert datasets == 1
            assert datasets <= 1 or samplers >= 1

    def test_failures_keep_the_labelled_error_protocol(self, pool):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        good = SweepPoint(model=RESNET18, loader="coordl",
                          dataset="openimages", cache_fraction=0.5)
        bad = SweepPoint(model=ALEXNET, loader="hp-baseline", num_jobs=64,
                         label="overcommitted-hp-point")
        with pytest.raises(SweepPointError) as excinfo:
            runner.run([good, bad], pool=pool, store=False)
        error = excinfo.value
        assert error.point_label == "overcommitted-hp-point"
        assert isinstance(error.__cause__, ConfigurationError)
        assert error.child_traceback is not None

    def test_store_hits_never_touch_the_pool(self, pool, tmp_path):
        store = SweepStore(tmp_path / "store")
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        cold = runner.run(_grid(), pool=pool, store=store).snapshot()
        runs_after_cold = pool.runs

        warm_store = SweepStore(tmp_path / "store")
        warm = SweepRunner(config_ssd_v100, scale=SCALE, seed=0).run(
            _grid(), pool=pool, store=warm_store).snapshot()
        assert warm == cold
        assert warm_store.hits == len(_grid()) and warm_store.misses == 0
        assert pool.runs == runs_after_cold  # the warm run enqueued nothing


class TestLifecycle:
    def test_close_is_idempotent_and_the_pool_rebuilds(self):
        pool = PersistentPool(1)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        points = _grid(cache_fractions=(0.5,))
        first = runner.run(points, pool=pool, store=False).snapshot()
        pool.close()
        pool.close()
        # A closed pool lazily rebuilds on the next run.
        second = SweepRunner(config_ssd_v100, scale=SCALE, seed=0).run(
            points, pool=pool, store=False).snapshot()
        pool.close()
        assert first == second

    def test_empty_point_list_is_a_noop(self):
        pool = PersistentPool(1)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert pool.run_points(runner, []) == []
        assert pool.runs == 0
        pool.close()

    def test_workers_that_never_finish_a_task_name_the_missing_main_guard(
            self, tmp_path):
        """A script that starts a pool sweep at module level, without an
        ``if __name__ == "__main__":`` guard: every spawned worker re-runs
        it and dies bootstrapping, so no task ever finishes (2 workers, at
        most 8 with the respawns).  The lost-points error says so and
        names the guard."""
        script = tmp_path / "unguarded.py"
        script.write_text(textwrap.dedent("""
            from repro.exceptions import SweepPointError
            from repro.sim.harness import run_golden_grid
            try:
                run_golden_grid("fig9b_small", workers=2)
            except SweepPointError as error:
                print(error)
        """))
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=240)
        # Dying workers write their tracebacks to the shared stderr, so
        # the parent reports the error on stdout, where nothing else goes.
        message = proc.stdout.strip()
        assert message.startswith("sweep workers kept dying"), (
            proc.stdout + proc.stderr[-2000:])
        assert "no worker finished a task" in message
        assert 'if __name__ == "__main__":' in message
