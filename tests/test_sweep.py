"""Unit tests for the SweepRunner subsystem and the vectorised fast path."""

import dataclasses
import math

import numpy as np
import pytest

from repro.cluster.configs import config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.datasets.sampler import RandomSampler
from repro.exceptions import ConfigurationError, SweepPointError
from repro.sim.engine import PipelineSimulator
from repro.sim.harness import GOLDEN_GRIDS
from repro.sim.single_server import build_loader
from repro.sim.sweep import POINT_KINDS, SweepPoint, SweepRunner

SCALE = 1 / 500.0

#: A valid non-default value for every kind-specific SweepPoint field.
NON_DEFAULT = dict(cores=4.0, num_gpus=4, batch_size=64, gpu_prep=True,
                   num_jobs=3, gpus_per_job=2, num_servers=3,
                   crash_schedule=((1, 0),), membership_schedule=((1, 3),),
                   straggler_factors=(2.0,), tenants=3)


class TestSweepPoint:
    def test_rejects_unknown_loader(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(model=RESNET18, loader="nope")

    def test_rejects_conflicting_cache_settings(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(model=RESNET18, cache_fraction=0.5, cache_bytes=1e9)

    def test_rejects_single_epoch_training_points(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(model=RESNET18, loader="coordl", num_epochs=1)
        # HP-search points do not use num_epochs
        SweepPoint(model=RESNET18, loader="hp-coordl", num_epochs=1)

    def test_rejects_fields_the_point_kind_does_not_plumb(self):
        """Inapplicable knobs error out instead of silently simulating without them."""
        specific = {name for kind in POINT_KINDS.values() for name in kind.fields}
        assert specific == set(NON_DEFAULT)
        for loader, kind in POINT_KINDS.items():
            for field in sorted(specific - set(kind.fields)):
                with pytest.raises(ConfigurationError, match="do not support"):
                    SweepPoint(model=RESNET18, loader=loader,
                               **{field: NON_DEFAULT[field]})
            # ...while each kind keeps its own knobs.
            SweepPoint(model=RESNET18, loader=loader,
                       **{field: NON_DEFAULT[field] for field in kind.fields})
        # Pillow preps on the CPU only, so the PyTorch DataLoader kinds
        # take no gpu_prep (it used to be accepted and ignored).
        for loader in ("pytorch", "pycoordl"):
            for gpu_prep in (True, False):
                with pytest.raises(ConfigurationError, match="do not support"):
                    SweepPoint(model=RESNET18, loader=loader, gpu_prep=gpu_prep)

    def test_distinct_points_describe_distinctly(self, monkeypatch):
        """Without labels, every point of a grid still has its own
        description, so an error message locates the failing point."""
        grids = [[dataclasses.replace(point, label="")
                  for point in grid.points()]
                 for grid in GOLDEN_GRIDS.values()]

        class Captured(Exception):
            pass

        def capture(runner, points, **kwargs):
            raise Captured(list(points))

        from repro.experiments import fig9e_hp_multigpu
        monkeypatch.setattr(SweepRunner, "run", capture)
        with pytest.raises(Captured) as captured:
            fig9e_hp_multigpu.run()
        grids.append(captured.value.args[0])
        for points in grids:
            descriptions = [point.describe() for point in points]
            assert len(set(descriptions)) == len(points), descriptions
        assert (SweepPoint(model=RESNET18, loader="hp-coordl", num_jobs=4,
                           gpus_per_job=2, dataset="openimages").describe()
                == "resnet18/hp-coordl/openimages/num_jobs=4/gpus_per_job=2")

    def test_rejects_too_few_distributed_servers(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(model=RESNET18, loader="dist-coordl", num_servers=1)

    def test_grid_is_a_cross_product(self):
        points = SweepRunner.grid(models=[RESNET18, ALEXNET],
                                  loaders=["coordl", "dali-shuffle"],
                                  cache_fractions=(0.35, 0.65),
                                  dataset="openimages")
        assert len(points) == 8
        assert {p.loader for p in points} == {"coordl", "dali-shuffle"}
        assert all(p.dataset == "openimages" for p in points)


class TestSweepRunner:
    def test_training_sweep_produces_one_record_per_point(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        points = SweepRunner.grid(models=[RESNET18],
                                  loaders=["coordl", "dali-shuffle"],
                                  cache_fractions=(0.35, 0.8),
                                  dataset="openimages")
        sweep = runner.run(points)
        assert len(sweep) == 4
        for record in sweep:
            assert record.run is not None
            assert record.run.num_epochs == 2
            assert record.steady.epoch_time_s > 0
        # a bigger cache never slows CoorDL down
        small = sweep.one(loader="coordl", cache_fraction=0.35).steady
        large = sweep.one(loader="coordl", cache_fraction=0.8).steady
        assert large.epoch_time_s <= small.epoch_time_s * 1.001

    def test_shared_dataset_and_sampler_instances(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        assert runner.dataset("openimages") is runner.dataset("openimages")
        d = runner.dataset("openimages")
        assert (runner._samplers.sampler(len(d), 0)
                is runner._samplers.sampler(len(d), 0))

    def test_hp_grid_draws_each_job_permutation_once(self, monkeypatch):
        """Two models' hp-baseline and hp-coordl points in one runner draw
        every (seed, job, epoch) permutation once: the streams do not
        depend on the model."""
        draws = []
        epoch = RandomSampler.epoch

        def counted(sampler, epoch_index):
            draws.append((sampler._seed, epoch_index))
            return epoch(sampler, epoch_index)

        monkeypatch.setattr(RandomSampler, "epoch", counted)
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        sweep = runner.run(SweepRunner.grid(
            models=[RESNET18, ALEXNET], loaders=["hp-baseline", "hp-coordl"],
            cache_fractions=[0.5], dataset="openimages", num_jobs=3),
            workers=0, store=False)
        assert len(sweep) == 4
        seed = runner.point_seed(sweep.records[0].point)
        expected = {((seed, job), e) for job in (0, 1, 2, 0xC0) for e in (0, 1)}
        assert sorted(draws) == sorted(expected)

    def test_filter_and_one(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        sweep = runner.run(SweepRunner.grid(
            models=[RESNET18], loaders=["coordl"], cache_fractions=(0.35, 0.8),
            dataset="openimages"))
        assert len(sweep.filter(loader="coordl")) == 2
        assert sweep.one(cache_fraction=0.8).point.cache_fraction == 0.8
        with pytest.raises(ConfigurationError):
            sweep.one(loader="coordl")  # two matches
        with pytest.raises(ConfigurationError):
            sweep.filter(not_a_field=1)

    def test_rows_are_tidy(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        sweep = runner.run([SweepPoint(model=RESNET18, loader="coordl",
                                       dataset="openimages", cache_fraction=0.5)])
        (row,) = sweep.rows()
        assert row["model"] == "resnet18"
        assert row["epoch_time_s"] > 0
        assert row["cache_miss_ratio"] >= 0

    @pytest.mark.parametrize("budget", ["cache_fraction", "cache_bytes"])
    def test_nan_cache_budget_fails_its_point(self, budget):
        """A NaN budget passes no comparison, so it must fail the server's
        range check rather than simulate a fully cached job."""
        point = SweepPoint(model=RESNET18, loader="dali-shuffle",
                           dataset="openimages", num_epochs=2,
                           **{budget: math.nan})
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        with pytest.raises(SweepPointError, match="cache budget") as excinfo:
            runner.run([point], workers=0, store=False)
        assert isinstance(excinfo.value.__cause__, ConfigurationError)

    def test_hp_search_points(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        sweep = runner.run(SweepRunner.grid(
            models=[ALEXNET], loaders=["hp-baseline", "hp-coordl"],
            cache_fractions=(0.65,), num_jobs=4))
        baseline = sweep.one(loader="hp-baseline")
        coordl = sweep.one(loader="hp-coordl")
        assert baseline.hp is not None and coordl.hp is not None
        assert baseline.run is None
        with pytest.raises(ConfigurationError):
            _ = baseline.steady
        # CoorDL coordinates the jobs: never slower, reads no more disk.
        assert coordl.hp.epoch_time_s <= baseline.hp.epoch_time_s * 1.001
        assert coordl.hp.disk_bytes_per_epoch <= baseline.hp.disk_bytes_per_epoch * 1.001

    def test_dataset_defaults_to_the_models_dataset(self):
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        sweep = runner.run([SweepPoint(model=ALEXNET, loader="coordl",
                                       cache_fraction=0.5)])
        # scaled specs carry an "@scale" suffix on the catalog name
        assert sweep.records[0].dataset_name.startswith(ALEXNET.default_dataset)

    def test_points_differing_only_in_model_replay_each_stream_once(
            self, monkeypatch):
        """Both models train at one batch size, so their HP-search points
        interleave the same streams through the same page cache: the
        runner's replay memo runs the kernel once per stream (warm-up and
        measured epoch), and each record is byte-identical to simulating
        its point in a runner of its own."""
        from repro.cache import page_cache

        kernel = page_cache.simulate_segmented_lru
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return kernel(*args, **kwargs)

        monkeypatch.setattr(page_cache, "simulate_segmented_lru", counting)
        points = SweepRunner.grid(models=[ALEXNET, RESNET18],
                                  loaders=["hp-baseline"],
                                  cache_fractions=(0.65,), num_jobs=8)
        runner = SweepRunner(config_ssd_v100, scale=1 / 400.0, seed=0)
        shared = runner.run(points, workers=0, store=False)
        assert len(calls) == 2
        for point, record in zip(points, shared):
            alone = SweepRunner(config_ssd_v100, scale=1 / 400.0, seed=0).run(
                [point], workers=0, store=False).records[0]
            assert (alone.snapshot(include_timeline=True)
                    == record.snapshot(include_timeline=True))
        assert len(calls) == 6


class TestFastPathEquivalence:
    """The vectorised epoch collection must be bit-faithful to the loop."""

    @pytest.mark.parametrize("kind", ["coordl", "dali-shuffle", "pytorch"])
    def test_fast_and_slow_paths_agree(self, kind, reference_paths):
        points = SweepRunner.grid(
            models=[RESNET18], loaders=[kind], cache_fractions=(0.5,),
            dataset="openimages", num_epochs=3)

        def sweep():
            runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
            return runner.run(points, workers=0, store=False)

        with reference_paths() as calls:
            slow = sweep().records[0].run
        assert calls["batch_walks"] == 3
        fast = sweep().records[0].run
        for slow_epoch, fast_epoch in zip(slow.epochs, fast.epochs):
            assert fast_epoch.epoch_time_s == pytest.approx(
                slow_epoch.epoch_time_s, abs=1e-9)
            assert fast_epoch.prep_limited_time_s == pytest.approx(
                slow_epoch.prep_limited_time_s, abs=1e-9)
            assert fast_epoch.gpu_time_s == pytest.approx(
                slow_epoch.gpu_time_s, abs=1e-9)
            assert fast_epoch.samples == slow_epoch.samples
            assert fast_epoch.cache_hits == slow_epoch.cache_hits
            assert fast_epoch.cache_misses == slow_epoch.cache_misses
            assert fast_epoch.io.disk_requests == slow_epoch.io.disk_requests
            assert fast_epoch.io.cache_requests == slow_epoch.io.cache_requests
            assert fast_epoch.io.disk_bytes == pytest.approx(
                slow_epoch.io.disk_bytes, rel=1e-12)
            slow_tl = slow_epoch.io.timeline
            fast_tl = fast_epoch.io.timeline
            assert len(slow_tl) == len(fast_tl)
            if slow_tl:
                assert np.allclose([t for t, _ in slow_tl], [t for t, _ in fast_tl],
                                   atol=1e-9)
                assert np.allclose([b for _, b in slow_tl], [b for _, b in fast_tl],
                                   rtol=1e-12)

    def test_fast_path_declines_shared_caches_with_history(
            self, reference_paths):
        """A warm page cache shared across loaders still simulates exactly."""
        runner = SweepRunner(config_ssd_v100, scale=SCALE, seed=0)
        dataset = runner.dataset("openimages")
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * 0.5)

        def epoch_times():
            loader = build_loader("dali-shuffle", dataset, server, RESNET18, seed=0)
            sim = PipelineSimulator(RESNET18, server.gpu)
            return [e.epoch_time_s for e in sim.run_epochs(loader, 3)]

        with reference_paths() as calls:
            slow = epoch_times()
        assert calls["batch_walks"] == 3
        assert epoch_times() == pytest.approx(slow, abs=1e-9)
