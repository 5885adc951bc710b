"""Unit tests for the pipelined epoch simulation engine."""

import pytest

from repro.compute.gpu import V100
from repro.compute.model_zoo import RESNET18, RESNET50
from repro.exceptions import ConfigurationError, SimulationError
from repro.pipeline.dali import DALILoader
from repro.pipeline.stats import EpochStats, TrainingRunStats
from repro.sim.engine import PipelineSimulator, pipeline_makespan


class TestPipelineMakespan:
    def test_single_batch_is_sum_of_stages(self):
        assert pipeline_makespan([[1.0], [2.0], [3.0]]) == pytest.approx(6.0)

    def test_bottleneck_stage_dominates_long_epochs(self):
        n = 100
        fetch = [0.1] * n
        prep = [1.0] * n       # bottleneck
        gpu = [0.2] * n
        makespan = pipeline_makespan([fetch, prep, gpu])
        assert makespan == pytest.approx(n * 1.0, rel=0.05)

    def test_pipelining_beats_serial_execution(self):
        n = 50
        stages = [[0.5] * n, [0.5] * n, [0.5] * n]
        serial = 3 * 0.5 * n
        assert pipeline_makespan(stages) < serial * 0.5

    def test_queue_depth_limits_how_far_fetch_runs_ahead(self):
        # Fast fetch, slow GPU: with depth 1 the fetch stage is throttled, so
        # the makespan cannot be shorter than with a large queue.
        n = 20
        stages = [[0.1] * n, [0.1] * n, [1.0] * n]
        deep = pipeline_makespan(stages, queue_depth=16)
        shallow = pipeline_makespan(stages, queue_depth=1)
        assert shallow >= deep

    def test_empty_epoch(self):
        assert pipeline_makespan([[], [], []]) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            pipeline_makespan([[1.0]], queue_depth=0)
        with pytest.raises(ConfigurationError):
            pipeline_makespan([])
        with pytest.raises(SimulationError):
            pipeline_makespan([[1.0], [1.0, 2.0]])


class TestPipelineSimulator:
    def _loader(self, dataset, server, cache_fraction=0.5, batch_size=32):
        server = server.with_cache_bytes(dataset.total_bytes * cache_fraction)
        return DALILoader.build(dataset, server, batch_size, mode="shuffle")

    def test_epoch_stats_are_consistent(self, tiny_dataset, ssd_server):
        loader = self._loader(tiny_dataset, ssd_server)
        sim = PipelineSimulator(RESNET18, V100)
        stats = sim.run_epoch(loader, 0)
        assert stats.samples == len(tiny_dataset)
        assert stats.epoch_time_s >= stats.prep_limited_time_s >= 0
        assert stats.epoch_time_s >= stats.gpu_time_s
        assert stats.prep_stall_s + stats.fetch_stall_s == pytest.approx(
            stats.data_stall_s)
        assert 0.0 <= stats.data_stall_fraction <= 1.0
        assert stats.cache_hits + stats.cache_misses == len(tiny_dataset)

    def test_warm_cache_makes_later_epochs_faster(self, tiny_dataset, hdd_server):
        loader = self._loader(tiny_dataset, hdd_server, cache_fraction=0.9)
        sim = PipelineSimulator(RESNET18, hdd_server.gpu)
        epochs = sim.run_epochs(loader, 2)
        assert epochs[1].epoch_time_s < epochs[0].epoch_time_s
        assert epochs[1].io.disk_bytes < epochs[0].io.disk_bytes

    def test_gpu_time_matches_model_rate(self, tiny_dataset, ssd_server):
        loader = self._loader(tiny_dataset, ssd_server)
        sim = PipelineSimulator(RESNET50, V100)
        stats = sim.run_epoch(loader, 0)
        expected = len(tiny_dataset) / RESNET50.aggregate_gpu_rate(
            V100, loader.num_gpus, gpu_prep_active=loader.uses_gpu_prep)
        assert stats.gpu_time_s == pytest.approx(expected, rel=0.01)

    def test_heavier_model_has_smaller_stall_fraction(self, tiny_dataset, ssd_server):
        """Compute-heavy models hide the data pipeline better (Sec. 3.3)."""
        loader_light = self._loader(tiny_dataset, ssd_server, cache_fraction=0.35)
        loader_heavy = self._loader(tiny_dataset, ssd_server, cache_fraction=0.35)
        light = PipelineSimulator(RESNET18, V100).run_epochs(loader_light, 2)[-1]
        heavy = PipelineSimulator(RESNET50, V100).run_epochs(loader_heavy, 2)[-1]
        assert heavy.data_stall_fraction < light.data_stall_fraction

    def test_run_epochs_validation(self, tiny_dataset, ssd_server):
        loader = self._loader(tiny_dataset, ssd_server)
        sim = PipelineSimulator(RESNET18, V100)
        with pytest.raises(ConfigurationError):
            sim.run_epochs(loader, 0)

    def test_run_epochs_numbers_epochs_from_zero(self, tiny_dataset, hdd_server):
        sim = PipelineSimulator(RESNET18, hdd_server.gpu)
        together = sim.run_epochs(self._loader(tiny_dataset, hdd_server), 2)
        loader = self._loader(tiny_dataset, hdd_server)
        one_by_one = [sim.run_epoch(loader, 0), sim.run_epoch(loader, 1)]
        assert ([(e.epoch_time_s, e.cache_hits) for e in together]
                == [(e.epoch_time_s, e.cache_hits) for e in one_by_one])


class TestTrainingRunStats:
    """The paper's convention (Sec. 3.1): drop the cold-cache first epoch."""

    @staticmethod
    def _epoch(epoch_time_s):
        return EpochStats(epoch_time_s=epoch_time_s, gpu_time_s=1.0,
                          prep_limited_time_s=1.0, samples=100)

    def test_steady_state_skips_only_the_warmup_epoch(self):
        run = TrainingRunStats()
        for epoch_time_s in (10.0, 4.0, 2.0):
            run.add(self._epoch(epoch_time_s))
        assert run.num_epochs == 3
        assert run.steady_state() == run.epochs[1:]
        assert run.mean_epoch_time() == pytest.approx(3.0)
        assert run.mean_throughput() == pytest.approx((25.0 + 50.0) / 2)
        assert run.steady_epoch() is run.epochs[-1]

    def test_single_epoch_run_is_its_own_steady_state(self):
        run = TrainingRunStats()
        assert run.steady_state() == []
        assert run.mean_epoch_time() == 0.0
        assert run.mean_throughput() == 0.0
        only = self._epoch(5.0)
        run.add(only)
        assert run.steady_state() == [only]
        assert run.mean_epoch_time() == 5.0
        assert run.steady_epoch() is only
