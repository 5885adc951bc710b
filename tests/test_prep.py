"""Unit tests for the pre-processing cost models and worker pools."""

import pytest

from repro.exceptions import ConfigurationError
from repro.prep.pipeline import GPU_OFFLOAD_EFFICIENCY, PrepPipeline
from repro.prep.transforms import (
    Transform,
    audio_pipeline,
    dali_image_pipeline,
    expansion_factor,
    pillow_image_pipeline,
    pipeline_for_task,
)
from repro.prep.workers import WorkerPool


class TestTransforms:
    def test_cost_scales_with_item_size(self):
        decode = dali_image_pipeline()[0]
        assert decode.cpu_cost(200_000) > decode.cpu_cost(100_000)

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            Transform("bad", cpu_seconds_per_byte=-1.0)

    def test_pillow_is_slower_than_dali(self):
        dali_cost = sum(t.cpu_cost(150_000) for t in dali_image_pipeline())
        pillow_cost = sum(t.cpu_cost(150_000) for t in pillow_image_pipeline())
        assert pillow_cost > 1.5 * dali_cost

    def test_image_pipelines_have_stochastic_stages(self):
        assert any(t.stochastic for t in dali_image_pipeline())
        assert any(t.stochastic for t in audio_pipeline())

    def test_pipeline_for_task_dispatch(self):
        assert pipeline_for_task("audio_classification") == audio_pipeline()
        assert pipeline_for_task("image_classification", "pytorch") == pillow_image_pipeline()
        with pytest.raises(ConfigurationError):
            pipeline_for_task("quantum_chromodynamics")
        with pytest.raises(ConfigurationError):
            pipeline_for_task("audio_classification", "tf-data")

    def test_expansion_factor_matches_paper_range(self):
        # Pre-processed items are 5-7x larger than raw (Sec. 4.3).
        assert 5.0 <= expansion_factor("image_classification") <= 7.0


class TestPrepPipeline:
    def test_calibration_anchor_24_cores_near_735_mbps(self):
        """Fig. 1: the full DALI CPU pipeline sustains ~735 MB/s on 24 cores."""
        pipeline = PrepPipeline.for_task("image_classification")
        pool = WorkerPool(physical_cores=24)
        item_bytes = 150_000.0
        rate = pool.prep_rate(pipeline, item_bytes)        # samples/s
        mbps = rate * item_bytes / 1e6
        assert mbps == pytest.approx(735, rel=0.15)

    def test_gpu_offload_moves_cost_off_the_cpu(self):
        pipeline = PrepPipeline.for_task("image_classification")
        cpu_only = pipeline.sample_cost(150_000, gpu_offload=False)
        offloaded = pipeline.sample_cost(150_000, gpu_offload=True)
        assert offloaded.cpu_core_seconds < cpu_only.cpu_core_seconds
        assert offloaded.gpu_seconds > 0
        assert cpu_only.gpu_seconds == 0

    def test_offloaded_cpu_work_costs_a_quarter_on_the_gpu(self):
        for pipeline in (PrepPipeline.for_task("image_classification"),
                         PrepPipeline.for_task("image_classification")
                         .with_scaled_cost(3.0)):
            cpu_only = pipeline.sample_cost(150_000, gpu_offload=False)
            offloaded = pipeline.sample_cost(150_000, gpu_offload=True)
            moved = cpu_only.cpu_core_seconds - offloaded.cpu_core_seconds
            assert GPU_OFFLOAD_EFFICIENCY == 0.25
            assert offloaded.gpu_seconds == pytest.approx(
                GPU_OFFLOAD_EFFICIENCY * moved, rel=1e-12)

    def test_stochastic_flag_propagates(self):
        pipeline = PrepPipeline.for_task("image_classification")
        assert pipeline.has_stochastic_stage

    def test_prepared_bytes_expand(self):
        pipeline = PrepPipeline.for_task("image_classification")
        assert pipeline.prepared_bytes(100_000) == pytest.approx(600_000)

    def test_cost_scaling(self):
        pipeline = PrepPipeline.for_task("image_classification")
        doubled = pipeline.with_scaled_cost(2.0)
        assert doubled.sample_cost(1e5).cpu_core_seconds == pytest.approx(
            2.0 * pipeline.sample_cost(1e5).cpu_core_seconds)
        with pytest.raises(ConfigurationError):
            pipeline.with_scaled_cost(0.0)

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ConfigurationError):
            PrepPipeline([])


class TestWorkerPool:
    def test_rate_scales_linearly_with_physical_cores(self):
        pipeline = PrepPipeline.for_task("image_classification")
        one = WorkerPool(physical_cores=1).prep_rate(pipeline, 150_000)
        six = WorkerPool(physical_cores=6).prep_rate(pipeline, 150_000)
        assert six == pytest.approx(6 * one, rel=0.01)

    def test_hyperthreads_add_only_marginal_throughput(self):
        """Appendix B.1: doubling threads via SMT adds ~30%, not 100%."""
        pipeline = PrepPipeline.for_task("image_classification")
        physical = WorkerPool(physical_cores=24).prep_rate(pipeline, 150_000)
        smt = WorkerPool(physical_cores=24, hyperthreads=24).prep_rate(pipeline, 150_000)
        assert smt == pytest.approx(physical * 1.3, rel=0.02)

    def test_gpu_offload_raises_rate_when_gpus_available(self):
        pipeline = PrepPipeline.for_task("image_classification")
        cpu = WorkerPool(physical_cores=3).prep_rate(pipeline, 150_000)
        gpu = WorkerPool(physical_cores=3, gpu_offload=True).prep_rate(
            pipeline, 150_000, num_gpus_for_offload=1)
        assert gpu > cpu

    def test_split_divides_resources(self):
        pool = WorkerPool(physical_cores=24)
        per_job = pool.split(8)
        assert per_job.physical_cores == pytest.approx(3.0)
        with pytest.raises(ConfigurationError):
            pool.split(0)

    def test_prep_time_for_batch(self):
        pipeline = PrepPipeline.for_task("image_classification")
        pool = WorkerPool(physical_cores=24)
        t = pool.prep_time_for_batch(pipeline, batch_raw_bytes=512 * 150_000.0,
                                     batch_size=512)
        rate = pool.prep_rate(pipeline, 150_000.0)
        assert t == pytest.approx(512 / rate, rel=0.01)
        assert pool.prep_time_for_batch(pipeline, 0.0, 0) == 0.0

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(physical_cores=0, hyperthreads=0)
