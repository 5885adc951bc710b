"""Tests for the scenario drivers: single-server, distributed, HP search, accuracy."""

import numpy as np
import pytest

from repro.cache.minio import MinIOCache
from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import (ALEXNET, AUDIO_M5, RESNET18, RESNET50,
                                     SSD_RES18)
from repro.datasets import DatasetSpec, SyntheticDataset, get_dataset_spec
from repro.exceptions import ConfigurationError
from repro.sim.accuracy import AccuracyCurve, resnet50_imagenet_curve, time_to_accuracy
from repro.sim.distributed import DistributedTraining
from repro.pipeline.stats import EpochStats
from repro.prep.pipeline import PrepPipeline
from repro.sim.distributed import (
    DistributedEpoch,
    DistributedResult,
    DistributedTraining,
)
from repro.sim.hp_search import HPSearchScenario
from repro.sim.single_server import (
    LOADER_KINDS,
    MIN_BATCHES_PER_EPOCH,
    SingleServerTraining,
    build_loader,
    effective_batch_size,
)


class TestSingleServerTraining:
    def test_all_loader_kinds_build(self, small_dataset, ssd_server):
        expected = effective_batch_size(small_dataset,
                                        RESNET18.batch_size * ssd_server.num_gpus)
        for kind in LOADER_KINDS:
            loader = build_loader(kind, small_dataset, ssd_server, RESNET18)
            assert loader.batch_size() == expected
        explicit = build_loader("dali-shuffle", small_dataset, ssd_server, RESNET18,
                                batch_size=128)
        assert explicit.batch_size() == 128

    def test_unknown_loader_kind_rejected(self, small_dataset, ssd_server):
        with pytest.raises(ConfigurationError):
            build_loader("tf-data", small_dataset, ssd_server, RESNET18)

    def test_coordl_at_least_as_fast_as_dali_when_partially_cached(self, small_dataset,
                                                                   ssd_server):
        server = ssd_server.with_cache_bytes(small_dataset.total_bytes * 0.5)
        training = SingleServerTraining(RESNET18, small_dataset, server, num_epochs=2)
        dali = training.run("dali-shuffle").steady_epoch_time_s
        coordl = training.run("coordl").steady_epoch_time_s
        assert coordl <= dali * 1.01

    def test_coordl_reduces_disk_io_to_capacity_misses(self, small_dataset, ssd_server):
        fraction = 0.6
        server = ssd_server.with_cache_bytes(small_dataset.total_bytes * fraction)
        training = SingleServerTraining(RESNET18, small_dataset, server, num_epochs=2)
        epoch = training.run("coordl").run.steady_epoch()
        assert epoch.cache_miss_ratio == pytest.approx(1 - fraction, abs=0.08)

    def test_requires_warmup_plus_measured_epoch(self, small_dataset, ssd_server):
        with pytest.raises(ConfigurationError):
            SingleServerTraining(RESNET18, small_dataset, ssd_server, num_epochs=1)

    def test_batch_size_clamped_to_keep_batches_per_epoch(self, small_dataset,
                                                          tiny_dataset):
        # 2 000 items: at most 2 000 / 40 = 50 per batch; smaller sizes stay.
        cap = len(small_dataset) // MIN_BATCHES_PER_EPOCH
        assert effective_batch_size(small_dataset, 256) == cap == 50
        assert effective_batch_size(small_dataset, 16) == 16
        # Tiny datasets still get 32-sample batches, and never an empty one.
        assert effective_batch_size(tiny_dataset, 256) == 32
        assert effective_batch_size(tiny_dataset, 0) == 1

    def test_fully_cached_run_has_no_fetch_stall(self, small_dataset, ssd_server):
        server = ssd_server.with_cache_bytes(small_dataset.total_bytes * 1.5)
        training = SingleServerTraining(RESNET50, small_dataset, server, num_epochs=2)
        epoch = training.run("coordl").run.steady_epoch()
        assert epoch.fetch_stall_fraction < 0.02


class TestDistributedTraining:
    def _servers(self, dataset, fraction, n=2):
        return [config_hdd_1080ti(cache_bytes=dataset.total_bytes * fraction)
                for _ in range(n)]

    def test_partitioned_cache_eliminates_disk_io_when_covered(self, small_dataset):
        servers = self._servers(small_dataset, 0.6)
        training = DistributedTraining(RESNET18, small_dataset, servers, num_epochs=2)
        coordl = training.run_coordl()
        steady = coordl.steady_epochs()[-1]
        assert steady.total_disk_bytes == 0.0
        assert steady.total_remote_bytes > 0.0

    def test_coordl_beats_baseline_on_hdd(self, small_dataset):
        servers = self._servers(small_dataset, 0.6)
        training = DistributedTraining(ALEXNET, small_dataset, servers, num_epochs=2)
        baseline = training.run_baseline()
        coordl = training.run_coordl()
        assert coordl.steady_epoch_time_s < baseline.steady_epoch_time_s / 2

    def test_job_epoch_time_is_slowest_server(self, small_dataset):
        servers = self._servers(small_dataset, 0.5)
        training = DistributedTraining(RESNET18, small_dataset, servers, num_epochs=2)
        epoch = training.run_baseline().epochs[-1]
        assert epoch.epoch_time_s == max(s.epoch_time_s for s in epoch.per_server)

    def test_validation(self, small_dataset, hdd_server):
        with pytest.raises(ConfigurationError):
            DistributedTraining(RESNET18, small_dataset, [hdd_server], num_epochs=2)
        with pytest.raises(ConfigurationError):
            DistributedTraining(RESNET18, small_dataset, [hdd_server, hdd_server],
                                num_epochs=1)

    def test_steady_epochs_skip_only_the_warmup_epoch(self):
        def epoch(*times):
            return DistributedEpoch([
                EpochStats(epoch_time_s=t, gpu_time_s=1.0,
                           prep_limited_time_s=1.0, samples=100)
                for t in times])

        warm, first, second = epoch(9.0, 8.0), epoch(4.0, 5.0), epoch(3.0, 2.0)
        result = DistributedResult("dist-coordl", [warm, first, second])
        assert result.steady_epochs() == [first, second]
        assert result.steady_epoch_time_s == pytest.approx((5.0 + 3.0) / 2)
        assert result.steady_throughput == pytest.approx((200 / 5 + 200 / 3) / 2)
        single = DistributedResult("dist-coordl", [warm])
        assert single.steady_epochs() == [warm]
        assert single.steady_epoch_time_s == 9.0


class TestHPSearchScenario:
    def test_coordl_faster_than_baseline_with_partial_cache(self, small_dataset,
                                                            ssd_server):
        scenario = HPSearchScenario(ALEXNET, small_dataset, ssd_server, num_jobs=8,
                                    gpus_per_job=1,
                                    cache_bytes=small_dataset.total_bytes * 0.5)
        assert scenario.speedup() > 1.2

    def test_coordinated_prep_removes_redundant_fetches(self, small_dataset, ssd_server):
        scenario = HPSearchScenario(ALEXNET, small_dataset, ssd_server, num_jobs=8,
                                    gpus_per_job=1,
                                    cache_bytes=small_dataset.total_bytes * 0.5)
        baseline = scenario.run_baseline()
        coordl = scenario.run_coordl()
        # The baseline reads (several times) more bytes from disk per epoch.
        assert baseline.disk_bytes_per_epoch > 3 * coordl.disk_bytes_per_epoch
        assert coordl.staging_peak_bytes > 0

    @pytest.mark.parametrize("dataset_name, model, server_config", [
        pytest.param("openimages", RESNET18, config_ssd_v100,
                     id="openimages"),
        pytest.param("imagenet-1k", RESNET50, config_hdd_1080ti,
                     id="imagenet-1k"),
        pytest.param("openimages-detection", SSD_RES18, config_ssd_v100,
                     id="openimages-detection"),
    ])
    @pytest.mark.parametrize("num_jobs, seed", [(1, 0), (4, 7), (8, 12345)])
    def test_staging_peak_is_the_largest_prepared_minibatch(
            self, dataset_name, model, server_config, num_jobs, seed):
        """In lockstep every job consumes a staged minibatch before the
        next is produced, so the staging area's peak is its largest
        prepared minibatch: the left-to-right item sum of one
        ``batch_size`` slice of the ``(seed, 0, 0xC00D)`` permutation, bit
        for bit.  It stays far below the prepared dataset (Sec. 5.5)."""
        dataset = SyntheticDataset(get_dataset_spec(dataset_name),
                                   scale=1.0 / 200.0)
        server = server_config(cache_bytes=dataset.total_bytes * 0.5)
        scenario = HPSearchScenario(model, dataset, server,
                                    num_jobs=num_jobs, seed=seed)
        prep = PrepPipeline.for_dataset(dataset)
        prepared = [prep.prepared_bytes(dataset.item_size(int(item)))
                    for item in np.random.default_rng(
                        (seed, 0, 0xC00D)).permutation(len(dataset))]
        batch = scenario.batch_size
        largest = max(sum(prepared[start:start + batch])
                      for start in range(0, len(prepared), batch))
        peak = scenario.run_coordl().staging_peak_bytes
        assert peak == largest
        assert peak < 0.1 * sum(prepared)

    def test_a_dataset_smaller_than_one_batch_is_staged_whole(self,
                                                                ssd_server):
        """With fewer items than one minibatch the epoch is one staged
        batch, so the peak is the whole prepared dataset."""
        spec = DatasetSpec("one-batch", "image_classification", 100, 110_000.0)
        dataset = SyntheticDataset(spec, seed=0)
        scenario = HPSearchScenario(RESNET18, dataset, ssd_server, num_jobs=2,
                                    seed=4)
        assert scenario.batch_size > len(dataset)
        prep = PrepPipeline.for_dataset(dataset)
        order = np.random.default_rng((4, 0, 0xC00D)).permutation(len(dataset))
        assert scenario.run_coordl().staging_peak_bytes == sum(
            prep.prepared_bytes(dataset.item_size(int(item))) for item in order)

    @pytest.mark.parametrize("num_jobs", [1, 4, 8])
    def test_a_cold_coordinated_epoch_reads_every_item_once(
            self, small_dataset, ssd_server, num_jobs):
        """Coordinated prep sweeps the dataset once for all jobs
        (Sec. 4.3): from a cold cache, one epoch misses every item exactly
        once, whatever the job count."""
        scenario = HPSearchScenario(RESNET18, small_dataset, ssd_server,
                                    num_jobs=num_jobs, seed=3)
        cold = scenario.run_epoch(MinIOCache(ssd_server.cache_bytes), 0,
                                  coordinated=True)
        assert cold.miss_ratio == 1.0
        assert cold.disk_bytes == pytest.approx(small_dataset.total_bytes,
                                                rel=1e-12)

    def test_coordinated_traffic_and_staging_do_not_grow_with_the_job_count(
            self, small_dataset, ssd_server):
        """The jobs share one sweep and one staged copy of each minibatch,
        so CoorDL's disk bytes and staging peak stay put as jobs are
        added, while the uncoordinated jobs read ever more from disk."""
        cache_bytes = small_dataset.total_bytes * 0.5
        scenarios = [HPSearchScenario(RESNET18, small_dataset, ssd_server,
                                      num_jobs=jobs, cache_bytes=cache_bytes,
                                      seed=3)
                     for jobs in (1, 2, 4, 8)]
        coordl = [scenario.run_coordl() for scenario in scenarios]
        assert len({result.disk_bytes_per_epoch for result in coordl}) == 1
        assert len({result.staging_peak_bytes for result in coordl}) == 1
        baseline = [scenario.run_baseline().disk_bytes_per_epoch
                    for scenario in scenarios]
        assert all(fewer < more for fewer, more
                   in zip(baseline, baseline[1:]))

    def test_pytorch_baseline_is_slowest_and_coordl_fastest(self, small_dataset,
                                                             ssd_server):
        """Fig. 23's ranking: Pillow prep makes the PyTorch DL slower than
        DALI; both share the page cache, so they read the same bytes."""
        scenario = HPSearchScenario(ALEXNET, small_dataset, ssd_server, num_jobs=8,
                                    gpus_per_job=1,
                                    cache_bytes=small_dataset.total_bytes * 0.5)
        pytorch = scenario.run_baseline(library="pytorch")
        dali = scenario.run_baseline(library="dali")
        coordl = scenario.run_coordl()
        assert pytorch.loader_name == "pytorch-uncoordinated"
        assert dali.loader_name == "dali-uncoordinated"
        assert coordl.epoch_time_s < dali.epoch_time_s < pytorch.epoch_time_s
        assert pytorch.disk_bytes_per_epoch == dali.disk_bytes_per_epoch

    def test_unknown_baseline_library_rejected(self, small_dataset, ssd_server):
        scenario = HPSearchScenario(ALEXNET, small_dataset, ssd_server, num_jobs=8)
        with pytest.raises(ConfigurationError):
            scenario.run_baseline(library="tf-data")

    def test_fully_cached_speedup_comes_from_prep_only(self, small_dataset, ssd_server):
        scenario = HPSearchScenario(ALEXNET, small_dataset, ssd_server, num_jobs=8,
                                    gpus_per_job=1,
                                    cache_bytes=small_dataset.total_bytes * 1.5)
        baseline = scenario.run_baseline()
        coordl = scenario.run_coordl()
        assert baseline.disk_bytes_per_epoch == 0.0
        assert baseline.prep_bound or baseline.gpu_bound
        assert coordl.epoch_time_s <= baseline.epoch_time_s

    def test_gpu_oversubscription_rejected(self, small_dataset, ssd_server):
        with pytest.raises(ConfigurationError):
            HPSearchScenario(ALEXNET, small_dataset, ssd_server, num_jobs=8,
                             gpus_per_job=2)

    def test_non_positive_jobs_or_gpus_rejected(self, small_dataset, ssd_server):
        for jobs, gpus in ((0, 1), (8, 0)):
            with pytest.raises(ConfigurationError):
                HPSearchScenario(ALEXNET, small_dataset, ssd_server,
                                 num_jobs=jobs, gpus_per_job=gpus)

    def test_audio_model_is_io_bound_then_fixed_by_coordl(self, ssd_server):
        from repro.datasets.catalog import FMA
        from repro.datasets.dataset import SyntheticDataset
        fma = SyntheticDataset(FMA, seed=0, scale=1 / 500)
        scenario = HPSearchScenario(AUDIO_M5, fma, ssd_server, num_jobs=8,
                                    gpus_per_job=1,
                                    cache_bytes=fma.total_bytes * 0.45)
        baseline = scenario.run_baseline()
        assert baseline.fetch_bound
        assert scenario.speedup() > 2.0


class TestAccuracyModel:
    def test_curve_is_monotone_and_saturating(self):
        curve = resnet50_imagenet_curve()
        accuracies = [curve.accuracy_at_epoch(e) for e in range(0, 120, 10)]
        assert accuracies == sorted(accuracies)
        assert accuracies[-1] < curve.max_accuracy

    def test_target_reached_in_reasonable_epochs(self):
        curve = resnet50_imagenet_curve()
        epochs = curve.epochs_to_accuracy(0.759)
        assert 60 <= epochs <= 120
        assert curve.accuracy_at_epoch(epochs) == pytest.approx(0.759, abs=1e-6)

    def test_unreachable_target_rejected(self):
        with pytest.raises(ConfigurationError):
            resnet50_imagenet_curve().epochs_to_accuracy(0.99)

    def test_time_to_accuracy_scales_with_epoch_time(self):
        curve = resnet50_imagenet_curve()
        slow = time_to_accuracy("dali", 3600.0, curve, 0.759)
        fast = time_to_accuracy("coordl", 900.0, curve, 0.759)
        assert slow.epochs_needed == pytest.approx(fast.epochs_needed)
        assert slow.time_to_accuracy_s == pytest.approx(4 * fast.time_to_accuracy_s)
        assert len(fast.trajectory) >= int(fast.epochs_needed)

    def test_curve_validation(self):
        with pytest.raises(ConfigurationError):
            AccuracyCurve(max_accuracy=1.5)
        with pytest.raises(ConfigurationError):
            AccuracyCurve(tau_epochs=0)
