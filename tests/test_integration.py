"""Integration tests: end-to-end scenarios crossing several subsystems."""

from __future__ import annotations

import pytest

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALEXNET, BERT_LARGE, RESNET18, RESNET50
from repro.coordl import PartitionedCoorDLLoader
from repro.datasets.catalog import DatasetSpec
from repro.datasets.dataset import SyntheticDataset
from repro.dsanalyzer.predictor import Bottleneck, DataStallPredictor
from repro.dsanalyzer.profiler import DSAnalyzerProfiler
from repro.dsanalyzer.whatif import optimal_cache_fraction
from repro.sim.distributed import DistributedTraining
from repro.sim.engine import PipelineSimulator
from repro.sim.hp_search import HPSearchScenario
from repro.sim.single_server import build_loader
from repro.units import speedup


def _coordl_speedup(scenario):
    """CoorDL's epoch-time speedup over the uncoordinated baseline."""
    return speedup(scenario.run_baseline().epoch_time_s,
                   scenario.run_coordl().epoch_time_s)


def _last_epoch(model, dataset, server, kind, num_epochs):
    """The last epoch of a ``num_epochs`` run (the first warms the cache)."""
    loader = build_loader(kind, dataset, server, model)
    return PipelineSimulator(model, server.gpu).run_epochs(loader,
                                                           num_epochs)[-1]


@pytest.fixture
def dataset():
    spec = DatasetSpec("integration", "image_classification", 3_000, 150_000.0,
                       item_size_cv=0.5)
    return SyntheticDataset(spec, seed=7)


class TestEndToEndSingleServer:
    def test_paper_finding_stack_for_one_model(self, dataset):
        """Walk one model through analysis -> prediction -> mitigation."""
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * 0.35)

        # 1. DS-Analyzer finds the job is IO-bound at a 35% cache (the DALI
        # pipeline uses GPU-assisted prep for AlexNet, so prep is not the
        # limit; the SSD is).
        profile = DSAnalyzerProfiler(ALEXNET, dataset, server, gpu_prep=True).profile()
        predictor = DataStallPredictor(profile)
        assert predictor.predict(0.35).bottleneck is Bottleneck.FETCH

        # 2. The full simulation agrees: DALI has a large fetch stall.
        dali = _last_epoch(ALEXNET, dataset, server, "dali-shuffle", 3)
        assert dali.fetch_stall_fraction > 0.2

        # 3. CoorDL's MinIO cache removes the thrashing share of that stall.
        coordl = _last_epoch(ALEXNET, dataset, server, "coordl", 3)
        assert coordl.io.disk_bytes < dali.io.disk_bytes
        assert coordl.epoch_time_s <= dali.epoch_time_s

        # 4. The predictor's recommended cache size removes the fetch stall.
        recommendation = optimal_cache_fraction(predictor, dataset)
        big_server = server.with_cache_bytes(recommendation.optimal_cache_bytes * 1.05)
        resized = _last_epoch(ALEXNET, dataset, big_server, "coordl", 3)
        assert resized.fetch_stall_fraction < 0.1

    def test_language_models_show_no_data_stalls(self, dataset):
        """Sec. 3.1: BERT-Large is GPU bound, so CoorDL has nothing to fix."""
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * 0.35)
        epoch = _last_epoch(BERT_LARGE, dataset, server, "dali-shuffle", 2)
        assert epoch.data_stall_fraction < 0.05


class TestEndToEndDistributed:
    def test_two_server_jobs_match_table4_findings(self, dataset):
        servers = [config_hdd_1080ti(cache_bytes=dataset.total_bytes * 0.55)
                   for _ in range(2)]
        training = DistributedTraining(RESNET18, dataset, servers, num_epochs=3)
        baseline = training.run_baseline()
        coordl = training.run_coordl()
        # Lack of cache coordination leaves the baseline reading from disk
        # every epoch even though the aggregate DRAM covers the dataset.
        assert baseline.steady_epochs()[-1].total_disk_bytes > 0
        assert coordl.steady_epochs()[-1].total_disk_bytes == 0
        assert coordl.steady_epoch_time_s < baseline.steady_epoch_time_s

    def test_partitioned_group_is_consistent(self, dataset):
        servers = [config_hdd_1080ti(cache_bytes=dataset.total_bytes * 0.6)
                   for _ in range(2)]
        loaders = PartitionedCoorDLLoader.build_group(dataset, servers, 256)
        assert loaders[0].group.covers_dataset()
        sim = PipelineSimulator(RESNET18, servers[0].gpu)
        warm = sim.run_epoch(loaders[0], 0)
        steady = sim.run_epoch(loaders[0], 1)
        assert steady.io.disk_bytes <= warm.io.disk_bytes


class TestEndToEndHPSearch:
    def test_hp_search_workflow(self, dataset):
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * 0.5)
        scenario = HPSearchScenario(ALEXNET, dataset, server, num_jobs=4,
                                    gpus_per_job=2)
        assert _coordl_speedup(scenario) >= 1.0

    def test_coordination_lives_in_the_simulator(self):
        """Coordinated prep and crash recovery are priced by the scenarios;
        ``repro.coordl`` keeps only the distributed loader, at its module
        path, and the crash trace's event type sits beside ``run_crash``."""
        import repro.coordl
        import repro.sim
        from repro.coordl import partitioned_loader
        from repro.sim import failures
        assert repro.coordl.__all__ == ["PartitionedCoorDLLoader"]
        assert (PartitionedCoorDLLoader
                is partitioned_loader.PartitionedCoorDLLoader)
        assert repro.sim.FailureEvent is failures.FailureEvent

    def test_speedup_ordering_between_storage_types(self, dataset):
        """HP-search gains are larger on slow storage (paper Sec. 5.3)."""
        ssd = config_ssd_v100(cache_bytes=dataset.total_bytes * 0.35)
        hdd = config_hdd_1080ti(cache_bytes=dataset.total_bytes * 0.35)
        ssd_speedup = _coordl_speedup(
            HPSearchScenario(RESNET50, dataset, ssd, num_jobs=8))
        hdd_speedup = _coordl_speedup(
            HPSearchScenario(RESNET50, dataset, hdd, num_jobs=8))
        assert hdd_speedup >= ssd_speedup >= 1.0
