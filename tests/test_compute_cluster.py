"""Unit tests for GPU specs, the model zoo, server configs and the network."""

import pytest

from repro import units
from repro.cluster.configs import (
    config_hdd_1080ti,
    config_high_cpu_v100,
    config_ssd_v100,
    get_server_config,
)
from repro.cluster.network import NetworkLink, forty_gbps_ethernet, ten_gbps_ethernet
from repro.compute.gpu import GTX_1080TI, V100, get_gpu
from repro.compute.model_zoo import (
    ALL_STALL_MODELS,
    BERT_LARGE,
    RESNET18,
    RESNET50,
    get_model,
    model_names,
)
from repro.exceptions import ConfigurationError


class TestGPUs:
    def test_v100_faster_than_1080ti(self):
        assert V100.compute_scale > GTX_1080TI.compute_scale
        assert V100.memory_bytes > GTX_1080TI.memory_bytes

    def test_lookup_case_insensitive(self):
        assert get_gpu("v100") is V100
        assert get_gpu("1080Ti") is GTX_1080TI
        with pytest.raises(ConfigurationError):
            get_gpu("h100")

    def test_scaled_gpu_for_whatif(self):
        faster = V100.scaled(2.0)
        assert faster.compute_scale == pytest.approx(2.0)
        with pytest.raises(ConfigurationError):
            V100.scaled(0)


class TestModelZoo:
    def test_paper_models_present(self):
        names = model_names()
        for expected in ("resnet18", "resnet50", "alexnet", "shufflenetv2",
                         "squeezenet", "mobilenetv2", "vgg11", "ssd-res18",
                         "audio-m5", "bert-large", "gnmt"):
            assert expected in names

    def test_light_models_have_higher_ingestion_rates(self):
        # AlexNet/ShuffleNet consume samples much faster than ResNet50/VGG11.
        assert get_model("alexnet").gpu_rate_v100 > 3 * get_model("vgg11").gpu_rate_v100

    def test_gpu_rate_scales_with_gpu_and_count(self):
        single = RESNET18.gpu_rate(V100)
        assert RESNET18.gpu_rate(GTX_1080TI) < single
        eight = RESNET18.aggregate_gpu_rate(V100, 8)
        assert 7.0 * single < eight < 8.0 * single  # sync overhead < 1 GPU worth

    def test_gpu_prep_interference_lowers_compute_rate(self):
        assert RESNET50.gpu_rate(V100, gpu_prep_active=True) < RESNET50.gpu_rate(V100)

    def test_batch_size_depends_on_gpu_memory(self):
        assert RESNET50.batch_size_for(V100) == 512
        assert RESNET50.batch_size_for(GTX_1080TI) < 512

    def test_language_models_flagged_gpu_bound(self):
        assert BERT_LARGE.is_gpu_bound_language_model
        assert not RESNET18.is_gpu_bound_language_model
        assert BERT_LARGE not in ALL_STALL_MODELS

    def test_raw_byte_demand_matches_rate_times_size(self):
        demand = RESNET18.raw_bytes_rate_demand(V100, 8, 150_000.0)
        assert demand == pytest.approx(RESNET18.aggregate_gpu_rate(V100, 8) * 150_000.0)

    def test_unknown_model_raises(self):
        with pytest.raises(ConfigurationError):
            get_model("transformer-xxl")


class TestNetwork:
    def test_forty_gbps_effective_bandwidth(self):
        link = forty_gbps_ethernet()
        assert link.effective_bandwidth == pytest.approx(units.Gbps(40) * 0.9)

    def test_network_faster_than_ssd_for_typical_items(self):
        """The premise of partitioned caching (Sec. 4.2)."""
        link = forty_gbps_ethernet()
        from repro.storage.device import sata_ssd
        item = 300_000.0
        assert link.transfer_time(item) < sata_ssd().read_time(item)

    def test_ten_gbps_slower_than_forty(self):
        assert ten_gbps_ethernet().transfer_time(1e6) > forty_gbps_ethernet().transfer_time(1e6)

    def test_utilisation(self):
        link = forty_gbps_ethernet()
        assert link.utilisation(link.bandwidth, 1.0) == pytest.approx(1.0)
        assert link.utilisation(0.0, 1.0) == 0.0
        assert link.utilisation(1.0, 0.0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkLink(bandwidth=0)
        with pytest.raises(ConfigurationError):
            NetworkLink(protocol_efficiency=0)
        with pytest.raises(ConfigurationError):
            forty_gbps_ethernet().transfer_time(-1)


class TestServerConfigs:
    def test_paper_sku_parameters(self):
        ssd = config_ssd_v100()
        hdd = config_hdd_1080ti()
        for server in (ssd, hdd):
            assert server.num_gpus == 8
            assert server.physical_cores == 24
            assert server.dram_bytes == units.GiB(500)
            assert server.cores_per_gpu == 3
        assert ssd.gpu is V100
        assert hdd.gpu is GTX_1080TI
        assert ssd.storage.random_read_bw > hdd.storage.random_read_bw

    def test_high_cpu_variant(self):
        server = config_high_cpu_v100()
        assert server.physical_cores == 32
        assert server.vcpus == 64

    def test_lookup_by_name(self):
        assert get_server_config("Config-SSD-V100").name == "Config-SSD-V100"
        with pytest.raises(ConfigurationError):
            get_server_config("dgx-2")

    def test_with_helpers_return_modified_copies(self):
        server = config_ssd_v100()
        smaller = server.with_cache_bytes(units.GiB(100))
        assert smaller.cache_bytes == units.GiB(100)
        assert server.cache_bytes != smaller.cache_bytes
        assert server.with_gpus(4).num_gpus == 4
        assert server.with_cores(32).physical_cores == 32

    def test_worker_pool_validation(self):
        server = config_ssd_v100()
        pool = server.worker_pool(cores=6)
        assert pool.physical_cores == 6
        with pytest.raises(ConfigurationError):
            server.worker_pool(cores=100)

    def test_worker_pool_uses_physical_cores_only(self):
        server = config_ssd_v100()
        assert server.vcpus > server.physical_cores
        pool = server.worker_pool(gpu_offload=True)
        assert pool.physical_cores == server.physical_cores
        assert pool.hyperthreads == 0.0
        assert pool.effective_cores == server.physical_cores
        assert pool.gpu_offload
        assert pool.gpu_decode_rate_scale == server.gpu.gpu_prep_scale

    def test_invalid_server_rejected(self):
        server = config_ssd_v100()
        with pytest.raises(ConfigurationError):
            server.with_cache_bytes(units.GiB(10_000))  # cache > DRAM
