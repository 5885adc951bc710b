"""Unit tests for the data loaders: every `build_loader` kind, and CoorDL's
partitioned loader."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.compute.model_zoo import RESNET18
from repro.coordl.partitioned_loader import PartitionedCoorDLLoader
from repro.exceptions import ConfigurationError
from repro.sim.single_server import (LOADER_KINDS, LOADER_RECIPES, best_prep,
                                     build_loader)
from repro.storage.device import dram


def _loader(kind, dataset, server, model=RESNET18, **kwargs):
    kwargs.setdefault("batch_size", 32)
    return build_loader(kind, dataset, server, model, **kwargs)


class TestRecipes:
    def test_kinds_keep_their_order(self):
        assert LOADER_KINDS == ("pytorch", "dali-seq", "dali-shuffle",
                                "coordl", "pycoordl")

    def test_each_kind_gets_its_cache_and_name(self, tiny_dataset, ssd_server):
        expected = {
            "pytorch": (PageCache, "pytorch-dl", "pytorch-dl"),
            "dali-seq": (PageCache, "dali-seq", "dali-seq-gpuprep"),
            "dali-shuffle": (PageCache, "dali-shuffle", "dali-shuffle-gpuprep"),
            "coordl": (MinIOCache, "coordl", "coordl"),
            "pycoordl": (MinIOCache, "pytorch-dl", "pytorch-dl"),
        }
        for kind, (cache, cpu_name, gpu_name) in expected.items():
            cpu = _loader(kind, tiny_dataset, ssd_server, gpu_prep=False)
            assert type(cpu.cache) is cache
            assert (cpu.name, cpu.uses_gpu_prep) == (cpu_name, False)
            if LOADER_RECIPES[kind].offloads:
                gpu = _loader(kind, tiny_dataset, ssd_server, gpu_prep=True)
                assert (gpu.name, gpu.uses_gpu_prep) == (gpu_name, True)

    def test_unknown_kind_rejected(self, tiny_dataset, ssd_server):
        with pytest.raises(ConfigurationError, match="unknown loader kind"):
            _loader("dali-zigzag", tiny_dataset, ssd_server)

    @pytest.mark.parametrize("kind", ["pytorch", "pycoordl"])
    def test_pillow_kinds_refuse_gpu_prep(self, kind, tiny_dataset, ssd_server):
        with pytest.raises(ConfigurationError, match="cannot run on the GPU"):
            _loader(kind, tiny_dataset, ssd_server, gpu_prep=True)
        assert not _loader(kind, tiny_dataset, ssd_server).uses_gpu_prep


class TestPyTorchDataLoader:
    def test_page_cache_and_slower_pillow_prep(self, tiny_dataset, ssd_server):
        loader = _loader("pytorch", tiny_dataset, ssd_server, batch_size=64)
        assert isinstance(loader.cache, PageCache)
        assert not loader.uses_gpu_prep
        dali = _loader("dali-shuffle", tiny_dataset, ssd_server, batch_size=64,
                       gpu_prep=False)
        batch = loader.batches(0)[0]
        assert loader.prep_batch_time(batch) > dali.prep_batch_time(batch)

    def test_fetch_batch_accounts_io(self, tiny_dataset, ssd_server):
        loader = _loader("pytorch", tiny_dataset, ssd_server)
        batch = loader.batches(0)[0]
        loader.fetch_batch(batch)
        assert loader.cache.stats.misses == len(batch)      # cold cache
        assert loader.io.disk_bytes == pytest.approx(
            tiny_dataset.items_size(batch))
        assert loader.io.disk_requests == len(batch)
        assert len(loader.io.timeline) == len(batch)
        # Second fetch of the same batch now hits the cache.
        disk_bytes = loader.io.disk_bytes
        loader.fetch_batch(batch)
        assert loader.cache.stats.hits == len(batch)
        assert loader.io.cache_requests == len(batch)
        assert loader.io.disk_bytes == disk_bytes

    def test_misses_are_charged_at_the_random_read_rate(self, tiny_dataset,
                                                        hdd_server):
        """One small file per sample never reaches sequential bandwidth,
        DALI-seq's storage-order scan included."""
        disk = hdd_server.storage
        size = tiny_dataset.item_size(0)
        for kind in ("pytorch", "dali-seq"):
            loader = _loader(kind, tiny_dataset, hdd_server)
            duration = loader.fetch_batch(np.array([0]))
            assert loader.io.disk_requests == 1
            assert duration == (disk.request_overhead_s
                                + size / disk.random_read_bw)

    def test_fetch_returns_summed_device_times_and_samples_completions(
            self, tiny_dataset, ssd_server):
        """A fetch's duration sums each read's device time in batch order,
        and each miss lands on the disk timeline at its completion."""
        loader = _loader("pytorch", tiny_dataset, ssd_server)
        disk, ram = ssd_server.storage, dram()
        s0, s1, s2 = (tiny_dataset.item_size(i) for i in range(3))
        assert loader.fetch_batch(np.array([0, 1])) == (
            disk.read_time(s0) + disk.read_time(s1))
        # Item 1 is now a DRAM hit; item 2 is a miss read after it.
        duration = loader.fetch_batch(np.array([1, 2]), at_time=5.0)
        assert duration == ram.read_time(s1) + disk.read_time(s2)
        assert loader.io.timeline == [
            (disk.read_time(s0), s0),
            (disk.read_time(s0) + disk.read_time(s1), s0 + s1),
            (5.0 + duration, s0 + s1 + s2)]
        assert (loader.io.disk_bytes, loader.io.cache_bytes) == (
            s0 + s1 + s2, s1)

    def test_reset_io_starts_a_new_ledger_and_keeps_the_cache(
            self, tiny_dataset, ssd_server):
        loader = _loader("pytorch", tiny_dataset, ssd_server)
        batch = loader.batches(0)[0]
        loader.fetch_batch(batch)
        loader.reset_io()
        assert loader.io.total_requests == 0
        assert loader.io.timeline == []
        # The cache stays warm: the refetch is all hits in the new ledger.
        loader.fetch_batch(batch)
        assert loader.io.cache_requests == len(batch)
        assert loader.io.disk_requests == 0


class TestDALI:
    def test_seq_scans_files_in_storage_order(self, tiny_dataset, hdd_server):
        seq = _loader("dali-seq", tiny_dataset, hdd_server)
        shuffle = _loader("dali-shuffle", tiny_dataset, hdd_server)
        # The storage-visible order of DALI-seq is (windowed) file order: the
        # first batch only draws from the head of the file list.
        first_batch = seq.batches(0)[0]
        assert first_batch.max() < 32 + 4 * 32
        # Per-file reads are still charged at random-read rates, so fetch
        # costs are comparable to DALI-shuffle (Sec. 5.1's observation that
        # seq is not faster once the dataset exceeds the cache).
        batch = np.arange(32)
        seq_t = seq.fetch_batch(batch)
        shuffle_t = shuffle.fetch_batch(batch)
        assert seq_t == pytest.approx(shuffle_t, rel=0.01)

    @pytest.mark.parametrize("kind", LOADER_KINDS)
    def test_epoch_order_covers_dataset_once(self, kind, tiny_dataset, ssd_server):
        loader = _loader(kind, tiny_dataset, ssd_server)
        items = np.concatenate(loader.batches(0))
        assert sorted(items.tolist()) == list(range(len(tiny_dataset)))

    def test_gpu_prep_raises_prep_rate(self, tiny_dataset, ssd_server):
        cpu = _loader("dali-shuffle", tiny_dataset, ssd_server, gpu_prep=False,
                      cores=3)
        gpu = _loader("dali-shuffle", tiny_dataset, ssd_server, gpu_prep=True,
                      cores=3)
        batch = cpu.batches(0)[0]
        assert gpu.prep_batch_time(batch) < cpu.prep_batch_time(batch)
        assert gpu.uses_gpu_prep

    @pytest.mark.parametrize("kind", ["dali-seq", "dali-shuffle", "coordl"])
    def test_best_of_prep_respects_interference(self, kind, tiny_dataset,
                                                ssd_server):
        light = replace(RESNET18, gpu_prep_interference=0.0)
        heavy = replace(RESNET18, gpu_prep_interference=0.95)
        assert _loader(kind, tiny_dataset, ssd_server, light, cores=3).uses_gpu_prep
        assert not _loader(kind, tiny_dataset, ssd_server, heavy,
                           cores=3).uses_gpu_prep

    def test_best_prep_returns_the_chosen_rate(self, tiny_dataset, ssd_server):
        light = replace(RESNET18, gpu_prep_interference=0.0)
        heavy = replace(RESNET18, gpu_prep_interference=0.95)
        cpu_only = best_prep(tiny_dataset, ssd_server, light, "pytorch", cores=3)
        light_choice = best_prep(tiny_dataset, ssd_server, light, cores=3)
        heavy_choice = best_prep(tiny_dataset, ssd_server, heavy, cores=3)
        assert cpu_only[0] is False and heavy_choice[0] is False
        assert light_choice[0] is True
        # The discounted GPU rate only wins when it beats CPU prep.
        assert light_choice[1] > heavy_choice[1] > cpu_only[1]


class TestCoorDL:
    def test_uses_minio_cache(self, tiny_dataset, ssd_server):
        loader = _loader("coordl", tiny_dataset, ssd_server)
        assert isinstance(loader.cache, MinIOCache)

    @pytest.mark.parametrize("kind", ["coordl", "pycoordl"])
    def test_no_evictions_across_epochs(self, kind, tiny_dataset, ssd_server):
        server = ssd_server.with_cache_bytes(tiny_dataset.total_bytes * 0.5)
        loader = _loader(kind, tiny_dataset, server)
        cached = []
        for epoch in range(2):
            for batch in loader.batches(epoch):
                loader.fetch_batch(batch)
            cached.append(set(loader.cache.cached_items()))
        assert cached[0]
        assert cached[0] <= cached[1]

    def test_cached_fetch_time_much_smaller_than_storage_fetch(self, tiny_dataset,
                                                               hdd_server):
        loader = _loader("coordl", tiny_dataset, hdd_server)
        batch = loader.batches(0)[0]
        cold = loader.fetch_batch(batch)
        assert loader.cached_fetch_time(batch) < cold / 100


class TestPartitionedCoorDLLoader:
    def test_group_builds_one_loader_per_server(self, small_dataset, hdd_server):
        servers = [hdd_server.with_cache_bytes(small_dataset.total_bytes * 0.6)] * 2
        loaders = PartitionedCoorDLLoader.build_group(small_dataset, servers, 64)
        assert len(loaders) == 2
        assert loaders[0].group is loaders[1].group
        assert loaders[0].name == "coordl-partitioned"

    def test_remote_hits_replace_disk_reads_when_dataset_fits(self, small_dataset,
                                                              hdd_server):
        servers = [hdd_server.with_cache_bytes(small_dataset.total_bytes * 0.6)] * 2
        loaders = PartitionedCoorDLLoader.build_group(small_dataset, servers, 64)
        loader = loaders[0]
        for batch in loader.batches(1):
            loader.fetch_batch(batch)
        assert loader.io.disk_bytes == 0.0
        assert loader.io.remote_bytes > 0.0

    def test_falls_back_to_storage_when_aggregate_cache_too_small(self, small_dataset,
                                                                  hdd_server):
        servers = [hdd_server.with_cache_bytes(small_dataset.total_bytes * 0.2)] * 2
        loaders = PartitionedCoorDLLoader.build_group(small_dataset, servers, 64)
        loader = loaders[0]
        for batch in loader.batches(1):
            loader.fetch_batch(batch)
        assert loader.io.disk_bytes > 0.0
