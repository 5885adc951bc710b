"""Unit tests for storage devices and I/O accounting."""

import numpy as np
import pytest

from repro import units
from repro.exceptions import ConfigurationError
from repro.storage.device import StorageDevice, dram, hdd, sata_ssd
from repro.storage.iostats import IOStats


class TestStorageDevice:
    def test_read_time_scales_with_size(self):
        ssd = sata_ssd()
        assert ssd.read_time(units.MBps(530)) == pytest.approx(1.0, rel=0.01)
        assert ssd.read_time(0.0) == pytest.approx(ssd.request_overhead_s)

    def test_effective_rate_below_nominal_for_small_requests(self):
        disk = hdd()
        # An 8 ms seek dominates a 100 KB read: effective rate << 15 MB/s.
        assert disk.effective_rate(100_000) < disk.random_read_bw

    def test_paper_rates(self):
        assert sata_ssd().random_read_bw == units.MBps(530)
        assert hdd().random_read_bw == units.MBps(15)
        assert dram().random_read_bw > units.GBps(10)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            StorageDevice("bad", random_read_bw=0)
        with pytest.raises(ConfigurationError):
            StorageDevice("bad", random_read_bw=1, request_overhead_s=-1)

    def test_negative_read_rejected(self):
        with pytest.raises(ConfigurationError):
            sata_ssd().read_time(-1)
        with pytest.raises(ConfigurationError):
            sata_ssd().read_times_array(np.array([4096.0, -1.0]))

    @pytest.mark.parametrize("device", [sata_ssd(), hdd(), dram()],
                             ids=lambda device: device.name)
    def test_every_read_is_priced_at_the_random_read_rate(self, device):
        """Small and large reads alike: one overhead plus the bytes at the
        random-read bandwidth (no read reaches a sequential rate)."""
        for nbytes in (0.0, 4096.0, 10e6):
            expected = device.request_overhead_s + nbytes / device.random_read_bw
            assert device.read_time(nbytes) == expected
            assert device.effective_rate(nbytes) == (
                nbytes / expected if expected else 0.0)

    def test_read_times_array_equals_per_read_read_time(self, tiny_dataset):
        disk = hdd()
        sizes = tiny_dataset.item_sizes(np.arange(8))
        assert disk.read_times_array(sizes).tolist() == [
            disk.read_time(size) for size in sizes.tolist()]


class TestIOStats:
    def test_counters_accumulate_by_source(self):
        stats = IOStats()
        stats.record_disk(100.0)
        stats.record_disk(200.0, at_time=1.0)
        stats.record_cache(50.0)
        stats.record_remote(25.0)
        assert stats.disk_bytes == 300.0
        assert stats.disk_requests == 2
        assert stats.cache_requests == 1
        assert stats.remote_requests == 1
        assert stats.total_bytes == 375.0
        assert stats.total_requests == 4
        assert stats.timeline == [(1.0, 300.0)]

    def test_hit_ratio(self):
        stats = IOStats()
        assert stats.cache_hit_ratio == 0.0
        stats.record_cache(1.0)
        stats.record_disk(1.0)
        assert stats.cache_hit_ratio == pytest.approx(0.5)
        assert stats.miss_ratio == pytest.approx(0.5)

    def test_bulk_and_per_read_samples_keep_recording_order(self):
        stats = IOStats()
        stats.record_disk_bulk([10.0, 20.0], at_times=[0.1, 0.2])
        stats.record_disk(5.0, at_time=0.3)
        assert stats.timeline == [(0.1, 10.0), (0.2, 30.0), (0.3, 35.0)]
        times, cumulative = stats.timeline_columns
        assert times.tolist() == [0.1, 0.2, 0.3]
        assert cumulative.tolist() == [10.0, 30.0, 35.0]

    def test_timeline_is_derived_on_every_read(self):
        stats = IOStats()
        stats.record_disk(5.0, at_time=0.3)
        stats.timeline.append((9.0, 9.0))
        assert stats.timeline == [(0.3, 5.0)]
        with pytest.raises(AttributeError):
            stats.timeline = []

    def test_concurrent_timeline_reads_materialise_once(self):
        """Regression: concurrent store writers snapshot the same finished
        record from several threads, so the lazy chunk merge must be safe
        under racing readers — no duplicated or partially merged samples.
        (The materialised state is published as one atomic tuple.)"""
        import threading

        for _ in range(50):
            stats = IOStats()
            for chunk in range(8):
                base = float(chunk)
                stats.record_disk_bulk(
                    [1.0] * 64, at_times=[base + i / 64 for i in range(64)])
            expected_len = 8 * 64
            results = []
            lock = threading.Lock()
            barrier = threading.Barrier(6)

            def reader():
                barrier.wait()
                timeline = stats.timeline
                with lock:
                    results.append(list(timeline))

            threads = [threading.Thread(target=reader) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert all(len(r) == expected_len for r in results)
            assert all(r == results[0] for r in results)
            assert len(stats.timeline) == expected_len
