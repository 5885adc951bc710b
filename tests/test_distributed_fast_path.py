"""Equivalence and regression tests for the distributed / HP-search fast paths.

The vectorised epoch paths added for Figs. 9(b)/9(d)/9(e) are numerical fast
paths, not approximations: every test here pins them to their per-item
reference implementations, including the edge cases the fast paths exposed
(partial final batches, mid-run fallbacks, seed plumbing in sweeps).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.page_cache import PageCache
from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import ALEXNET, RESNET18
from repro.coordl.partitioned_loader import PartitionedCoorDLLoader
from repro.datasets.catalog import get_dataset_spec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import Sampler
from repro.sim.distributed import DistributedTraining
from repro.sim.harness import snapshot_diff
from repro.sim.hp_search import HPSearchScenario
from repro.sim.sweep import SweepPoint, SweepRunner

SCALE = 1 / 500.0


@pytest.fixture
def dataset():
    return SyntheticDataset(get_dataset_spec("openimages"), seed=0, scale=SCALE)


def _servers(dataset, fraction, n=2, factory=config_hdd_1080ti):
    return [factory(cache_bytes=dataset.total_bytes * fraction) for _ in range(n)]


def _assert_epochs_equal(slow, fast):
    """Epoch-by-epoch, server-by-server equality of two distributed results."""
    for slow_epoch, fast_epoch in zip(slow.epochs, fast.epochs):
        assert fast_epoch.epoch_time_s == pytest.approx(
            slow_epoch.epoch_time_s, abs=1e-9)
        for ss, sf in zip(slow_epoch.per_server, fast_epoch.per_server):
            assert sf.samples == ss.samples
            assert sf.cache_hits == ss.cache_hits
            assert sf.cache_misses == ss.cache_misses
            assert sf.io.disk_requests == ss.io.disk_requests
            assert sf.io.cache_requests == ss.io.cache_requests
            assert sf.io.remote_requests == ss.io.remote_requests
            assert sf.io.disk_bytes == pytest.approx(ss.io.disk_bytes, rel=1e-12)
            assert sf.io.remote_bytes == pytest.approx(ss.io.remote_bytes, rel=1e-12)
            slow_tl, fast_tl = ss.io.timeline, sf.io.timeline
            assert len(slow_tl) == len(fast_tl)
            if slow_tl:
                assert np.allclose([t for t, _ in slow_tl], [t for t, _ in fast_tl],
                                   atol=1e-9)
                assert np.allclose([b for _, b in slow_tl], [b for _, b in fast_tl],
                                   rtol=1e-12)


class TestDistributedFastPathEquivalence:
    """The bulk partitioned/distributed epochs must match the per-item walk."""

    @pytest.mark.parametrize("fraction", [0.2, 0.65, 1.1])
    def test_coordl_fast_and_slow_paths_agree(self, dataset, fraction,
                                              reference_paths):
        training = DistributedTraining(RESNET18, dataset,
                                       _servers(dataset, fraction), num_epochs=3)
        with reference_paths() as calls:
            slow = training.run_coordl(seed=0)
        assert calls["batch_walks"] == 6
        _assert_epochs_equal(slow, training.run_coordl(seed=0))

    def test_baseline_fast_and_slow_paths_agree(self, dataset, reference_paths):
        training = DistributedTraining(RESNET18, dataset,
                                       _servers(dataset, 0.5), num_epochs=3)
        with reference_paths() as calls:
            slow = training.run_baseline(seed=0)
        assert calls["batch_walks"] == 6
        _assert_epochs_equal(slow, training.run_baseline(seed=0))

    def test_agreement_on_partial_final_batches(self, dataset):
        """Shard length % batch size != 0: the short batch is simulated once.

        Regression for the partial-batch satellite: the shard of each rank
        (dataset size not divisible by the replica count or batch size) ends
        in a short batch, and fast and reference paths must agree on it.
        """
        loaders = {}
        for fast in (False, True):
            group = PartitionedCoorDLLoader.build_group(
                dataset, _servers(dataset, 0.6), batch_size=7, seed=0)
            loaders[fast] = group
        assert len(dataset) % 7 != 0
        for rank in range(2):
            slow, fast = loaders[False][rank], loaders[True][rank]
            sampler = slow.batch_sampler
            assert len(sampler.epoch(0)) == sampler.batches_per_epoch()
            arrays = fast.batch_time_arrays(0)
            assert arrays is not None
            fetch_s, _, _, batch_sizes = arrays
            clock = 0.0
            durations = []
            for batch in slow.batches(0):
                duration = slow.fetch_batch(batch, at_time=clock)
                durations.append(duration)
                clock += duration
            assert len(durations) == len(fetch_s)
            assert int(batch_sizes[-1]) == len(slow.batches(0)[-1])
            assert np.allclose(fetch_s, durations, atol=1e-9)


class TestFallbackBoundary:
    """Mid-run fallbacks must apply I/O counters and timelines exactly once."""

    def test_repeated_item_epoch_declines_without_side_effects(self, dataset):
        class RepeatingSampler(Sampler):
            def epoch(self, epoch_index):
                order = np.arange(self.num_items, dtype=np.int64)
                order[-1] = order[0]  # one repeat: not a single-pass epoch
                return order

        group = PartitionedCoorDLLoader.build_group(
            dataset, _servers(dataset, 0.6), batch_size=16, seed=0)
        loader = group[0]
        loader._batch_sampler._sampler = RepeatingSampler(len(dataset))
        assert loader.batch_time_arrays(0) is None
        assert loader.cache.stats.accesses == 0
        assert loader.io.disk_requests == 0

    def test_fallback_run_counts_io_exactly_once(self, dataset,
                                                 reference_paths):
        """A run forced down the per-item path books each read exactly once."""
        from repro.sim.engine import PipelineSimulator
        servers = _servers(dataset, 0.6)
        bulk = PartitionedCoorDLLoader.build_group(dataset, servers,
                                                   batch_size=16, seed=0)
        walked = PartitionedCoorDLLoader.build_group(dataset, servers,
                                                     batch_size=16, seed=0)
        for rank in (0, 1):
            PipelineSimulator(RESNET18, servers[rank].gpu).run_epoch(
                bulk[rank], 0)
            with reference_paths() as calls:
                PipelineSimulator(RESNET18, servers[rank].gpu).run_epoch(
                    walked[rank], 0)
            assert calls["batch_walks"] == 1
            ref, aud = bulk[rank], walked[rank]
            assert aud.io.disk_requests == ref.io.disk_requests
            assert aud.io.cache_requests == ref.io.cache_requests
            assert aud.io.remote_requests == ref.io.remote_requests
            # Every shard item was read exactly once — no double counting.
            assert aud.io.total_requests == len(aud.batch_sampler.sampler.epoch(0))


class TestHPSearchFastPathEquivalence:
    """Bulk replays vs the per-item shared-page-cache and MinIO references."""

    @pytest.mark.parametrize("fraction", [1.5, 0.6, 0.15])
    def test_baseline_and_coordl_agree(self, dataset, fraction,
                                       reference_paths):
        """The page-cache side equals the reference bit for bit, epoch by
        epoch, from fully cached (1.5) to thrashing; the MinIO side sums
        its miss bytes pairwise, so it agrees to round-off."""
        server = config_ssd_v100(cache_bytes=dataset.total_bytes * fraction)
        scenario = HPSearchScenario(ALEXNET, dataset, server, num_jobs=4,
                                    gpus_per_job=1, seed=0)

        def run():
            cache = PageCache(server.cache_bytes)
            return ((scenario.run_baseline(), scenario.run_coordl()),
                    [scenario.run_epoch(cache, epoch).disk_bytes
                     for epoch in range(3)])

        results, disk_bytes = {}, {}
        with reference_paths() as calls:
            results[False], disk_bytes[False] = run()
        assert calls == {"page_cache_epochs": 5, "minio_epochs": 2}
        results[True], disk_bytes[True] = run()
        assert disk_bytes[True] == disk_bytes[False]
        assert results[True][0] == results[False][0]
        slow, fast = results[False][1], results[True][1]
        assert fast.epoch_time_s == pytest.approx(slow.epoch_time_s, rel=1e-9)
        assert fast.disk_bytes_per_epoch == pytest.approx(
            slow.disk_bytes_per_epoch, rel=1e-9)
        assert fast.cache_miss_ratio == pytest.approx(
            slow.cache_miss_ratio, abs=1e-12)
        assert fast.per_job_throughput == pytest.approx(
            slow.per_job_throughput, rel=1e-9)
        assert (fast.prep_bound, fast.fetch_bound, fast.gpu_bound) == (
            slow.prep_bound, slow.fetch_bound, slow.gpu_bound)

    def test_fully_cached_multitenant_matches_the_reference_bytes(
            self, reference_paths):
        """``hp-multitenant`` with a page cache larger than the dataset: the
        snapshot with the bulk replay equals the per-item reference's."""
        points = [SweepPoint(model=RESNET18, loader="hp-multitenant",
                             dataset="openimages", cache_fraction=1.5,
                             num_jobs=2, tenants=tenants)
                  for tenants in (1, 2)]

        def snapshot():
            return SweepRunner(config_ssd_v100, scale=1 / 800, seed=0).run(
                points, workers=0, store=False).snapshot()

        with reference_paths() as calls:
            reference = snapshot()
        # Each point runs its default two epochs.
        assert calls == {"page_cache_epochs": 4}
        assert snapshot_diff(reference, snapshot()) == []

    def test_interleaved_order_matches_reference_nesting(self, dataset):
        """The bulk-built interleaving equals the nested lockstep loops."""
        server = config_ssd_v100()
        scenario = HPSearchScenario(ALEXNET, dataset, server, num_jobs=3,
                                    gpus_per_job=1, seed=3)
        from repro.datasets.sampler import RandomSampler
        num_items = len(dataset)
        orders = [RandomSampler(num_items, seed=(3, job)).epoch(1)
                  for job in range(3)]
        batch = scenario.batch_size
        expected = []
        for start in range(0, num_items, batch):
            for job in range(3):
                expected.extend(orders[job][start:start + batch].tolist())
        assert scenario._interleaved_order(1).tolist() == expected


class TestSweepSeedPlumbing:
    """Distributed sweep points must derive their sampling from the runner seed."""

    def _sweep(self, seed):
        runner = SweepRunner(config_hdd_1080ti, scale=SCALE, seed=seed)
        return runner.run(SweepRunner.grid(
            models=[RESNET18], loaders=["dist-coordl"], cache_fractions=(0.6,),
            dataset="openimages", num_servers=2, num_epochs=3))

    def test_repeated_sweeps_are_bitwise_reproducible(self):
        first, second = self._sweep(7), self._sweep(7)
        for a, b in zip(first.records, second.records):
            for ea, eb in zip(a.dist.epochs, b.dist.epochs):
                assert ea.epoch_time_s == eb.epoch_time_s
                for sa, sb in zip(ea.per_server, eb.per_server):
                    assert sa.io.disk_bytes == sb.io.disk_bytes
                    assert sa.io.remote_bytes == sb.io.remote_bytes
                    assert sa.cache_hits == sb.cache_hits

    def test_runner_seed_reaches_the_distributed_samplers(self):
        """Different runner seeds draw different shards (not the rank default).

        If the sweep dropped its seed on the floor (every run falling back to
        the scenario's seed=0 default), both sweeps below would be identical.
        """
        base, other = self._sweep(0), self._sweep(11)
        base_hits = [s.cache_hits
                     for e in base.records[0].dist.epochs for s in e.per_server]
        other_hits = [s.cache_hits
                      for e in other.records[0].dist.epochs for s in e.per_server]
        assert base_hits != other_hits

    def test_ranks_never_draw_identical_permutations(self, dataset):
        """Per-rank shards of a swept point partition each epoch disjointly."""
        group = PartitionedCoorDLLoader.build_group(
            dataset, _servers(dataset, 0.6), batch_size=16, seed=5)
        for epoch in range(3):
            orders = [np.concatenate(loader.batches(epoch)) for loader in group]
            assert not np.array_equal(orders[0], orders[1])
            combined = np.sort(np.concatenate(orders))
            assert np.array_equal(combined, np.arange(len(dataset)))
