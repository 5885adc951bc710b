"""Unit tests for the epoch samplers and batch sampler."""

import threading

import numpy as np
import pytest

from repro.datasets import sampler as sampler_module
from repro.datasets.sampler import (
    BatchSampler,
    CachingSampler,
    DistributedSampler,
    RandomSampler,
    SamplerMemo,
    SequentialSampler,
    ShuffleBufferSampler,
    verify_epoch_invariant,
)
from repro.exceptions import ConfigurationError


class TestSequentialSampler:
    def test_yields_storage_order(self):
        sampler = SequentialSampler(10)
        assert list(sampler.epoch(0)) == list(range(10))
        assert list(sampler.epoch(3)) == list(range(10))


class TestRandomSampler:
    def test_every_epoch_is_a_permutation(self):
        sampler = RandomSampler(50, seed=3)
        for epoch in range(3):
            assert verify_epoch_invariant(sampler.epoch(epoch), 50)

    def test_epochs_differ(self):
        sampler = RandomSampler(100, seed=3)
        assert not np.array_equal(sampler.epoch(0), sampler.epoch(1))

    def test_same_seed_reproducible(self):
        a = RandomSampler(100, seed=9)
        b = RandomSampler(100, seed=9)
        assert np.array_equal(a.epoch(2), b.epoch(2))

    def test_rejects_empty_dataset(self):
        with pytest.raises(ConfigurationError):
            RandomSampler(0)


class TestShuffleBufferSampler:
    def test_training_order_is_a_permutation(self):
        sampler = ShuffleBufferSampler(64, buffer_size=8, seed=0)
        assert verify_epoch_invariant(sampler.epoch(0), 64)

    def test_storage_order_is_sequential(self):
        sampler = ShuffleBufferSampler(64, buffer_size=8, seed=0)
        assert list(sampler.storage_order(0)) == list(range(64))

    def test_shuffling_is_bounded_by_the_window(self):
        # An item cannot appear in the output earlier than its own position
        # minus the buffer size, nor arbitrarily later than buffer allows.
        n, window = 200, 10
        sampler = ShuffleBufferSampler(n, buffer_size=window, seed=1)
        order = list(sampler.epoch(0))
        for out_pos, item in enumerate(order):
            assert item <= out_pos + window - 1

    def test_rejects_non_positive_buffer(self):
        with pytest.raises(ConfigurationError):
            ShuffleBufferSampler(10, buffer_size=0)


class TestDistributedSampler:
    def test_shards_are_disjoint_and_cover_dataset(self):
        n, replicas = 103, 4
        samplers = [DistributedSampler(n, replicas, r, seed=5) for r in range(replicas)]
        combined = np.concatenate([s.epoch(2) for s in samplers])
        assert verify_epoch_invariant(combined, n)

    def test_shards_change_every_epoch(self):
        sampler = DistributedSampler(1000, 2, 0, seed=5)
        assert set(sampler.epoch(0)) != set(sampler.epoch(1))

    def test_rank_validation(self):
        with pytest.raises(ConfigurationError):
            DistributedSampler(10, 2, 2)
        with pytest.raises(ConfigurationError):
            DistributedSampler(10, 0, 0)


class TestBatchSampler:
    def test_batches_cover_the_epoch(self):
        batcher = BatchSampler(RandomSampler(100, seed=0), batch_size=16)
        batches = batcher.epoch(0)
        assert verify_epoch_invariant(np.concatenate(batches), 100)

    def test_batch_count_without_drop_last(self):
        batcher = BatchSampler(RandomSampler(100, seed=0), batch_size=16)
        assert batcher.batches_per_epoch() == 7
        assert len(batcher.epoch(0)) == 7

    def test_drop_last_drops_partial_batch(self):
        batcher = BatchSampler(RandomSampler(100, seed=0), batch_size=16, drop_last=True)
        assert batcher.batches_per_epoch() == 6
        assert all(len(b) == 16 for b in batcher.epoch(0))

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ConfigurationError):
            BatchSampler(RandomSampler(10), batch_size=0)

    def test_sharded_partial_batch_counted_and_emitted_consistently(self):
        """Regression: a shard's final short batch is either in both paths or neither.

        ``batches_per_epoch`` used to count from the full dataset size while
        ``epoch`` iterated only the rank's shard, so the short batch could be
        counted but dropped (or vice versa) depending on the ``drop_last``
        setting and which path asked.
        """
        # 10 items over 2 ranks -> shard length 5; batch 3 -> one full + one short.
        for drop_last, expected in ((False, 2), (True, 1)):
            sampler = DistributedSampler(10, num_replicas=2, rank=0, seed=0)
            assert sampler.epoch_length == 5
            batcher = BatchSampler(sampler, batch_size=3, drop_last=drop_last)
            batches = batcher.epoch(0)
            assert len(batches) == expected
            assert batcher.batches_per_epoch() == expected
            if drop_last:
                assert all(len(b) == 3 for b in batches)

    def test_sharded_exact_batches_unaffected_by_drop_last(self):
        # Shard length 5 with batch 5: no remainder, both settings agree.
        for drop_last in (False, True):
            sampler = DistributedSampler(10, num_replicas=2, rank=1, seed=0)
            batcher = BatchSampler(sampler, batch_size=5, drop_last=drop_last)
            assert len(batcher.epoch(0)) == batcher.batches_per_epoch() == 1

    def test_epoch_length_of_whole_dataset_samplers(self):
        assert RandomSampler(17, seed=0).epoch_length == 17
        caching = CachingSampler(DistributedSampler(10, 3, 2, seed=0),
                                 SamplerMemo())
        assert caching.epoch_length == len(caching.epoch(0))


class TestSamplerMemo:
    def test_kept_orders_are_shared_and_read_only(self):
        caching = CachingSampler(RandomSampler(20, seed=1), SamplerMemo())
        order = caching.epoch(0)
        assert caching.epoch(0) is order
        assert order.tolist() == RandomSampler(20, seed=1).epoch(0).tolist()
        with pytest.raises(ValueError, match="read-only"):
            order[0] = order[1]

    def test_one_sampler_per_size_and_seed(self):
        memo = SamplerMemo()
        assert memo.sampler(10, (3, 0)) is memo.sampler(10, (3, 0))
        assert memo.sampler(10, (3, 1)) is not memo.sampler(10, (3, 0))
        assert memo.sampler(11, (3, 0)) is not memo.sampler(10, (3, 0))
        assert len(memo) == 3

    def test_keeps_orders_while_space_and_never_evicts(self, monkeypatch):
        # Room for two 10-item int64 orders.
        monkeypatch.setattr(sampler_module, "SAMPLER_MEMO_BUDGET_BYTES", 160)
        memo = SamplerMemo()
        first, second, third = (memo.sampler(10, seed) for seed in (0, 1, 2))
        kept = [first.epoch(0), second.epoch(0)]
        # Over budget: a fresh, writable draw each call, equal to the
        # order a kept one would have been.
        late = third.epoch(0)
        assert late.flags.writeable and third.epoch(0) is not late
        assert late.tolist() == RandomSampler(10, seed=2).epoch(0).tolist()
        assert first.epoch(0) is kept[0] and second.epoch(0) is kept[1]
        assert not kept[0].flags.writeable and not kept[1].flags.writeable

    def test_racing_draws_of_one_epoch_keep_and_charge_one_order(
            self, monkeypatch):
        """Two threads that draw the same epoch at once both get the one
        kept order, and it is charged to the budget once."""
        # Room for two 10-item int64 orders.
        monkeypatch.setattr(sampler_module, "SAMPLER_MEMO_BUDGET_BYTES", 160)
        memo = SamplerMemo()
        both_drawing = threading.Barrier(2)

        class RacingSampler(RandomSampler):
            def epoch(self, epoch_index):
                both_drawing.wait(timeout=10)
                return super().epoch(epoch_index)

        racing = CachingSampler(RacingSampler(10, seed=0), memo)
        orders = [None, None]

        def draw(slot):
            orders[slot] = racing.epoch(0)

        threads = [threading.Thread(target=draw, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert orders[0] is orders[1] is racing.epoch(0)
        # The race charged one order, so a second one still fits.
        other = memo.sampler(10, 1)
        assert other.epoch(0) is other.epoch(0)


class TestEpochInvariantHelper:
    def test_detects_missing_and_duplicate_items(self):
        assert verify_epoch_invariant([0, 1, 2], 3)
        assert not verify_epoch_invariant([0, 1, 1], 3)
        assert not verify_epoch_invariant([0, 1], 3)
