"""Unit tests for the TFRecord-style chunked layout."""

import numpy as np
import pytest

from repro.datasets.records import RecordLayout
from repro.exceptions import ConfigurationError


@pytest.fixture
def layout(tiny_dataset):
    # ~10 items per chunk at 120 KB mean item size.
    return RecordLayout(tiny_dataset, chunk_bytes=1.2e6, shuffle_seed=0)


class TestRecordLayout:
    def test_every_item_maps_to_exactly_one_chunk(self, layout, tiny_dataset):
        chunk_ids = {layout.chunk_of_item(i) for i in range(len(tiny_dataset))}
        assert chunk_ids <= set(range(layout.num_chunks))
        covered = sum(c.num_items for c in layout.chunks)
        assert covered == len(tiny_dataset)

    def test_chunk_sizes_sum_to_dataset_size(self, layout, tiny_dataset):
        total = sum(layout.chunk_size(c.chunk_id) for c in layout.chunks)
        assert total == pytest.approx(tiny_dataset.total_bytes, rel=1e-6)

    def test_chunks_respect_target_size(self, layout):
        # Every chunk except possibly the last reaches the target size.
        for chunk in layout.chunks[:-1]:
            assert chunk.size_bytes >= 1.2e6

    def test_sequential_order_covers_all_chunks(self, layout):
        order = layout.sequential_chunk_order()
        assert sorted(order.tolist()) == list(range(layout.num_chunks))

    def test_interleaved_order_is_a_permutation_of_chunks(self, layout):
        order = layout.interleaved_chunk_order(num_readers=4, seed=1)
        assert sorted(order.tolist()) == list(range(layout.num_chunks))

    @pytest.mark.parametrize("num_readers", [1, 4, 8, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_interleaved_order_is_the_shuffled_file_order(self, layout,
                                                          num_readers, seed):
        """Each file is one chunk, so rotating among ``num_readers`` open
        files visits the shuffled file order unchanged."""
        expected = np.random.default_rng(seed).permutation(layout.num_chunks)
        order = layout.interleaved_chunk_order(num_readers, seed=seed)
        assert order.dtype == np.int64
        assert order.tolist() == expected.tolist()

    def test_interleaved_rejects_bad_reader_count(self, layout):
        with pytest.raises(ConfigurationError):
            layout.interleaved_chunk_order(0)

    def test_bad_chunk_size_rejected(self, tiny_dataset):
        with pytest.raises(ConfigurationError):
            RecordLayout(tiny_dataset, chunk_bytes=0)
