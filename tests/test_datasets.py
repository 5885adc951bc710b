"""Unit tests for the dataset catalog and synthetic datasets."""

import numpy as np
import pytest

from repro import units
from repro.datasets.catalog import (
    FMA,
    IMAGENET_1K,
    IMAGENET_22K,
    OPENIMAGES,
    DatasetSpec,
    dataset_names,
    get_dataset_spec,
)
from repro.datasets.dataset import SyntheticDataset
from repro.exceptions import ConfigurationError, UnknownItemError


class TestCatalog:
    def test_catalog_contains_the_paper_datasets(self):
        names = dataset_names()
        for expected in ("imagenet-1k", "imagenet-22k", "openimages",
                         "openimages-detection", "fma"):
            assert expected in names

    def test_lookup_by_name(self):
        assert get_dataset_spec("openimages") is OPENIMAGES

    def test_unknown_dataset_raises(self):
        with pytest.raises(ConfigurationError):
            get_dataset_spec("cifar-10")

    def test_total_sizes_match_paper_magnitudes(self):
        # Table 1: ImageNet-1K 146 GB, ImageNet-22K 1.3 TB, OpenImages 645 GB,
        # FMA 950 GB.  Allow 15% slack on the synthetic approximations.
        assert IMAGENET_1K.total_bytes == pytest.approx(units.GiB(146), rel=0.15)
        assert IMAGENET_22K.total_bytes == pytest.approx(1.3e12, rel=0.15)
        assert OPENIMAGES.total_bytes == pytest.approx(645e9, rel=0.15)
        assert FMA.total_bytes == pytest.approx(950e9, rel=0.15)

    def test_scaled_spec_shrinks_items_only(self):
        scaled = OPENIMAGES.scaled(0.01)
        assert scaled.num_items == pytest.approx(OPENIMAGES.num_items * 0.01, rel=0.01)
        assert scaled.mean_item_bytes == OPENIMAGES.mean_item_bytes
        assert scaled.task == OPENIMAGES.task

    def test_scaled_spec_keeps_at_least_64_items(self):
        tiny = OPENIMAGES.scaled(1e-9)
        assert tiny.num_items == 64
        assert tiny.name == "openimages@1e-09"

    def test_scaled_spec_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            OPENIMAGES.scaled(0.0)
        with pytest.raises(ConfigurationError):
            OPENIMAGES.scaled(1.5)


class TestSyntheticDataset:
    def test_len_and_iteration(self, tiny_dataset):
        assert len(tiny_dataset) == 200
        assert list(tiny_dataset)[:3] == [0, 1, 2]

    def test_item_sizes_are_positive_and_deterministic(self, tiny_spec):
        a = SyntheticDataset(tiny_spec, seed=42)
        b = SyntheticDataset(tiny_spec, seed=42)
        assert all(a.item_size(i) >= 1024 for i in range(len(a)))
        assert [a.item_size(i) for i in range(20)] == [b.item_size(i) for i in range(20)]

    def test_different_seeds_give_different_sizes(self, tiny_spec):
        a = SyntheticDataset(tiny_spec, seed=1)
        b = SyntheticDataset(tiny_spec, seed=2)
        assert [a.item_size(i) for i in range(10)] != [b.item_size(i) for i in range(10)]

    def test_mean_item_size_matches_spec(self, tiny_spec):
        ds = SyntheticDataset(tiny_spec, seed=0)
        assert ds.mean_item_bytes == pytest.approx(tiny_spec.mean_item_bytes, rel=0.2)

    def test_out_of_range_item_raises(self, tiny_dataset):
        with pytest.raises(UnknownItemError):
            tiny_dataset.item_size(len(tiny_dataset))
        with pytest.raises(UnknownItemError):
            tiny_dataset.item_size(-1)

    def test_items_size_sums_individual_sizes(self, tiny_dataset):
        ids = [0, 5, 7]
        expected = sum(tiny_dataset.item_size(i) for i in ids)
        assert tiny_dataset.items_size(ids) == pytest.approx(expected)

    def test_items_size_rejects_bad_ids(self, tiny_dataset):
        with pytest.raises(UnknownItemError):
            tiny_dataset.items_size([0, 10_000])
        for bad in (len(tiny_dataset), -1):
            with pytest.raises(UnknownItemError):
                tiny_dataset.item_sizes(np.array([0, bad]))
        assert tiny_dataset.item_sizes(np.array([], dtype=np.int64)).size == 0

    def test_cache_capacity_for_fraction(self, tiny_dataset):
        assert tiny_dataset.cache_capacity_for_fraction(0.5) == pytest.approx(
            tiny_dataset.total_bytes * 0.5)
        with pytest.raises(ConfigurationError):
            tiny_dataset.cache_capacity_for_fraction(1.5)

    def test_scale_argument_builds_smaller_dataset(self, tiny_spec):
        full = SyntheticDataset(tiny_spec, seed=0)
        half = SyntheticDataset(tiny_spec, seed=0, scale=0.5)
        assert len(half) == 100
        assert half.total_bytes < full.total_bytes

    def test_empty_spec_rejected(self):
        spec = DatasetSpec(name="empty", task="image_classification",
                           num_items=0, mean_item_bytes=1000.0)
        with pytest.raises(ConfigurationError):
            SyntheticDataset(spec)
