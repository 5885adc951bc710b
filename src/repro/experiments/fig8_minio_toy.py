"""Figure 8 — MinIO versus the page cache on the paper's 4-item example.

The figure walks a dataset of four items (A–D) with a two-item cache through
two epochs: MinIO incurs exactly the two capacity misses per epoch, while the
LRU page cache can thrash and miss up to all four.  This experiment replays
the example (and a slightly larger randomized variant) and reports misses per
epoch for both policies.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import Cache
from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.datasets.catalog import DatasetSpec
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import RandomSampler
from repro.experiments.base import ExperimentResult


def _epoch_misses(cache: Cache, order: np.ndarray, dataset: SyntheticDataset) -> int:
    return int((~cache.walk(order, dataset.item_sizes(order))).sum())


def run(num_items: int = 4, cache_items: int = 2, num_epochs: int = 2,
        seed: int = 7) -> ExperimentResult:
    """Reproduce the toy MinIO-vs-page-cache trace of Fig. 8."""
    spec = DatasetSpec(name="toy", task="image_classification", num_items=num_items,
                       mean_item_bytes=1024.0, item_size_cv=0.0)
    dataset = SyntheticDataset(spec, seed=seed)
    capacity = sum(dataset.item_size(i) for i in range(cache_items)) + 1.0
    sampler = RandomSampler(num_items, seed=seed)

    minio = MinIOCache(capacity)
    lru = PageCache(capacity, page_bytes=1.0)
    # Warm both caches with one epoch, as in the figure ("after warmup, the
    # cache has two items").
    warm_order = sampler.epoch(0)
    _epoch_misses(minio, warm_order, dataset)
    _epoch_misses(lru, warm_order, dataset)

    result = ExperimentResult(
        experiment_id="fig8",
        title="Fig. 8 — cache misses per epoch: MinIO vs LRU page cache "
              f"({num_items} items, cache of {cache_items})",
        columns=["epoch", "minio_misses", "page_cache_misses", "capacity_misses"],
        notes=["paper: MinIO incurs only the capacity misses (2/epoch); the page "
               "cache can miss 2-4 times per epoch because of thrashing"],
    )
    capacity_misses = num_items - cache_items
    for epoch in range(1, num_epochs + 1):
        order = sampler.epoch(epoch)
        result.add_row(
            epoch=epoch,
            minio_misses=_epoch_misses(minio, order, dataset),
            page_cache_misses=_epoch_misses(lru, order, dataset),
            capacity_misses=capacity_misses,
        )
    return result
