"""Table 3 — data stalls exist in TensorFlow too (TFRecord access pattern).

TensorFlow serialises the dataset into ~150 MB TFRecord files and reads them
(mostly) sequentially.  That access pattern is a pathological case for the
page cache's LRU lists, so an 8-GPU training job sees far more misses than
the cache capacity would suggest, and eight uncoordinated HP-search jobs
multiply the disk traffic by ~7x.  This experiment drives the chunk-level
record layout through the page-cache model for cache sizes of 25/35/50 % of
ImageNet-1K and reports the same three columns as the paper's table.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache.page_cache import PageCache
from repro.datasets.records import RecordLayout
from repro.experiments.base import DEFAULT_SCALE, ExperimentResult, scaled_dataset

DEFAULT_FRACTIONS = (0.5, 0.35, 0.25)


def run(scale: float = DEFAULT_SCALE, fractions: Sequence[float] = DEFAULT_FRACTIONS,
        dataset_name: str = "imagenet-1k", num_hp_jobs: int = 8,
        chunk_bytes: float = 150e6, seed: int = 0) -> ExperimentResult:
    """Reproduce Table 3: miss %, HP-search disk IO and read amplification."""
    dataset = scaled_dataset(dataset_name, scale, seed)
    # Keep roughly the real chunk-to-dataset ratio on the scaled dataset.
    layout = RecordLayout(dataset, chunk_bytes=chunk_bytes * scale, shuffle_seed=seed)
    result = ExperimentResult(
        experiment_id="tab3",
        title="Table 3 — TensorFlow/TFRecord data stalls (8-GPU job and 8-job HP search)",
        columns=["cache_pct", "train_miss_pct", "hp_disk_io_gb", "read_amplification"],
        notes=[f"{layout.num_chunks} record chunks; disk IO scaled back to the full "
               f"{dataset_name} size",
               "paper: 91/94/97 % misses and 6.1-7.3x read amplification"],
    )
    chunk_sizes = np.array([chunk.size_bytes for chunk in layout.chunks])
    # Eight HP-search jobs, each scanning its own shuffled file order, all
    # sharing the page cache: they advance in lockstep, one chunk per job
    # per step, so the shared stream is the orders' columns read in turn.
    orders = [layout.interleaved_chunk_order(8, seed=seed + 10 + j)
              for j in range(num_hp_jobs)]
    hp_stream = np.stack(orders).T.reshape(-1)
    hp_sizes = chunk_sizes[hp_stream]
    for fraction in fractions:
        capacity = dataset.total_bytes * fraction
        # (a) one 8-GPU training job scanning the records sequentially.
        train_cache = PageCache(capacity)
        for scan_seed in (seed, seed + 1):
            train_cache.reset_stats()
            order = layout.interleaved_chunk_order(8, seed=scan_seed)
            train_cache.bulk_stream_hits(order, chunk_sizes[order])
        train_miss = train_cache.stats.miss_ratio

        # (b) the HP-search jobs: a warm-up epoch, then the measured epoch.
        hp_cache = PageCache(capacity)
        hp_cache.bulk_stream_hits(hp_stream, hp_sizes)
        hp_cache.reset_stats()
        miss_sizes = hp_sizes[~hp_cache.bulk_stream_hits(hp_stream, hp_sizes)]
        disk_bytes = float(np.cumsum(miss_sizes)[-1]) if miss_sizes.size else 0.0
        single_job_bytes = dataset.total_bytes  # one full read of the dataset
        read_amp = disk_bytes / single_job_bytes
        result.add_row(
            cache_pct=100.0 * fraction,
            train_miss_pct=100.0 * train_miss,
            hp_disk_io_gb=disk_bytes / scale / 1e9,
            read_amplification=read_amp,
        )
    return result
