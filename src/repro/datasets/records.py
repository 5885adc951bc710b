"""TFRecord / RecordIO style chunked dataset layout (Sec. 3.3.3, Table 3).

TensorFlow does not store training samples as individual files; it serialises
them into a set of ~100-200 MB record files ("TFRecords").  Reads become
sequential over large chunks, which interacts pathologically with the page
cache's LRU policy: by the time the scan wraps around to the beginning of the
file set, the head chunks have been evicted, so an LRU cache smaller than the
dataset yields almost no hits.

:class:`RecordLayout` maps item ids onto chunk ids so the cache/IO simulation
can be run at chunk granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.datasets.dataset import SyntheticDataset
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RecordChunk:
    """One serialized record file: a contiguous range of items."""

    chunk_id: int
    first_item: int
    num_items: int
    size_bytes: float


class RecordLayout:
    """Assignment of dataset items to fixed-size record chunks.

    Args:
        dataset: The dataset being serialised.
        chunk_bytes: Target chunk size; the paper quotes 100–200 MB per
            TFRecord file, default 150 MB.
        shuffle_seed: TFRecord creation shuffles items once before
            serialisation; the seed makes that shuffle deterministic.
    """

    def __init__(self, dataset: SyntheticDataset, chunk_bytes: float = 150e6,
                 shuffle_seed: int = 0) -> None:
        if chunk_bytes <= 0:
            raise ConfigurationError("chunk size must be positive")
        self._dataset = dataset
        self._chunk_bytes = chunk_bytes
        rng = np.random.default_rng(shuffle_seed)
        self._serial_order = rng.permutation(len(dataset)).astype(np.int64)
        self._chunks = self._build_chunks()
        self._item_to_chunk = self._build_index()

    def _build_chunks(self) -> List[RecordChunk]:
        chunks: List[RecordChunk] = []
        start = 0
        chunk_id = 0
        current_bytes = 0.0
        for pos, item in enumerate(self._serial_order):
            current_bytes += self._dataset.item_size(int(item))
            last = pos == len(self._serial_order) - 1
            if current_bytes >= self._chunk_bytes or last:
                chunks.append(RecordChunk(
                    chunk_id=chunk_id,
                    first_item=start,
                    num_items=pos - start + 1,
                    size_bytes=current_bytes,
                ))
                chunk_id += 1
                start = pos + 1
                current_bytes = 0.0
        return chunks

    def _build_index(self) -> np.ndarray:
        index = np.empty(len(self._dataset), dtype=np.int64)
        for chunk in self._chunks:
            serial_positions = range(chunk.first_item, chunk.first_item + chunk.num_items)
            for pos in serial_positions:
                index[self._serial_order[pos]] = chunk.chunk_id
        return index

    @property
    def dataset(self) -> SyntheticDataset:
        """The dataset this layout serialises."""
        return self._dataset

    @property
    def num_chunks(self) -> int:
        """Number of record files."""
        return len(self._chunks)

    @property
    def chunks(self) -> List[RecordChunk]:
        """All chunks, in serialisation (storage) order."""
        return list(self._chunks)

    def chunk_of_item(self, item_id: int) -> int:
        """Chunk id that stores a given item."""
        return int(self._item_to_chunk[item_id])

    def chunk_size(self, chunk_id: int) -> float:
        """On-disk size of a chunk in bytes."""
        return self._chunks[chunk_id].size_bytes

    def sequential_chunk_order(self) -> np.ndarray:
        """Chunk access order for a sequential epoch scan."""
        return np.arange(self.num_chunks, dtype=np.int64)

    def interleaved_chunk_order(self, num_readers: int, seed: int = 0) -> np.ndarray:
        """Chunk order when ``num_readers`` parallel readers interleave files.

        tf.data typically interleaves several record files; the resulting
        storage stream is still (piecewise) sequential, it just rotates among
        ``num_readers`` open files.  Each file is one chunk, so a round-robin
        over groups of ``num_readers`` files visits the shuffled file order
        unchanged: the order is that permutation, whatever ``num_readers``.
        """
        if num_readers <= 0:
            raise ConfigurationError("need at least one reader")
        return np.random.default_rng(seed).permutation(self.num_chunks)
