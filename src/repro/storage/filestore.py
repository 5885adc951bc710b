"""File store: the storage-resident copy of a dataset.

A :class:`FileStore` binds a :class:`~repro.datasets.dataset.SyntheticDataset`
to a :class:`~repro.storage.device.StorageDevice` and answers item reads,
returning the *time* the read would take and accounting the bytes in an
:class:`~repro.storage.iostats.IOStats`.  It is the single point through which
all disk traffic in the simulation flows, so read amplification and disk-I/O
totals reported by the experiments are actual counts of calls made by the
loaders, not closed-form estimates.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datasets.dataset import SyntheticDataset
from repro.storage.device import StorageDevice
from repro.storage.iostats import IOStats


class FileStore:
    """Dataset resident on one storage device.

    Args:
        dataset: The dataset stored on this device.
        device: The storage device model.

    Every read is charged at the device's random-read rate: the loaders read
    one small file per sample, far from the large transfers sequential
    bandwidth needs.
    """

    def __init__(self, dataset: SyntheticDataset, device: StorageDevice) -> None:
        self._dataset = dataset
        self._device = device
        self._stats = IOStats()

    @property
    def dataset(self) -> SyntheticDataset:
        """The dataset stored here."""
        return self._dataset

    @property
    def device(self) -> StorageDevice:
        """The backing device model."""
        return self._device

    @property
    def stats(self) -> IOStats:
        """Cumulative I/O counters for this store."""
        return self._stats

    def read_item(self, item_id: int, at_time: Optional[float] = None) -> float:
        """Read one item from storage; returns the read duration in seconds."""
        return self.read_bytes(self._dataset.item_size(item_id), at_time=at_time)

    def read_bytes(self, nbytes: float, at_time: Optional[float] = None) -> float:
        """Read an arbitrary byte extent; returns the read duration."""
        duration = self._device.read_time(nbytes)
        self._stats.record_disk(nbytes, at_time=at_time)
        return duration

    def bulk_read_times(self, sizes: "np.ndarray") -> "np.ndarray":
        """Per-read durations for many reads, without recording them.

        The vectorised fetch path needs the durations *before* it can place
        the reads on the virtual timeline; pair with :meth:`record_bulk`.
        """
        return self._device.read_times_array(sizes)

    def record_bulk(self, sizes: Sequence[float],
                    at_times: Optional[Sequence[float]] = None) -> None:
        """Account many reads at once (see :meth:`IOStats.record_disk_bulk`)."""
        self._stats.record_disk_bulk(sizes, at_times)

    def reset_stats(self) -> None:
        """Clear accumulated I/O counters (e.g. after the warm-up epoch)."""
        self._stats.reset()
