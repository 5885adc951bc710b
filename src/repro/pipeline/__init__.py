"""Data-loader layer: the one loader class and its epoch statistics.

Every training loader kind (the native PyTorch DataLoader, DALI-seq,
DALI-shuffle, CoorDL and Py-CoorDL) is a :class:`DataLoader` assembled by
:func:`repro.sim.single_server.build_loader` from its recipe: a prep
library, a cache policy and an access order.
"""

from repro.pipeline.base import BatchFetchResult, DataLoader
from repro.pipeline.stats import EpochStats, TrainingRunStats

__all__ = [
    "DataLoader",
    "BatchFetchResult",
    "EpochStats",
    "TrainingRunStats",
]
