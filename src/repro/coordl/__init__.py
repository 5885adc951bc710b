"""CoorDL: coordinated data loading (MinIO, partitioned caching, coordinated prep).

CoorDL's single-server loader is DALI with the page cache swapped for the
MinIO cache (:class:`repro.cache.minio.MinIOCache`); it is the ``coordl``
row of :data:`repro.sim.single_server.LOADER_RECIPES`.  This package holds
what changes more than the cache: the partitioned loader of distributed
jobs, coordinated prep for HP search with its staging area, and failure
handling.
"""

from repro.coordl.coordinated_prep import (
    BatchAssignment,
    CoordinatedEpochRunner,
    CoordinatedPrepPlan,
)
from repro.coordl.failure import (
    FailureDetector,
    FailureEvent,
    JobState,
    RecoveryAction,
    TimeoutReport,
)
from repro.coordl.partitioned_loader import PartitionedCoorDLLoader
from repro.coordl.staging import StagedBatch, StagingArea

__all__ = [
    "PartitionedCoorDLLoader",
    "CoordinatedPrepPlan",
    "CoordinatedEpochRunner",
    "BatchAssignment",
    "StagingArea",
    "StagedBatch",
    "FailureDetector",
    "FailureEvent",
    "TimeoutReport",
    "JobState",
    "RecoveryAction",
]
