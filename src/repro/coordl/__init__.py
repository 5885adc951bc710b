"""CoorDL: coordinated data loading (MinIO, partitioned caching, coordinated prep).

CoorDL's single-server loader is DALI with the page cache swapped for the
MinIO cache (:class:`repro.cache.minio.MinIOCache`); it is the ``coordl``
row of :data:`repro.sim.single_server.LOADER_RECIPES`.  This package holds
the loader that changes more than the cache: the partitioned loader of
distributed jobs.  Coordinated prep for HP search (Sec. 4.3) and its
staging memory are priced by :class:`repro.sim.hp_search.HPSearchScenario`,
crash detection and shard reassignment (Sec. 4.4) by
:meth:`repro.sim.failures.FailureScenario.run_crash`.
"""

from repro.coordl.partitioned_loader import PartitionedCoorDLLoader

__all__ = ["PartitionedCoorDLLoader"]
