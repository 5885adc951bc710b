"""Cache substrate: OS page cache, MinIO, and partitioned caching."""

from repro.cache.base import Cache
from repro.cache.minio import MinIOCache
from repro.cache.page_cache import PageCache
from repro.cache.partitioned import (
    LookupSource,
    PartitionedCacheGroup,
    PartitionedLookup,
)
from repro.cache.stats import CacheStats
from repro.cache.warm_kernel import (
    WARM_KERNEL_ENV_VAR,
    SegmentedLRUResult,
    native_core_loaded,
    simulate_segmented_lru,
)

__all__ = [
    "Cache",
    "CacheStats",
    "PageCache",
    "MinIOCache",
    "PartitionedCacheGroup",
    "PartitionedLookup",
    "LookupSource",
    "SegmentedLRUResult",
    "simulate_segmented_lru",
    "native_core_loaded",
    "WARM_KERNEL_ENV_VAR",
]
