"""CoorDL distributed loader: partitioned caching across servers (Sec. 4.2).

One :class:`PartitionedCoorDLLoader` instance represents the data pipeline of
one *server* (rank) in a multi-server data-parallel job.  Local MinIO misses
are routed to the remote server that caches the item (metadata directory in
:class:`~repro.cache.partitioned.PartitionedCacheGroup`) over the TCP network
link, and only fall back to local storage when no server caches the item.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cache.partitioned import LookupSource, PartitionedCacheGroup
from repro.cluster.network import NetworkLink
from repro.cluster.server import ServerConfig
from repro.datasets.dataset import SyntheticDataset
from repro.datasets.sampler import BatchSampler, DistributedSampler
from repro.exceptions import ConfigurationError
from repro.pipeline.base import BatchFetchResult, DataLoader
from repro.prep.pipeline import PrepPipeline
from repro.storage.filestore import FileStore


class PartitionedCoorDLLoader(DataLoader):
    """Per-server CoorDL loader participating in a partitioned cache group."""

    def __init__(self, *args, group: PartitionedCacheGroup, rank: int,
                 network: NetworkLink, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._group = group
        self._rank = rank
        self._network = network

    @property
    def rank(self) -> int:
        """This loader's server index within the distributed job."""
        return self._rank

    @property
    def group(self) -> PartitionedCacheGroup:
        """The job-wide partitioned cache group."""
        return self._group

    @classmethod
    def build_group(cls, dataset: SyntheticDataset, servers: List[ServerConfig],
                    batch_size: int, gpu_prep: bool = False, seed: int = 0,
                    group: Optional[PartitionedCacheGroup] = None,
                    ) -> List["PartitionedCoorDLLoader"]:
        """Build one loader per server, all sharing a partitioned cache group.

        Args:
            dataset: Dataset of the distributed job.
            servers: Participating servers (one loader per entry).
            batch_size: Per-server batch size (per-GPU batch x GPUs/server).
            gpu_prep: Offload prep to the GPUs.
            seed: Shared sampler/shard seed.
            group: Reuse an existing (possibly already-warm) cache group
                instead of building and populating a fresh one — the
                elasticity scenarios hand surviving servers' caches across a
                membership change this way.  Must have one cache per server.
        """
        if group is None:
            group = PartitionedCacheGroup(
                dataset, [s.cache_bytes for s in servers], seed=seed)
            group.populate_from_shards()
        elif group.num_servers != len(servers):
            raise ConfigurationError(
                f"group has {group.num_servers} caches for {len(servers)} servers")
        loaders: List[PartitionedCoorDLLoader] = []
        for rank, server in enumerate(servers):
            prep = PrepPipeline.for_dataset(dataset, "dali")
            workers = server.worker_pool(gpu_offload=gpu_prep)
            sampler = DistributedSampler(len(dataset), num_replicas=len(servers),
                                         rank=rank, seed=seed)
            loaders.append(cls(
                dataset=dataset,
                store=FileStore(dataset, server.storage),
                cache=group.caches[rank],
                batch_sampler=BatchSampler(sampler, batch_size),
                prep=prep,
                workers=workers,
                num_gpus=server.num_gpus,
                name="coordl-partitioned",
                group=group,
                rank=rank,
                network=server.network,
            ))
        return loaders

    def fetch_batch(self, batch: np.ndarray, at_time: float = 0.0) -> BatchFetchResult:
        """Fetch one minibatch: local MinIO, then remote cache, then storage."""
        duration = 0.0
        hits = 0
        misses = 0
        disk_bytes = 0.0
        cache_bytes = 0.0
        remote_bytes = 0.0
        for raw_id in batch:
            item_id = int(raw_id)
            lookup = self._group.lookup(self._rank, item_id)
            size = lookup.size_bytes
            if lookup.source is LookupSource.LOCAL_CACHE:
                hits += 1
                cache_bytes += size
                duration += self._dram.read_time(size)
                self._io.record_cache(size)
            elif lookup.source is LookupSource.REMOTE_CACHE:
                # A remote-cache hit avoids the fetch stall but is not a local
                # cache hit; count it separately.
                misses += 1
                remote_bytes += size
                duration += self._network.transfer_time(size)
                self._io.record_remote(size)
            else:
                misses += 1
                disk_bytes += size
                duration += self._store.read_bytes(size, at_time=at_time + duration)
                self._io.record_disk(size, at_time=at_time + duration)
                self._group.admit_local(self._rank, item_id)
        return BatchFetchResult(
            duration_s=duration,
            hits=hits,
            misses=misses,
            disk_bytes=disk_bytes,
            cache_bytes=cache_bytes,
            remote_bytes=remote_bytes,
        )

    def batch_time_arrays(self, epoch_index: int) -> Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Vectorised distributed epoch: bulk local/remote/storage accounting.

        The partitioned group's trajectory over a single-pass epoch is always
        analytic (MinIO caches never evict and the directory only gains
        entries for items that are not re-requested), so the whole epoch is
        classified into local-hit / remote-hit / storage-miss masks in one
        :meth:`~repro.cache.partitioned.PartitionedCacheGroup.bulk_epoch_lookup`
        call and charged to DRAM / network / storage in bulk, with exactly
        the side effects of the per-item :meth:`fetch_batch` loop (cache
        counters and admissions, directory updates, loader and store I/O
        accounting including the disk timeline).  Falls back (``None``,
        without side effects) for subclass-customised fetch policies and
        repeated-item epochs.
        """
        cls = type(self)
        if (cls.fetch_batch is not PartitionedCoorDLLoader.fetch_batch
                or cls.cached_fetch_time is not DataLoader.cached_fetch_time
                or cls.prep_batch_time is not DataLoader.prep_batch_time):
            return None
        plan = self._single_pass_epoch(epoch_index)
        if plan is None:
            return None
        batches, order, sizes = plan
        local, remote = self._group.bulk_epoch_lookup(self._rank, order, sizes)
        storage = ~(local | remote)

        # Point of no return: the group has applied its epoch mutations.
        item_times = np.empty(order.size, dtype=np.float64)
        item_times[local] = self._dram.read_times_array(sizes[local])
        item_times[remote] = self._network.transfer_times_array(sizes[remote])
        item_times[storage] = self._store.bulk_read_times(sizes[storage])
        clock = np.cumsum(item_times)
        if storage.any():
            miss_sizes = sizes[storage]
            # Store timeline at read start, loader timeline at completion,
            # exactly as in the per-item path above.
            self._store.record_bulk(miss_sizes,
                                    at_times=clock[storage] - item_times[storage])
            self._io.record_disk_bulk(miss_sizes, at_times=clock[storage])
        if local.any():
            self._io.record_cache_bulk(float(sizes[local].sum()), int(local.sum()))
        if remote.any():
            self._io.record_remote_bulk(float(sizes[remote].sum()), int(remote.sum()))
        return self._epoch_arrays(batches, item_times, sizes)
