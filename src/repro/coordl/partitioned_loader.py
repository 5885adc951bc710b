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
from repro.pipeline.base import DataLoader
from repro.prep.pipeline import PrepPipeline


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
                    ) -> List["PartitionedCoorDLLoader"]:
        """Build one loader per server, all sharing a fresh partitioned
        cache group populated from the servers' shards.

        Args:
            dataset: Dataset of the distributed job.
            servers: Participating servers (one loader per entry).
            batch_size: Per-server batch size (per-GPU batch x GPUs/server).
            gpu_prep: Offload prep to the GPUs.
            seed: Shared sampler/shard seed.
        """
        group = PartitionedCacheGroup(
            dataset, [s.cache_bytes for s in servers], seed=seed)
        group.populate_from_shards()
        loaders: List[PartitionedCoorDLLoader] = []
        for rank, server in enumerate(servers):
            prep = PrepPipeline.for_dataset(dataset, "dali")
            workers = server.worker_pool(gpu_offload=gpu_prep)
            sampler = DistributedSampler(len(dataset), num_replicas=len(servers),
                                         rank=rank, seed=seed)
            loaders.append(cls(
                dataset=dataset,
                storage=server.storage,
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

    def fetch_batch(self, batch: np.ndarray, at_time: float = 0.0) -> float:
        """Fetch one minibatch: local MinIO, then remote cache, then storage.

        Returns the fetch duration in seconds.
        """
        duration = 0.0
        for raw_id in batch:
            item_id = int(raw_id)
            lookup = self._group.lookup(self._rank, item_id)
            size = lookup.size_bytes
            if lookup.source is LookupSource.LOCAL_CACHE:
                duration += self._dram.read_time(size)
                self._io.record_cache(size)
            elif lookup.source is LookupSource.REMOTE_CACHE:
                # A remote-cache hit avoids the fetch stall but is not a local
                # cache hit; count it separately.
                duration += self._network.transfer_time(size)
                self._io.record_remote(size)
            else:
                duration += self._storage.read_time(size)
                self._io.record_disk(size, at_time=at_time + duration)
                self._group.admit_local(self._rank, item_id)
        return duration

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
        counters and admissions, directory updates, I/O accounting
        including the disk timeline).  Falls back (``None``, without side
        effects) for repeated-item epochs.
        """
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
        item_times[storage] = self._storage.read_times_array(sizes[storage])
        clock = np.cumsum(item_times)
        if storage.any():
            # Timeline samples at read completion, as in the per-item path.
            self._io.record_disk_bulk(sizes[storage], at_times=clock[storage])
        if local.any():
            self._io.record_cache_bulk(float(sizes[local].sum()), int(local.sum()))
        if remote.any():
            self._io.record_remote_bulk(float(sizes[remote].sum()), int(remote.sum()))
        return self._epoch_arrays(batches, item_times, sizes)
