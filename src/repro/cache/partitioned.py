"""Partitioned caching across servers (Sec. 4.2).

In distributed training every server processes a *different random shard each
epoch*, so its locally cached items are frequently not the ones it needs, and
cache misses fall through to (slow) local storage even though some other
server holds the item in DRAM.  CoorDL instead:

1. shards the dataset across servers in epoch 0 and populates each server's
   local MinIO cache only with its shard, and
2. maintains metadata mapping item id -> owning server so that a local miss is
   served from the *remote* server's cache over TCP (40 Gbps >> SATA SSD),
   falling back to local storage only when no server caches the item.

When the aggregate DRAM of the participating servers covers the dataset, no
server touches storage after the first epoch.

:class:`PartitionedCacheGroup` implements the shared metadata directory and
per-server MinIO caches; lookups return where the item was found so the epoch
simulator can charge the right device (DRAM / network / disk).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.base import access_stream
from repro.cache.minio import MinIOCache
from repro.datasets.dataset import SyntheticDataset
from repro.exceptions import ConfigurationError


class LookupSource(enum.Enum):
    """Where a partitioned-cache lookup was satisfied."""

    LOCAL_CACHE = "local_cache"
    REMOTE_CACHE = "remote_cache"
    STORAGE = "storage"


@dataclass
class PartitionedLookup:
    """Result of one lookup against the partitioned cache group."""

    source: LookupSource
    owner: Optional[int]
    size_bytes: float


class PartitionedCacheGroup:
    """MinIO caches of all servers in a distributed job, plus the directory.

    Args:
        dataset: Dataset being trained on.
        capacities_bytes: Per-server cache byte budgets (one entry per server).
        seed: Seed for the initial shard assignment.
    """

    def __init__(self, dataset: SyntheticDataset, capacities_bytes: Sequence[float],
                 seed: int = 0) -> None:
        if not capacities_bytes:
            raise ConfigurationError("need at least one server")
        self._dataset = dataset
        self._caches: List[MinIOCache] = [MinIOCache(c) for c in capacities_bytes]
        # Dense metadata directory: item id -> owning server, -1 when no
        # server caches the item.  An array (rather than a dict) keeps the
        # vectorised epoch path free of per-item Python work.
        self._owners = np.full(len(dataset), -1, dtype=np.int64)
        self._seed = seed
        self._shards = self._assign_shards()

    def _assign_shards(self) -> List[np.ndarray]:
        """Split the dataset evenly across servers (load-balanced, Sec. 5.5)."""
        rng = np.random.default_rng(self._seed)
        perm = rng.permutation(len(self._dataset))
        bounds = np.linspace(0, len(self._dataset), self.num_servers + 1).astype(int)
        return [perm[bounds[i]:bounds[i + 1]] for i in range(self.num_servers)]

    @property
    def num_servers(self) -> int:
        """Number of servers participating in the job."""
        return len(self._caches)

    @property
    def caches(self) -> List[MinIOCache]:
        """Per-server MinIO caches (indexable by server id)."""
        return self._caches

    def shard(self, server: int) -> np.ndarray:
        """Item ids assigned to a server for cache population."""
        return self._shards[server]

    def aggregate_capacity_bytes(self) -> float:
        """Total DRAM cache budget across all servers."""
        return sum(c.capacity_bytes for c in self._caches)

    def covers_dataset(self) -> bool:
        """True when the aggregate cache budget can hold the whole dataset."""
        return self.aggregate_capacity_bytes() >= self._dataset.total_bytes

    def populate_from_shards(self) -> None:
        """Epoch-0 population: each server caches (a prefix of) its own shard.

        Called by the distributed simulator after the first epoch;  in the
        live system this happens as a side effect of the first epoch's reads.
        Each server admits its shard in order until MinIO first rejects an
        item (:meth:`~repro.cache.minio.MinIOCache.admit_prefix`); the rest
        of the shard stays on disk.
        """
        for server, shard in enumerate(self._shards):
            admitted = self._caches[server].admit_prefix(
                shard, self._dataset.item_sizes(shard))
            self._owners[shard[:admitted]] = server

    def owner_of(self, item_id: int) -> Optional[int]:
        """Server whose cache holds the item, or None if uncached everywhere."""
        owner = int(self._owners[item_id])
        return None if owner < 0 else owner

    def lookup(self, server: int, item_id: int) -> PartitionedLookup:
        """Look up an item on behalf of ``server``.

        Order of preference mirrors CoorDL: local MinIO cache, then a remote
        server's cache (over TCP), then local storage.
        """
        if not 0 <= server < self.num_servers:
            raise ConfigurationError(f"server {server} out of range")
        size = self._dataset.item_size(item_id)
        if self._caches[server].lookup(item_id):
            return PartitionedLookup(LookupSource.LOCAL_CACHE, server, size)
        owner = self.owner_of(item_id)
        if owner is not None and owner != server:
            return PartitionedLookup(LookupSource.REMOTE_CACHE, owner, size)
        return PartitionedLookup(LookupSource.STORAGE, None, size)

    def admit_local(self, server: int, item_id: int) -> bool:
        """Let a server try to cache an item it just fetched from storage."""
        size = self._dataset.item_size(item_id)
        admitted = self._caches[server].admit(item_id, size)
        if admitted and self._owners[item_id] < 0:
            self._owners[item_id] = server
        return admitted

    def bulk_epoch_lookup(self, server: int, item_ids: np.ndarray,
                          sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One server's whole epoch of distinct lookups, vectorised.

        Classifies every access of a single-pass epoch (pairwise-distinct
        ``item_ids``) into local-hit / remote-hit / storage-miss using the
        same preference order as :meth:`lookup`, then applies *exactly* the
        side effects the per-item ``lookup`` + ``admit_local`` sequence would
        have produced: the local MinIO cache's hit/miss counters, the greedy
        insert-while-space admissions over the storage misses in access
        order, and the directory updates for the admitted items.

        The classification is analytic because within a single-pass epoch no
        item is re-requested: MinIO never evicts, so local residency at epoch
        start decides every local hit, and a mid-epoch admission (which does
        mutate the directory) concerns an item that is not looked up again.

        Returns:
            ``(local, remote)`` boolean masks over the accesses; the storage
            misses are the remainder ``~(local | remote)``.
        """
        if not 0 <= server < self.num_servers:
            raise ConfigurationError(f"server {server} out of range")
        item_ids, sizes = access_stream(item_ids, sizes)
        cache = self._caches[server]
        local = cache.contains_array(item_ids)
        owners = self._owners[item_ids]
        remote = ~local & (owners >= 0) & (owners != server)
        storage = ~(local | remote)
        # Local-cache counters + greedy admission over the storage misses
        # (remote hits count as local misses but are never offered locally).
        cache.bulk_epoch_hits(item_ids, sizes, admit=storage)
        if storage.any():
            # Whatever became resident among the storage misses was admitted;
            # those items had no owner (else they would have been remote).
            admitted = storage & cache.contains_array(item_ids)
            self._owners[item_ids[admitted]] = server
        return local, remote

    def add_server(self, capacity_bytes: float) -> int:
        """Elastic scale-up: a new server joins the partition mid-training.

        The newcomer arrives with a cold cache and warms organically through
        the normal miss/admit path (:meth:`bulk_epoch_lookup` /
        :meth:`admit_local`); the epoch-0 shard assignment is *not* redrawn
        — shards only seed the initial population.  Returns the new server's
        index.
        """
        if capacity_bytes <= 0:
            raise ConfigurationError("new server needs a positive cache budget")
        self._caches.append(MinIOCache(capacity_bytes))
        self._shards.append(np.empty(0, dtype=np.int64))
        return len(self._caches) - 1

    def deactivate_server(self, server: int) -> float:
        """Elastic scale-down: a server leaves and its cached bytes are lost.

        Clears the departing server's cache and removes it from the
        directory (its items become owner-less, so survivors fall back to
        storage and re-warm them).  The server index stays valid — lookups
        on behalf of a departed server still work — but elasticity-aware
        callers stop routing epochs to it.  Returns the bytes dropped.
        """
        if not 0 <= server < self.num_servers:
            raise ConfigurationError(f"server {server} out of range")
        lost = self._caches[server].used_bytes
        self._caches[server].clear()
        self._owners[self._owners == server] = -1
        return lost
