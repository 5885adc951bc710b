"""Samplers: how the data pipeline walks the dataset each epoch.

DNN training accesses every item exactly once per epoch in a random order
(Sec. 2).  The different loaders in the paper differ in *how* they randomise:

* :class:`RandomSampler` — fresh uniform permutation every epoch (the native
  PyTorch DataLoader and ``DALI-shuffle``).
* :class:`SequentialSampler` — items in storage order (``DALI-seq`` reads
  files sequentially off disk and shuffles in a small memory buffer; from the
  page cache's point of view the access stream is sequential).
* :class:`ShuffleBufferSampler` — sequential fetch order with a bounded
  in-memory shuffle window, modelling DALI-seq / TFRecord readers more
  precisely when the minibatch composition matters.
* :class:`DistributedSampler` — partitions each epoch's permutation across the
  servers of a distributed job (random disjoint shards, changing every epoch,
  Sec. 3.3.1).

All samplers are deterministic given their seed, and all uphold the epoch
invariant: every item appears exactly once per epoch.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


class Sampler:
    """Base class: yields item ids for one epoch at a time."""

    def __init__(self, num_items: int, seed: int = 0) -> None:
        if num_items <= 0:
            raise ConfigurationError("sampler needs a non-empty dataset")
        self._num_items = num_items
        self._seed = seed

    @property
    def num_items(self) -> int:
        """Number of items in the sampled universe (the whole dataset)."""
        return self._num_items

    @property
    def epoch_length(self) -> int:
        """Number of items actually yielded per epoch.

        Equal to :attr:`num_items` for whole-dataset samplers; sharded
        samplers (:class:`DistributedSampler`) yield only their slice, and
        anything deriving per-epoch counts (``BatchSampler``) must use this,
        not ``num_items``.
        """
        return self._num_items

    def epoch(self, epoch_index: int) -> np.ndarray:
        """Return the item-id order for one epoch as an int64 array."""
        raise NotImplementedError


class SequentialSampler(Sampler):
    """Items in storage order — the access pattern of DALI-seq file readers."""

    def epoch(self, epoch_index: int) -> np.ndarray:
        return np.arange(self._num_items, dtype=np.int64)


class RandomSampler(Sampler):
    """Fresh uniform permutation every epoch (PyTorch DL, DALI-shuffle)."""

    def epoch(self, epoch_index: int) -> np.ndarray:
        rng = np.random.default_rng((self._seed, epoch_index))
        return rng.permutation(self._num_items).astype(np.int64, copy=False)


class ShuffleBufferSampler(Sampler):
    """Sequential storage reads + bounded in-memory shuffle window.

    The *storage-visible* order is still sequential (what matters for the page
    cache); the *training-visible* order is randomised within a window of
    ``buffer_size`` items, which is how DALI-seq and tf.data's
    ``shuffle(buffer_size)`` behave.
    """

    def __init__(self, num_items: int, buffer_size: int, seed: int = 0) -> None:
        super().__init__(num_items, seed)
        if buffer_size <= 0:
            raise ConfigurationError("shuffle buffer must hold at least one item")
        self._buffer_size = buffer_size

    @property
    def buffer_size(self) -> int:
        """Number of items held in the shuffle window."""
        return self._buffer_size

    def storage_order(self, epoch_index: int) -> np.ndarray:
        """Order in which items are read from storage (sequential)."""
        return np.arange(self._num_items, dtype=np.int64)

    def epoch(self, epoch_index: int) -> np.ndarray:
        rng = np.random.default_rng((self._seed, epoch_index, 0xB0FF))
        num_items, size = self._num_items, self._buffer_size
        # Every pick's bound is known up front: the buffer holds ``size``
        # items at each steady-state pick, then drains one item per pick.
        # One bounded draw over those bounds yields the very values one
        # draw per pick would.
        bounds = np.concatenate([
            np.full(max(0, num_items - size + 1), size, dtype=np.int64),
            np.arange(min(num_items, size - 1), 0, -1, dtype=np.int64)])
        picks = iter(rng.integers(0, bounds).tolist())
        order: List[int] = []
        buffer: List[int] = []
        for item in range(num_items):
            buffer.append(item)
            if len(buffer) >= size:
                order.append(buffer.pop(next(picks)))
        for pick in picks:
            order.append(buffer.pop(pick))
        return np.asarray(order, dtype=np.int64)


class DistributedSampler(Sampler):
    """Random disjoint shard of each epoch for one rank of a distributed job.

    Every epoch the full permutation is re-drawn and split into
    ``num_replicas`` contiguous slices; rank ``r`` trains on slice ``r``.
    This reproduces the behaviour the paper analyses: the shard assigned to a
    server changes every epoch, so a server's locally-cached items frequently
    belong to another server's shard (Sec. 3.3.1).
    """

    def __init__(self, num_items: int, num_replicas: int, rank: int, seed: int = 0) -> None:
        super().__init__(num_items, seed)
        if num_replicas <= 0:
            raise ConfigurationError("need at least one replica")
        if not 0 <= rank < num_replicas:
            raise ConfigurationError(f"rank {rank} outside [0, {num_replicas})")
        self._num_replicas = num_replicas
        self._rank = rank

    @property
    def num_replicas(self) -> int:
        """Total number of ranks in the distributed job."""
        return self._num_replicas

    @property
    def rank(self) -> int:
        """This sampler's rank."""
        return self._rank

    def _shard_bounds(self) -> tuple:
        bounds = np.linspace(0, self._num_items, self._num_replicas + 1).astype(int)
        return int(bounds[self._rank]), int(bounds[self._rank + 1])

    @property
    def epoch_length(self) -> int:
        """Items in this rank's shard (constant across epochs)."""
        lo, hi = self._shard_bounds()
        return hi - lo

    def _global_permutation(self, epoch_index: int) -> np.ndarray:
        # All ranks share the seed, so they agree on the epoch's permutation
        # and therefore on the (disjoint) shard boundaries.
        rng = np.random.default_rng((self._seed, epoch_index, 0xD157))
        return rng.permutation(self._num_items).astype(np.int64, copy=False)

    def epoch(self, epoch_index: int) -> np.ndarray:
        perm = self._global_permutation(epoch_index)
        lo, hi = self._shard_bounds()
        return perm[lo:hi]


class CachingSampler(Sampler):
    """Memoising wrapper sharing one sampler's epoch orders across loaders.

    Parameter sweeps re-simulate the same (dataset, seed) pair under many
    configurations; every loader would otherwise redraw the identical
    per-epoch permutation.  The wrapper delegates to the inner sampler and
    keeps each epoch's order, read-only, while ``memo``'s budget has room:
    every caller gets the same array, so one that wrote into it would
    change the others' streams, and fails instead.  An order past the
    budget is drawn afresh on every call.
    """

    def __init__(self, inner: Sampler, memo: "SamplerMemo") -> None:
        super().__init__(inner.num_items, seed=inner._seed)
        self._inner = inner
        self._memo = memo
        self._orders: Dict[int, np.ndarray] = {}

    @property
    def inner(self) -> Sampler:
        """The sampler whose epochs are being memoised."""
        return self._inner

    @property
    def epoch_length(self) -> int:
        return self._inner.epoch_length

    def epoch(self, epoch_index: int) -> np.ndarray:
        order = self._orders.get(epoch_index)
        if order is None:
            order = self._memo.keep(self._orders, epoch_index,
                                    self._inner.epoch(epoch_index))
        return order


#: Byte budget of one :class:`SamplerMemo`: the epoch orders its samplers
#: keep never exceed it.
SAMPLER_MEMO_BUDGET_BYTES = 128 * 2**20


class SamplerMemo:
    """Memoised random samplers by ``(dataset size, seed)``, whose kept
    epoch orders share one byte budget.

    A :class:`~repro.sim.sweep.SweepRunner` hands every point its memo's
    samplers, so points that walk one dataset with one seed draw each
    permutation once.  The orders are kept insert-while-space within
    :data:`SAMPLER_MEMO_BUDGET_BYTES` (read at construction) and never
    evicted: a sweep revisits the same permutations cyclically, point
    after point, which is the access pattern MinIO is built for
    (Sec. 4.1) and under which an LRU memo would thrash once the orders
    outgrow the budget.  An order past the budget is drawn on every call.
    Thread-safe, since dist agents share a runner across connections.
    """

    def __init__(self) -> None:
        self._budget = SAMPLER_MEMO_BUDGET_BYTES
        self._samplers: Dict[Tuple[int, Any], CachingSampler] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._samplers)

    def sampler(self, num_items: int, seed: Any) -> CachingSampler:
        """The memoised :class:`RandomSampler` of ``num_items`` items and
        ``seed`` (any seed ``numpy.random.default_rng`` takes, such as an
        int or a tuple of ints)."""
        key = (num_items, seed)
        with self._lock:
            sampler = self._samplers.get(key)
            if sampler is None:
                sampler = CachingSampler(RandomSampler(num_items, seed=seed),
                                         self)
                self._samplers[key] = sampler
        return sampler

    def keep(self, orders: Dict[int, np.ndarray], epoch_index: int,
             order: np.ndarray) -> np.ndarray:
        """The order to hand out for one epoch of a :class:`CachingSampler`
        whose kept orders are ``orders``: the one already kept (another
        thread may have drawn the same epoch meanwhile), else ``order``,
        kept read-only and charged to the budget if it fits."""
        with self._lock:
            kept = orders.get(epoch_index)
            if kept is not None:
                return kept
            if self._bytes + order.nbytes <= self._budget:
                order.setflags(write=False)
                orders[epoch_index] = order
                self._bytes += order.nbytes
        return order


class BatchSampler:
    """Group a sampler's per-epoch order into minibatches.

    The last, possibly-partial batch is dropped when ``drop_last`` is true,
    matching the common training configuration used in the paper's
    experiments (constant batch size per iteration).
    """

    def __init__(self, sampler: Sampler, batch_size: int, drop_last: bool = False) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch size must be positive")
        self._sampler = sampler
        self._batch_size = batch_size
        self._drop_last = drop_last

    @property
    def sampler(self) -> Sampler:
        """Underlying item-order sampler."""
        return self._sampler

    @property
    def batch_size(self) -> int:
        """Number of items per minibatch."""
        return self._batch_size

    def batches_per_epoch(self) -> int:
        """Number of minibatches produced per epoch.

        Derived from the sampler's :attr:`~Sampler.epoch_length` (not
        ``num_items``): a sharded sampler yields only its slice, and counting
        from the dataset size used to disagree with :meth:`epoch` about
        whether the final short batch exists — a batch must never be both
        counted and dropped depending on which path iterates.
        """
        full, rem = divmod(self._sampler.epoch_length, self._batch_size)
        if rem and not self._drop_last:
            return full + 1
        return full

    def epoch(self, epoch_index: int) -> List[np.ndarray]:
        """Minibatches (arrays of item ids) for one epoch."""
        order = self._sampler.epoch(epoch_index)
        batches: List[np.ndarray] = []
        for start in range(0, len(order), self._batch_size):
            batch = order[start:start + self._batch_size]
            if len(batch) < self._batch_size and self._drop_last:
                break
            batches.append(batch)
        return batches


def verify_epoch_invariant(order: Sequence[int], num_items: int) -> bool:
    """Check that an epoch order touches every item exactly once.

    The sampler tests hold every sampler, sharded and batched ones
    included, to this: CoorDL must not change the sampling semantics
    (Sec. 4, "The data sampling and randomization is unmodified").
    """
    arr = np.asarray(order, dtype=np.int64)
    if arr.size != num_items:
        return False
    return bool(np.array_equal(np.sort(arr), np.arange(num_items)))
