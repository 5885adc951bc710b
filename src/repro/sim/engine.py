"""Pipelined epoch simulation engine.

DNN training overlaps data fetch, pre-processing and GPU compute (Sec. 2).
The engine models one epoch as a three-stage pipeline with a bounded prefetch
queue between the data stages and the GPU:

* stage F — fetch batch ``b`` (cache + storage times from the loader),
* stage P — pre-process batch ``b`` (worker-pool time from the loader),
* stage G — GPU compute on batch ``b``.

Completion-time recurrence (per batch ``b``)::

    done_F[b] = max(done_F[b-1], done_G[b-depth]) + t_F(b)
    done_P[b] = max(done_P[b-1], done_F[b])       + t_P(b)
    done_G[b] = max(done_G[b-1], done_P[b])       + t_G(b)

The bounded depth is what gives DALI its characteristic behaviour of racing
ahead early in an epoch while the cache is still hitting and then throttling
to storage speed (Fig. 11).

Stall attribution follows DS-Analyzer's differential method: the same
per-batch time arrays are re-run with (a) fetch at DRAM speed to obtain the
prep-limited epoch time and (b) GPU-only time; fetch stall and prep stall are
the successive differences.

Two fast paths keep multi-epoch, multi-configuration sweeps out of the
Python interpreter:

* :func:`pipeline_makespan` evaluates the recurrence above with a vectorised
  numpy kernel on the ``(num_stages, num_batches)`` stage-time matrix
  (:func:`pipeline_makespan_reference` keeps the straightforward per-batch
  loop as the executable specification);
* :meth:`PipelineSimulator.collect_batch_times` asks the loader for whole
  per-batch time *arrays* (:meth:`repro.pipeline.base.DataLoader.batch_time_arrays`)
  whenever the cache can apply the epoch in bulk — a MinIO cache in any
  state, and a page cache in any state, cold, warm or thrashing, through
  the segmented-LRU bulk kernel (:mod:`repro.cache.warm_kernel`) — and
  only falls back to the per-batch ``fetch_batch`` loop for custom fetch
  policies or repeated items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.compute.gpu import GPUSpec
from repro.compute.model_zoo import ModelSpec
from repro.exceptions import ConfigurationError, SimulationError
from repro.pipeline.base import DataLoader
from repro.pipeline.stats import EpochStats

#: Below this many (stage, batch) cells the scalar recurrence outruns the
#: numpy kernel, whose cost is dominated by per-chunk call overhead when the
#: queue depth (= chunk length) is small.
_SCALAR_KERNEL_CUTOFF = 8192


@dataclass
class BatchTimes:
    """Per-batch stage durations and sizes collected while simulating an epoch."""

    fetch_s: Sequence[float]
    cached_fetch_s: Sequence[float]
    prep_s: Sequence[float]
    gpu_s: Sequence[float]
    batch_sizes: Sequence[int]

    def num_batches(self) -> int:
        """Number of batches in the epoch."""
        return len(self.gpu_s)

    def num_samples(self) -> int:
        """Samples in the epoch."""
        return int(np.sum(self.batch_sizes))


def pipeline_makespan_reference(stage_times: Sequence[Sequence[float]],
                                queue_depth: int = 4) -> float:
    """Pure-Python reference for :func:`pipeline_makespan`.

    Evaluates the completion-time recurrence one ``(stage, batch)`` cell at a
    time, exactly as written in the module docstring.  Kept as the executable
    specification the vectorised kernel is property-tested against, and used
    directly for small epochs where it is faster than the numpy kernel.
    """
    stages = [s.tolist() for s in _validated_stage_times(stage_times, queue_depth)]
    num_stages = len(stages)
    num_batches = len(stages[0])
    if num_batches == 0:
        return 0.0
    done = [[0.0] * num_batches for _ in range(num_stages)]
    last = done[num_stages - 1]
    for b in range(num_batches):
        for s in range(num_stages):
            prev_same_stage = done[s][b - 1] if b > 0 else 0.0
            prev_stage = done[s - 1][b] if s > 0 else 0.0
            backpressure = 0.0
            if s == 0 and b >= queue_depth:
                backpressure = last[b - queue_depth]
            start = max(prev_same_stage, prev_stage, backpressure)
            done[s][b] = start + stages[s][b]
    return last[num_batches - 1]


def pipeline_makespan(stage_times: Sequence[Sequence[float]],
                      queue_depth: int = 4) -> float:
    """Makespan of an N-stage pipeline with a bounded prefetch queue.

    The kernel is chosen by problem size: the numpy kernel processes
    ``queue_depth``-long batch chunks with O(1) vector operations each, so
    it wins when the stage-time matrix is large or the queue is deep,
    while tiny epochs are cheaper in the per-batch reference loop.

    Args:
        stage_times: One sequence of per-batch durations per stage, ordered
            from the first (producer) stage to the last (consumer) stage;
            accepts a ``(num_stages, num_batches)`` array directly.
        queue_depth: How many batches the first stage may run ahead of the
            last stage (the prefetch queue size of DALI / PyTorch DL).
            Batch ``b`` of the first stage cannot *start* before batch
            ``b - queue_depth`` has left the last stage — the backpressure
            term ``done_G[b - depth]`` in the recurrence — so at most
            ``queue_depth`` batches are ever fetched-but-unconsumed.  Depth 1
            serialises fetch against consumption; a depth of ``num_batches``
            or more never throttles the producer (unbounded prefetch).

    Returns:
        Completion time of the last batch in the last stage.
    """
    stages = _validated_stage_times(stage_times, queue_depth)
    num_stages = len(stages)
    num_batches = len(stages[0])
    if num_batches == 0:
        return 0.0
    if (num_stages * num_batches < _SCALAR_KERNEL_CUTOFF
            and queue_depth < num_batches):
        return pipeline_makespan_reference(stages, queue_depth)
    return _makespan_numpy(np.asarray(stages, dtype=np.float64), queue_depth)


def _validated_stage_times(stage_times, queue_depth: int) -> list:
    """Shared validation: positive depth, ≥1 stage, rectangular matrix."""
    if queue_depth < 1:
        raise ConfigurationError("queue depth must be at least 1")
    stages = [np.asarray(s, dtype=np.float64) for s in stage_times]
    if not stages:
        raise ConfigurationError("need at least one stage")
    num_batches = len(stages[0])
    if any(len(s) != num_batches for s in stages):
        raise SimulationError("all stages must have the same number of batches")
    return stages


def _makespan_numpy(times: np.ndarray, queue_depth: int) -> float:
    """Vectorised bounded-queue makespan kernel.

    Processes batches in chunks of ``queue_depth``: the backpressure term for
    every batch of a chunk refers to last-stage completions in *earlier*
    chunks only, so within a chunk each stage's recurrence
    ``d[i] = max(d[i-1], a[i]) + t[i]`` collapses to the closed form
    ``d[i] = C[i] + max(p, running_max(a - C_excl)[i])`` (``C`` the inclusive
    chunk-local cumsum of ``t``, ``p`` the stage's completion at the chunk
    boundary) — one ``cumsum`` plus one ``maximum.accumulate`` per stage per
    chunk, with no per-batch Python work.
    """
    num_stages, num_batches = times.shape
    done_last = np.empty(num_batches, dtype=np.float64)
    boundary = np.zeros(num_stages, dtype=np.float64)  # done[s] at chunk edge
    for start in range(0, num_batches, queue_depth):
        stop = min(start + queue_depth, num_batches)
        stage_t = times[0, start:stop]
        cum = np.cumsum(stage_t)
        if start == 0:
            ahead = np.zeros(stop - start, dtype=np.float64)
        else:
            ahead = done_last[start - queue_depth:stop - queue_depth]
        running = np.maximum.accumulate(ahead - (cum - stage_t))
        done_stage = cum + np.maximum(running, boundary[0])
        boundary[0] = done_stage[-1]
        for s in range(1, num_stages):
            stage_t = times[s, start:stop]
            cum = np.cumsum(stage_t)
            running = np.maximum.accumulate(done_stage - (cum - stage_t))
            done_stage = cum + np.maximum(running, boundary[s])
            boundary[s] = done_stage[-1]
        done_last[start:stop] = done_stage
    return float(done_last[-1])


class PipelineSimulator:
    """Simulates epochs of one training job driven by a data loader.

    Args:
        model: The DNN being trained (supplies the GPU ingestion rate).
        gpu: GPU type of the server.
        queue_depth: Prefetch queue size between the data pipeline and GPU.
    """

    def __init__(self, model: ModelSpec, gpu: GPUSpec,
                 queue_depth: int = 4) -> None:
        self._model = model
        self._gpu = gpu
        self._queue_depth = queue_depth

    @property
    def model(self) -> ModelSpec:
        """The DNN being trained."""
        return self._model

    @property
    def gpu(self) -> GPUSpec:
        """GPU type of the server."""
        return self._gpu

    def gpu_batch_time(self, loader: DataLoader, batch_size: int) -> float:
        """GPU compute seconds for one batch of the given size."""
        rate = self._model.aggregate_gpu_rate(
            self._gpu, loader.num_gpus, gpu_prep_active=loader.uses_gpu_prep)
        return batch_size / rate

    def collect_batch_times(self, loader: DataLoader, epoch_index: int) -> BatchTimes:
        """Run the fetch path for one epoch and collect per-batch durations.

        Fetching mutates the loader's cache, so the cache state after this
        call reflects having trained the epoch (warm cache for the next one).
        Uses the loader's vectorised epoch arrays when the loader offers
        them (same mutations, no per-item Python loop) and the per-batch
        ``fetch_batch`` walk, the executable specification, otherwise.
        """
        arrays = loader.batch_time_arrays(epoch_index)
        if arrays is not None:
            fetch_s, cached_fetch_s, prep_s, batch_sizes = arrays
            rate = self._model.aggregate_gpu_rate(
                self._gpu, loader.num_gpus,
                gpu_prep_active=loader.uses_gpu_prep)
            gpu_s = batch_sizes / rate
            return BatchTimes(fetch_s, cached_fetch_s, prep_s, gpu_s, batch_sizes)
        fetch_s: List[float] = []
        cached_fetch_s: List[float] = []
        prep_s: List[float] = []
        gpu_s: List[float] = []
        batch_sizes: List[int] = []
        clock = 0.0
        for batch in loader.batches(epoch_index):
            duration = loader.fetch_batch(batch, at_time=clock)
            fetch_s.append(duration)
            cached_fetch_s.append(loader.cached_fetch_time(batch))
            prep_s.append(loader.prep_batch_time(batch))
            gpu_s.append(self.gpu_batch_time(loader, len(batch)))
            batch_sizes.append(len(batch))
            clock += duration
        return BatchTimes(fetch_s, cached_fetch_s, prep_s, gpu_s, batch_sizes)

    def run_epoch(self, loader: DataLoader, epoch_index: int) -> EpochStats:
        """Simulate one epoch and return its timing/IO breakdown."""
        loader.reset_io()
        hits_before = loader.cache.stats.hits
        misses_before = loader.cache.stats.misses
        times = self.collect_batch_times(loader, epoch_index)

        epoch_time = pipeline_makespan(
            [times.fetch_s, times.prep_s, times.gpu_s], self._queue_depth)
        prep_limited = pipeline_makespan(
            [times.cached_fetch_s, times.prep_s, times.gpu_s], self._queue_depth)
        gpu_time = float(np.sum(times.gpu_s))

        io = loader.io.copy()

        return EpochStats(
            epoch_time_s=epoch_time,
            gpu_time_s=gpu_time,
            prep_limited_time_s=min(prep_limited, epoch_time),
            samples=times.num_samples(),
            io=io,
            cache_hits=loader.cache.stats.hits - hits_before,
            cache_misses=loader.cache.stats.misses - misses_before,
        )

    def run_epochs(self, loader: DataLoader, num_epochs: int) -> List[EpochStats]:
        """Simulate epochs ``0 .. num_epochs-1`` (cache state carries over)."""
        if num_epochs <= 0:
            raise ConfigurationError("need at least one epoch")
        return [self.run_epoch(loader, e) for e in range(num_epochs)]
