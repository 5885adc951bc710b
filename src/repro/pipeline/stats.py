"""Epoch-level statistics produced by the simulation drivers.

The central quantity in the paper is the split of each epoch into GPU compute
time, *prep stall* time and *fetch stall* time (Sec. 2).  Stall attribution
follows DS-Analyzer's differential methodology (Sec. 3.2): compare the actual
epoch against the same epoch with all data served from DRAM (isolates fetch
stalls) and against pure GPU ingestion (isolates prep stalls).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.storage.iostats import IOStats
from repro.units import safe_div


@dataclass
class EpochStats:
    """Timing and I/O breakdown of one training epoch for one job/server.

    Attributes:
        epoch_time_s: Wall-clock duration of the epoch.
        gpu_time_s: Time the GPUs would need with a perfect data pipeline
            (DS-Analyzer phase 1).
        prep_limited_time_s: Epoch duration when every item is served from
            DRAM (DS-Analyzer phase 2); the excess over ``gpu_time_s`` is the
            prep stall.  The engine clamps this to the actual epoch duration
            (``min(prep_limited, epoch_time_s)`` in
            :meth:`repro.sim.engine.PipelineSimulator.run_epoch`): pipelining
            noise can make the all-DRAM re-run marginally *slower* than the
            real epoch, and an unclamped value would turn that noise into a
            negative fetch stall.  Invariant: ``gpu_time_s <=
            prep_limited_time_s <= epoch_time_s`` up to float round-off.
        samples: Samples processed this epoch.
        io: Byte/request accounting for the epoch.
        cache_hits / cache_misses: Item-level cache outcome counts.
    """

    epoch_time_s: float
    gpu_time_s: float
    prep_limited_time_s: float
    samples: int
    io: IOStats = field(default_factory=IOStats)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def prep_stall_s(self) -> float:
        """Unmasked time spent waiting on pre-processing."""
        return max(0.0, self.prep_limited_time_s - self.gpu_time_s)

    @property
    def fetch_stall_s(self) -> float:
        """Unmasked time spent waiting on I/O."""
        return max(0.0, self.epoch_time_s - self.prep_limited_time_s)

    @property
    def data_stall_s(self) -> float:
        """Total unmasked data-stall time (fetch + prep)."""
        return self.prep_stall_s + self.fetch_stall_s

    @property
    def prep_stall_fraction(self) -> float:
        """Prep stall as a fraction of the epoch."""
        return safe_div(self.prep_stall_s, self.epoch_time_s)

    @property
    def fetch_stall_fraction(self) -> float:
        """Fetch stall as a fraction of the epoch."""
        return safe_div(self.fetch_stall_s, self.epoch_time_s)

    @property
    def data_stall_fraction(self) -> float:
        """Total data stall as a fraction of the epoch."""
        return safe_div(self.data_stall_s, self.epoch_time_s)

    @property
    def throughput(self) -> float:
        """Training throughput in samples/second."""
        return safe_div(self.samples, self.epoch_time_s)

    @property
    def cache_hit_ratio(self) -> float:
        """Item-level cache hit ratio for the epoch."""
        total = self.cache_hits + self.cache_misses
        return safe_div(self.cache_hits, total)

    @property
    def cache_miss_ratio(self) -> float:
        """Item-level cache miss ratio for the epoch."""
        total = self.cache_hits + self.cache_misses
        return safe_div(self.cache_misses, total)


@dataclass
class TrainingRunStats:
    """Statistics over a multi-epoch run (warm-up epoch reported separately).

    The paper's methodology (Sec. 3.1) runs three epochs and reports the
    average ignoring the first (cold-cache warm-up); :meth:`steady_state`
    implements that convention.
    """

    epochs: List[EpochStats] = field(default_factory=list)

    def add(self, stats: EpochStats) -> None:
        """Append one epoch's stats."""
        self.epochs.append(stats)

    @property
    def num_epochs(self) -> int:
        """Number of epochs recorded."""
        return len(self.epochs)

    def steady_state(self) -> List[EpochStats]:
        """Epochs after the warm-up epoch (every epoch if there is only one)."""
        if len(self.epochs) <= 1:
            return list(self.epochs)
        return self.epochs[1:]

    def mean_epoch_time(self) -> float:
        """Average epoch time over the steady-state epochs."""
        steady = self.steady_state()
        if not steady:
            return 0.0
        return sum(e.epoch_time_s for e in steady) / len(steady)

    def mean_throughput(self) -> float:
        """Average throughput (samples/s) over the steady-state epochs."""
        steady = self.steady_state()
        if not steady:
            return 0.0
        return sum(e.throughput for e in steady) / len(steady)

    def steady_epoch(self) -> EpochStats:
        """A representative steady-state epoch (the last one recorded)."""
        steady = self.steady_state()
        return steady[-1] if steady else self.epochs[-1]

    def total_disk_bytes(self) -> float:
        """Disk bytes summed over every recorded epoch."""
        return sum(e.io.disk_bytes for e in self.epochs)
