"""Storage device models.

The paper's fetch-stall analysis is driven by three numbers per device
(Fig. 1, Table 2): random-read bandwidth, sequential-read bandwidth, and a
fixed per-request overhead (seek/latency).  HDDs have a huge gap between
random and sequential reads (15 vs ~150 MB/s); SATA SSDs much less (530 vs
~550 MB/s); DRAM effectively none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class StorageDevice:
    """Bandwidth/latency model of one storage tier.

    Attributes:
        name: Human-readable device name ("sata-ssd", "hdd", "dram").
        random_read_bw: Bytes/second for small random reads (the rate that
            matters for per-file image datasets).
        sequential_read_bw: Bytes/second for large sequential reads
            (TFRecord-style chunks); the per-sample loaders, DALI-seq
            included, never reach it.
        request_overhead_s: Fixed per-read overhead (seek + submission).
        capacity_bytes: Usable capacity of the device.
    """

    name: str
    random_read_bw: float
    sequential_read_bw: float
    request_overhead_s: float = 0.0
    capacity_bytes: float = units.TiB(1.8)

    def __post_init__(self) -> None:
        if self.random_read_bw <= 0 or self.sequential_read_bw <= 0:
            raise ConfigurationError("read bandwidths must be positive")
        if self.request_overhead_s < 0:
            raise ConfigurationError("request overhead cannot be negative")

    def read_time(self, nbytes: float, sequential: bool = False) -> float:
        """Seconds to read ``nbytes`` in one request."""
        if nbytes < 0:
            raise ConfigurationError("cannot read a negative number of bytes")
        bw = self.sequential_read_bw if sequential else self.random_read_bw
        return self.request_overhead_s + nbytes / bw

    def read_times_array(self, sizes: "np.ndarray",
                         sequential: bool = False) -> "np.ndarray":
        """Vectorised :meth:`read_time` over an array of request sizes."""
        sizes = np.asarray(sizes, dtype=np.float64)
        if sizes.size and float(sizes.min()) < 0:
            raise ConfigurationError("cannot read a negative number of bytes")
        bw = self.sequential_read_bw if sequential else self.random_read_bw
        return self.request_overhead_s + sizes / bw

    def effective_rate(self, nbytes: float, sequential: bool = False) -> float:
        """Observed bytes/second for a request of the given size."""
        t = self.read_time(nbytes, sequential=sequential)
        return units.safe_div(nbytes, t)


# ---------------------------------------------------------------------------
# Device presets calibrated to the paper (Fig. 1 and Table 2).
# ---------------------------------------------------------------------------

def sata_ssd(capacity_bytes: float = units.TiB(1.8)) -> StorageDevice:
    """SATA SSD of Config-SSD-V100: 530 MB/s random reads (Table 2)."""
    return StorageDevice(
        name="sata-ssd",
        random_read_bw=units.MBps(530),
        sequential_read_bw=units.MBps(550),
        request_overhead_s=20e-6,
        capacity_bytes=capacity_bytes,
    )


def hdd(capacity_bytes: float = units.TiB(1.8)) -> StorageDevice:
    """Magnetic disk of Config-HDD-1080Ti: 15–50 MB/s random reads (Table 2).

    We use the paper's Fig. 1 value of 15 MB/s for small random reads and a
    typical 150 MB/s for large sequential transfers.
    """
    return StorageDevice(
        name="hdd",
        random_read_bw=units.MBps(15),
        sequential_read_bw=units.MBps(150),
        request_overhead_s=2e-3,
        capacity_bytes=capacity_bytes,
    )


def dram(capacity_bytes: float = units.GiB(500)) -> StorageDevice:
    """DRAM tier used for cache hits; ~23 GB/s effective copy bandwidth.

    Fig. 1 quotes the cache path at tens of GB/s ("23 GB/s"); the exact value
    barely matters because DRAM is never the bottleneck.
    """
    return StorageDevice(
        name="dram",
        random_read_bw=units.GBps(23),
        sequential_read_bw=units.GBps(23),
        request_overhead_s=0.0,
        capacity_bytes=capacity_bytes,
    )
