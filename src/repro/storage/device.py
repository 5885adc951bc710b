"""Storage device models.

The paper's fetch-stall analysis is driven by two numbers per device
(Fig. 1, Table 2): random-read bandwidth and a fixed per-request overhead
(seek/latency).  Every loader reads one small file per sample, so no read
reaches a device's large-transfer sequential bandwidth, and none is
modelled: DALI-seq's storage-order misses are charged at the random-read
rate too.
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
        request_overhead_s: Fixed per-read overhead (seek + submission).
        capacity_bytes: Usable capacity of the device.
    """

    name: str
    random_read_bw: float
    request_overhead_s: float = 0.0
    capacity_bytes: float = units.TiB(1.8)

    def __post_init__(self) -> None:
        if self.random_read_bw <= 0:
            raise ConfigurationError("read bandwidth must be positive")
        if self.request_overhead_s < 0:
            raise ConfigurationError("request overhead cannot be negative")

    def read_time(self, nbytes: float) -> float:
        """Seconds to read ``nbytes`` in one request."""
        if nbytes < 0:
            raise ConfigurationError("cannot read a negative number of bytes")
        return self.request_overhead_s + nbytes / self.random_read_bw

    def read_times_array(self, sizes: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`read_time` over an array of request sizes."""
        sizes = np.asarray(sizes, dtype=np.float64)
        if sizes.size and float(sizes.min()) < 0:
            raise ConfigurationError("cannot read a negative number of bytes")
        return self.request_overhead_s + sizes / self.random_read_bw

    def effective_rate(self, nbytes: float) -> float:
        """Observed bytes/second for a request of the given size."""
        return units.safe_div(nbytes, self.read_time(nbytes))


# ---------------------------------------------------------------------------
# Device presets calibrated to the paper (Fig. 1 and Table 2).
# ---------------------------------------------------------------------------

def sata_ssd(capacity_bytes: float = units.TiB(1.8)) -> StorageDevice:
    """SATA SSD of Config-SSD-V100: 530 MB/s random reads (Table 2)."""
    return StorageDevice(
        name="sata-ssd",
        random_read_bw=units.MBps(530),
        request_overhead_s=20e-6,
        capacity_bytes=capacity_bytes,
    )


def hdd(capacity_bytes: float = units.TiB(1.8)) -> StorageDevice:
    """Magnetic disk of Config-HDD-1080Ti: 15–50 MB/s random reads (Table 2).

    We use the paper's Fig. 1 value of 15 MB/s for small random reads.
    """
    return StorageDevice(
        name="hdd",
        random_read_bw=units.MBps(15),
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
        request_overhead_s=0.0,
        capacity_bytes=capacity_bytes,
    )
