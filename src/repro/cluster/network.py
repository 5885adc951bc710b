"""Cluster network model.

Partitioned caching (Sec. 4.2) relies on one observation: the cross-node
network of ML cloud servers (10–40 Gbps Ethernet over the commodity TCP stack)
is several times faster than the random-read bandwidth of a SATA SSD and two
orders of magnitude faster than an HDD.  The model here is a simple
bandwidth + per-request latency link, which is all the partitioned-cache
transfer path needs, plus helpers for the utilisation numbers reported in
Sec. 5.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import units
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class NetworkLink:
    """Point-to-point TCP path between two servers.

    Attributes:
        bandwidth: Achievable application-level bytes/second.
        rtt_s: Round-trip time of one request (TCP over the datacenter
            fabric; sub-millisecond).
        protocol_efficiency: Fraction of the raw link bandwidth that TCP +
            serialisation actually delivers.
    """

    bandwidth: float = units.Gbps(40)
    rtt_s: float = 200e-6
    protocol_efficiency: float = 0.90

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if not 0 < self.protocol_efficiency <= 1:
            raise ConfigurationError("protocol efficiency must be in (0, 1]")
        if self.rtt_s < 0:
            raise ConfigurationError("RTT cannot be negative")

    @property
    def effective_bandwidth(self) -> float:
        """Application-visible bytes/second after protocol overheads."""
        return self.bandwidth * self.protocol_efficiency

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to fetch ``nbytes`` from a remote cache in one request."""
        if nbytes < 0:
            raise ConfigurationError("cannot transfer a negative number of bytes")
        return self.rtt_s + nbytes / self.effective_bandwidth

    def transfer_times_array(self, sizes: "np.ndarray") -> "np.ndarray":
        """Per-request transfer times for many remote fetches (vectorised).

        Element-wise identical to :meth:`transfer_time`; used by the bulk
        epoch path of the partitioned loader.
        """
        return self.rtt_s + np.asarray(sizes, dtype=np.float64) / self.effective_bandwidth

    def utilisation(self, bytes_moved: float, duration_s: float) -> float:
        """Fraction of link bandwidth used over an interval (Sec. 5.5)."""
        if duration_s <= 0:
            return 0.0
        return (bytes_moved / duration_s) / self.bandwidth


def forty_gbps_ethernet() -> NetworkLink:
    """The 40 Gbps Ethernet of the paper's server SKUs."""
    return NetworkLink(bandwidth=units.Gbps(40))


def ten_gbps_ethernet() -> NetworkLink:
    """A slower 10 Gbps fabric (the lower end of the paper's 10–40 Gbps range)."""
    return NetworkLink(bandwidth=units.Gbps(10))
