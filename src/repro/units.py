"""Byte, bandwidth, and time unit helpers.

The paper quotes sizes in GiB/GB and rates in MB/s; internally everything in
this library is stored in plain bytes, bytes/second, and seconds.  These
helpers keep conversions explicit and readable at call sites, e.g.::

    cache_capacity = GiB(500)
    ssd_rate = MBps(530)
"""

from __future__ import annotations

from typing import Any

import numpy as np

KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000

KIB = 1024
MIB = 1024 ** 2
GIB = 1024 ** 3
TIB = 1024 ** 4


def KiB(n: float) -> float:
    """Convert binary kilobytes to bytes."""
    return n * KIB


def MiB(n: float) -> float:
    """Convert binary megabytes to bytes."""
    return n * MIB


def GiB(n: float) -> float:
    """Convert binary gigabytes to bytes."""
    return n * GIB


def TiB(n: float) -> float:
    """Convert binary terabytes to bytes."""
    return n * TIB


def MBps(n: float) -> float:
    """Convert megabytes-per-second to bytes-per-second."""
    return n * MB


def GBps(n: float) -> float:
    """Convert gigabytes-per-second to bytes-per-second."""
    return n * GB


def Gbps(n: float) -> float:
    """Convert gigabits-per-second to bytes-per-second."""
    return n * GB / 8.0


def hours(n: float) -> float:
    """Convert hours to seconds."""
    return n * 3600.0


def minutes(n: float) -> float:
    """Convert minutes to seconds."""
    return n * 60.0


def to_hours(seconds: float) -> float:
    """Convert seconds to hours (for reporting)."""
    return seconds / 3600.0


def safe_div(numerator: Any, denominator: Any, default: float = 0.0) -> Any:
    """Divide, returning ``default`` when the denominator is zero.

    Rate arithmetic frequently divides by measured quantities that can be zero
    (e.g. "bytes read from disk" when everything was cached); this keeps those
    call sites short and intention-revealing.  A numpy array denominator
    divides elementwise, each zero giving ``default``.
    """
    if isinstance(denominator, np.ndarray):
        return np.divide(numerator, denominator,
                         out=np.full(denominator.shape, default),
                         where=denominator != 0)
    if denominator == 0:
        return default
    return numerator / denominator


def speedup(baseline: float, improved: float) -> float:
    """Return how many times faster ``improved`` is than ``baseline``.

    Both arguments are durations (seconds); a result of 2.0 means the improved
    system finished in half the time.
    """
    return safe_div(baseline, improved, default=float("inf"))
