"""Hit/miss/admission counters shared by every cache implementation."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters accumulated by a cache across lookups and admissions.

    Bytes are booked once, by the loader's
    :class:`~repro.storage.iostats.IOStats`; a cache counts events only.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    rejected: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit.  Zero when no lookups happened."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_ratio(self) -> float:
        """Fraction of lookups that missed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def record_hit(self) -> None:
        """Account a hit."""
        self.hits += 1

    def record_miss(self) -> None:
        """Account a miss."""
        self.misses += 1
