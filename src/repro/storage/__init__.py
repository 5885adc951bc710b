"""Storage substrate: device models and I/O accounting."""

from repro.storage.device import StorageDevice, dram, hdd, sata_ssd
from repro.storage.iostats import IOStats

__all__ = ["StorageDevice", "IOStats", "sata_ssd", "hdd", "dram"]
