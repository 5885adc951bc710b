"""Shared fixtures for the test suite.

Tests run on heavily scaled synthetic datasets (a few hundred to a few
thousand items): every behaviour under test — cache policies, stall
attribution, coordination invariants, speed-up directions — is scale-free.
"""

from __future__ import annotations

import pytest

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.datasets.catalog import DatasetSpec
from repro.datasets.dataset import SyntheticDataset
from repro.resilience import clear_installed


@pytest.fixture(autouse=True)
def _no_leaked_fault_plan():
    """Clear any fault plan a test installed, pass or fail, so it cannot
    reach the stores and pools the next test builds."""
    yield
    clear_installed()


@pytest.fixture
def built_pools(monkeypatch):
    """Every :class:`repro.store.PersistentPool` built while the test runs,
    in order; each counts its ``close`` calls in ``closes``."""
    import repro.store.pool as pool_module

    built = []

    class RecordingPool(pool_module.PersistentPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.closes = 0
            built.append(self)

        def close(self, drain: bool = True) -> None:
            self.closes += 1
            super().close(drain)

    monkeypatch.setattr(pool_module, "PersistentPool", RecordingPool)
    return built


@pytest.fixture
def tiny_spec() -> DatasetSpec:
    """A 200-item image dataset with ImageNet-like item sizes."""
    return DatasetSpec(
        name="tiny-imagenet",
        task="image_classification",
        num_items=200,
        mean_item_bytes=120_000.0,
        item_size_cv=0.4,
    )


@pytest.fixture
def tiny_dataset(tiny_spec: DatasetSpec) -> SyntheticDataset:
    """Materialised 200-item dataset (deterministic, seed 0)."""
    return SyntheticDataset(tiny_spec, seed=0)


@pytest.fixture
def small_dataset() -> SyntheticDataset:
    """A 2 000-item dataset used by the scenario-level tests."""
    spec = DatasetSpec(
        name="small-openimages",
        task="image_classification",
        num_items=2_000,
        mean_item_bytes=300_000.0,
        item_size_cv=0.5,
    )
    return SyntheticDataset(spec, seed=1)


@pytest.fixture
def ssd_server():
    """Config-SSD-V100 with its default cache budget."""
    return config_ssd_v100()


@pytest.fixture
def hdd_server():
    """Config-HDD-1080Ti with its default cache budget."""
    return config_hdd_1080ti()


def cache_bytes_for(dataset: SyntheticDataset, fraction: float) -> float:
    """Byte budget holding ``fraction`` of a dataset (test helper)."""
    return dataset.total_bytes * fraction
