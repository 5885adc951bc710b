"""Byte pins of every single-server training kind.

The golden grids under ``tests/golden/`` pin only ``coordl`` and
``dali-shuffle``.  This module pins the rest of the loader build path: one
small point per ``(kind, gpu_prep)`` pair that the kind accepts, for two
models, each held as the BLAKE2 digest of its full-timeline
:meth:`~repro.sim.sweep.SweepRecord.snapshot`.  ResNet18 runs on
Config-SSD-V100, where the best-of-prep choice (``gpu_prep=None``) picks
GPU prep, and ResNet50 on Config-HDD-1080Ti, where it picks CPU prep, so
both outcomes of the choice and the loader names they give are pinned.

The points are not a :data:`~repro.sim.harness.GOLDEN_GRIDS` entry:
every entry there is also replayed by the distributed-fabric gates and
the benchmark's dist workload.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import pytest

from repro.cluster.configs import config_hdd_1080ti, config_ssd_v100
from repro.compute.model_zoo import RESNET18, RESNET50
from repro.sim.harness import GOLDEN_SCALE, GOLDEN_SEED, snapshot_to_json
from repro.sim.sweep import SweepPoint, SweepRunner

#: Model -> server factory of its points.
SERVERS = {RESNET18: config_ssd_v100, RESNET50: config_hdd_1080ti}

#: ``(kind, gpu_prep)`` pairs: the Pillow kinds prep on the CPU only.
KIND_PREPS = (
    ("pytorch", None), ("pycoordl", None),
    ("dali-seq", None), ("dali-seq", False), ("dali-seq", True),
    ("dali-shuffle", None), ("dali-shuffle", False), ("dali-shuffle", True),
    ("coordl", None), ("coordl", False), ("coordl", True),
)

#: BLAKE2b-128 of each point's ``snapshot(include_timeline=True)`` as
#: canonical JSON, keyed by ``(model, kind, gpu_prep)``.
EXPECTED = {
    ("resnet18", "pytorch", None): "f12c0be576eb20b36bf68b73bde28453",
    ("resnet18", "pycoordl", None): "fc9370079772a059a24cc5b84167a7be",
    ("resnet18", "dali-seq", None): "b6faf15535862d131ab53f6d845524b2",
    ("resnet18", "dali-seq", False): "7addb5941c7efd7d2d4d651c456b331c",
    ("resnet18", "dali-seq", True): "6f41c2a37244bae296bdc8eeb51f7871",
    ("resnet18", "dali-shuffle", None): "fd318a8d633eb423048eafd35e2b21f9",
    ("resnet18", "dali-shuffle", False): "0b5210eff5afb8e14d320f5574c3aab0",
    ("resnet18", "dali-shuffle", True): "08fdf276a8b54afa11c1a4ddd4585e72",
    ("resnet18", "coordl", None): "b1323feab8a84e278161b5986d50fb41",
    ("resnet18", "coordl", False): "170ed1e54834fc00978192d0f35fce4b",
    ("resnet18", "coordl", True): "1877dea9f2bfb3d887ffc7b63367b870",
    ("resnet50", "pytorch", None): "df5204c7387fd97118a2b7f2527b9c2d",
    ("resnet50", "pycoordl", None): "6f60d86a87f1d80202074ae9a494bff5",
    ("resnet50", "dali-seq", None): "26d34c1976776da874c5ecc67f71f54a",
    ("resnet50", "dali-seq", False): "6513cec9dd8e96ad6a9d4e75f352fb8d",
    ("resnet50", "dali-seq", True): "834583a096797ae43f8fd61045bfef50",
    ("resnet50", "dali-shuffle", None): "2cec3fb9626a0138cf811ef5eb5b46e9",
    ("resnet50", "dali-shuffle", False): "cdf14130a8ca18c96d77214765451f50",
    ("resnet50", "dali-shuffle", True): "1b87485d4d2ae90c969190037604210c",
    ("resnet50", "coordl", None): "6f615dddb36243f8d0902d8f99840f29",
    ("resnet50", "coordl", False): "a961a0b79185b7b430666692270f0823",
    ("resnet50", "coordl", True): "3afe1686d338d53a4aba61af016172e2",
}

Key = Tuple[str, str, object]


def _digest(record) -> str:
    text = snapshot_to_json(record.snapshot(include_timeline=True))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def digests() -> Dict[Key, str]:
    out: Dict[Key, str] = {}
    for model, server_factory in SERVERS.items():
        runner = SweepRunner(server_factory, scale=GOLDEN_SCALE,
                             seed=GOLDEN_SEED)
        points = [SweepPoint(model=model, loader=kind, gpu_prep=gpu_prep,
                             dataset="openimages", cache_fraction=0.5,
                             num_epochs=3)
                  for kind, gpu_prep in KIND_PREPS]
        for point, record in zip(points, runner.run(points, workers=0)):
            out[(model.name, point.loader, point.gpu_prep)] = _digest(record)
    return out


@pytest.mark.parametrize("key", sorted(
    ((model.name, kind, gpu_prep) for model in SERVERS
     for kind, gpu_prep in KIND_PREPS), key=repr), ids=repr)
def test_training_point_bytes_are_pinned(digests, key):
    assert digests[key] == EXPECTED[key]
