"""Pre-processing transform cost models.

Pre-processing of a raw training sample (Step 2 in Sec. 2) consists of a
decode followed by random augmentations (crop, resize, flip, normalize for
images; resample/clip for audio).  For stall analysis what matters is the CPU
time each stage costs per sample, and whether a stage can be offloaded to the
GPU (DALI offloads JPEG decode to nvJPEG and several augmentations to CUDA
kernels).

Costs are expressed in *core-seconds per byte of raw input* plus a fixed
per-sample overhead, so larger source images (OpenImages vs ImageNet) cost
proportionally more, matching the paper's observation that richer datasets
have higher prep stalls (Appendix B.1).

Two implementation flavours are provided because the paper compares them
(Appendix B.2): the Pillow/TorchVision path used by the native PyTorch
DataLoader, and the faster nvJPEG/DALI path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class Transform:
    """One pre-processing stage.

    Attributes:
        name: Stage name ("decode", "random_crop", ...).
        cpu_seconds_per_byte: Core-seconds consumed per raw input byte.
        cpu_seconds_fixed: Fixed core-seconds per sample regardless of size.
        gpu_offloadable: Whether DALI can run this stage on the GPU.
        stochastic: Whether the stage applies a random perturbation.  Only
            stochastic stages force re-execution every epoch; this flag drives
            the correctness argument for why pre-processed data must not be
            reused across epochs (Sec. 4.3).
    """

    name: str
    cpu_seconds_per_byte: float
    cpu_seconds_fixed: float = 0.0
    gpu_offloadable: bool = False
    stochastic: bool = False

    def __post_init__(self) -> None:
        if self.cpu_seconds_per_byte < 0 or self.cpu_seconds_fixed < 0:
            raise ConfigurationError("transform costs cannot be negative")

    def cpu_cost(self, raw_bytes: float) -> float:
        """Core-seconds to run this stage on one sample of the given raw size."""
        return self.cpu_seconds_fixed + self.cpu_seconds_per_byte * raw_bytes


# ---------------------------------------------------------------------------
# Stage presets.
#
# Calibration anchor (Fig. 1): 24 cores sustain ~735 MB/s of raw input through
# the full DALI CPU image pipeline => ~30.6 MB/s per core => ~3.27e-8
# core-seconds per raw byte end-to-end.  Decode dominates (roughly 70 % of the
# cost); the augmentations share the rest.  The Pillow path is ~2.2x slower
# end-to-end (Appendix B.2: DALI-CPU clearly beats PyTorch DL even without the
# GPU).
# ---------------------------------------------------------------------------

_DALI_TOTAL_S_PER_BYTE = 1.0 / (30.6e6)          # 24 cores -> 735 MB/s
_PILLOW_TOTAL_S_PER_BYTE = _DALI_TOTAL_S_PER_BYTE * 2.2


def _split(total_s_per_byte: float, fractions: Sequence[float],
           names: Sequence[str], offloadable: Sequence[bool],
           stochastic: Sequence[bool]) -> Tuple[Transform, ...]:
    stages = []
    for name, frac, off, stoch in zip(names, fractions, offloadable, stochastic):
        stages.append(Transform(
            name=name,
            cpu_seconds_per_byte=total_s_per_byte * frac,
            cpu_seconds_fixed=2e-5,  # dispatch / allocation overhead per sample
            gpu_offloadable=off,
            stochastic=stoch,
        ))
    return tuple(stages)


def dali_image_pipeline() -> Tuple[Transform, ...]:
    """nvJPEG-based image pipeline used by DALI (decode + augment + collate)."""
    return _split(
        _DALI_TOTAL_S_PER_BYTE,
        fractions=(0.70, 0.15, 0.05, 0.07, 0.03),
        names=("decode", "random_crop_resize", "random_flip", "normalize", "collate"),
        offloadable=(True, True, True, True, False),
        stochastic=(False, True, True, False, False),
    )


def pillow_image_pipeline() -> Tuple[Transform, ...]:
    """Pillow/TorchVision image pipeline used by the native PyTorch DataLoader."""
    return _split(
        _PILLOW_TOTAL_S_PER_BYTE,
        fractions=(0.72, 0.14, 0.04, 0.07, 0.03),
        names=("decode", "random_crop_resize", "random_flip", "normalize", "collate"),
        offloadable=(False, False, False, False, False),
        stochastic=(False, True, True, False, False),
    )


def audio_pipeline() -> Tuple[Transform, ...]:
    """Raw-waveform audio pipeline (M5 on FMA): decode + resample + random clip."""
    total = _DALI_TOTAL_S_PER_BYTE * 0.10  # waveform prep is cheap per byte
    return _split(
        total,
        fractions=(0.55, 0.30, 0.15),
        names=("audio_decode", "resample", "random_clip"),
        offloadable=(False, False, False),
        stochastic=(False, False, True),
    )


def detection_pipeline() -> Tuple[Transform, ...]:
    """SSD object-detection pipeline: image decode + box-aware augmentations."""
    total = _DALI_TOTAL_S_PER_BYTE * 1.25
    return _split(
        total,
        fractions=(0.60, 0.22, 0.08, 0.07, 0.03),
        names=("decode", "ssd_random_crop", "random_flip", "normalize", "collate"),
        offloadable=(True, True, True, True, False),
        stochastic=(False, True, True, False, False),
    )


def pipeline_for_task(task: str, library: str = "dali") -> Tuple[Transform, ...]:
    """Pick the stage list for a task/library combination.

    Args:
        task: "image_classification", "object_detection", or
            "audio_classification".
        library: "dali" (nvJPEG) or "pytorch" (Pillow).
    """
    if library not in ("dali", "pytorch"):
        raise ConfigurationError(f"unknown prep library {library!r}")
    if task == "audio_classification":
        return audio_pipeline()
    if task == "object_detection":
        return detection_pipeline()
    if task == "image_classification":
        return dali_image_pipeline() if library == "dali" else pillow_image_pipeline()
    raise ConfigurationError(f"unknown task {task!r}")


def expansion_factor(task: str) -> float:
    """Decoded-to-raw size ratio of pre-processed samples.

    Pre-processed items are 5–7x larger than the raw encoded data (Sec. 4.3);
    this drives the argument for why caching pre-processed tensors is
    infeasible, and sizes the staging-area accounting.
    """
    return {"image_classification": 6.0,
            "object_detection": 6.0,
            "audio_classification": 5.0}.get(task, 6.0)
