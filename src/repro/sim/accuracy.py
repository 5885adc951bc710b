"""Accuracy-versus-epoch model for time-to-accuracy experiments (Fig. 10).

CoorDL does not change what the learning algorithm sees — sampling and random
augmentation are unmodified — so the accuracy-vs-*epoch* curve is identical
for the baseline and CoorDL; only the wall-clock time per epoch differs
(Sec. 5.4).  We therefore model accuracy as a deterministic saturating
function of the epoch index, calibrated so ResNet50 on ImageNet-1K reaches
the paper's 75.9 % top-1 target in the usual ~90 epochs, and obtain
time-to-accuracy by combining the curve with the simulated epoch duration of
each data-loading configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class AccuracyCurve:
    """Saturating accuracy-vs-epoch curve: ``acc(e) = a_max (1 - exp(-e/tau))``.

    Attributes:
        max_accuracy: Asymptotic top-1 accuracy of the model/dataset pair.
        tau_epochs: Time constant of the learning curve, in epochs.
        warmup_epochs: Epochs of LR warm-up during which accuracy stays near
            zero (matches the large-minibatch warm-up schedules the paper uses).
    """

    max_accuracy: float = 0.775
    tau_epochs: float = 28.0
    warmup_epochs: float = 3.0

    def __post_init__(self) -> None:
        if not 0 < self.max_accuracy <= 1:
            raise ConfigurationError("max accuracy must be in (0, 1]")
        if self.tau_epochs <= 0:
            raise ConfigurationError("tau must be positive")

    def accuracy_at_epoch(self, epoch: float) -> float:
        """Top-1 accuracy after ``epoch`` epochs of training."""
        effective = max(0.0, epoch - self.warmup_epochs)
        return self.max_accuracy * (1.0 - math.exp(-effective / self.tau_epochs))

    def epochs_to_accuracy(self, target: float) -> float:
        """Epochs needed to reach a target accuracy.

        Raises:
            ConfigurationError: if the target exceeds the asymptotic accuracy.
        """
        if target >= self.max_accuracy:
            raise ConfigurationError(
                f"target {target} is unreachable (max {self.max_accuracy})")
        if target <= 0:
            return 0.0
        return self.warmup_epochs - self.tau_epochs * math.log(1.0 - target / self.max_accuracy)


def resnet50_imagenet_curve() -> AccuracyCurve:
    """Curve calibrated to reach 75.9 % top-1 in roughly 90 epochs."""
    return AccuracyCurve(max_accuracy=0.775, tau_epochs=22.5, warmup_epochs=5.0)


@dataclass
class TimeToAccuracyResult:
    """Wall-clock accuracy trajectory of one data-loading configuration."""

    loader_name: str
    epoch_time_s: float
    target_accuracy: float
    epochs_needed: float
    trajectory: List[Tuple[float, float]]

    @property
    def time_to_accuracy_s(self) -> float:
        """Wall-clock seconds to reach the target accuracy."""
        return self.epochs_needed * self.epoch_time_s


def time_to_accuracy(loader_name: str, epoch_time_s: float,
                     curve: AccuracyCurve,
                     target_accuracy: float) -> TimeToAccuracyResult:
    """Combine an epoch-time measurement with the accuracy curve (the
    trajectory samples every epoch up to the epochs needed).

    Args:
        loader_name: Label for the configuration ("dali", "coordl").
        epoch_time_s: Simulated steady-state epoch duration.
        curve: Accuracy-vs-epoch model (identical across configurations).
        target_accuracy: Accuracy defining "time to accuracy".
    """
    epochs_needed = curve.epochs_to_accuracy(target_accuracy)
    horizon = int(math.ceil(epochs_needed))
    trajectory = [
        (epoch * epoch_time_s, curve.accuracy_at_epoch(epoch))
        for epoch in range(horizon + 1)
    ]
    return TimeToAccuracyResult(
        loader_name=loader_name,
        epoch_time_s=epoch_time_s,
        target_accuracy=target_accuracy,
        epochs_needed=epochs_needed,
        trajectory=trajectory,
    )
