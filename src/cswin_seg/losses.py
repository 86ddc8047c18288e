"""Combined Dice / cross-entropy segmentation objective.

Both terms consume raw logits [H,W,K] and an integer label map [H,W].
Dice is the soft multi-class form (softmax probabilities against one-hot
targets, smoothing term in numerator and denominator, background class
included in the class mean); cross-entropy is averaged over pixels so the
two weights stay comparable across image sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .tensor import DTYPES, Tensor, log_softmax, reshape, softmax, tsum


@dataclass
class LossConfig:
    alpha: float = 0.4  # Dice weight
    beta: float = 0.6  # cross-entropy weight
    dice_smooth: float = 1e-5

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError(f"loss weights must be nonnegative, got {self.alpha}, {self.beta}")
        if self.alpha + self.beta == 0:
            raise ConfigError("at least one loss weight must be positive")
        if self.dice_smooth <= 0:
            raise ConfigError("dice smoothing must be positive")


def one_hot(labels: np.ndarray, num_classes: int, dtype: str = "f32") -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise DataError(f"labels outside [0, {num_classes}): {labels.min()}..{labels.max()}")
    return np.eye(num_classes, dtype=DTYPES[dtype])[labels]


def _check_pair(logits: Tensor, labels: np.ndarray) -> None:
    if logits.ndim != 3:
        raise DimensionError(f"logits must be [H,W,K], got {logits.shape}")
    if labels.shape != logits.shape[:2]:
        raise DimensionError(f"labels {labels.shape} do not match logits {logits.shape}")


def dice_loss(logits: Tensor, labels: np.ndarray, smooth: float = 1e-5) -> Tensor:
    """1 - mean over classes of the smoothed soft-Dice overlap."""
    _check_pair(logits, labels)
    h, w, k = logits.shape
    target = one_hot(labels, k, logits.dtype).reshape(h * w, k)
    probs = reshape(softmax(logits, axis=-1), (h * w, k))
    inter = tsum(probs * Tensor(target), axis=0)  # [K]
    denom = tsum(probs, axis=0) + Tensor(target.sum(axis=0))
    score = (2.0 * inter + smooth) / (denom + smooth)
    return tsum(score) * (-1.0 / k) + 1.0


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean per-pixel negative log-likelihood of the labeled class."""
    _check_pair(logits, labels)
    h, w, k = logits.shape
    target = Tensor(one_hot(labels, k, logits.dtype))
    nll = tsum(log_softmax(logits, axis=-1) * target)
    return nll * (-1.0 / (h * w))


def combined_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> Tensor:
    """alpha * Dice + beta * cross-entropy, exactly."""
    total = None
    if cfg.alpha:
        total = cfg.alpha * dice_loss(logits, labels, cfg.dice_smooth)
    if cfg.beta:
        ce = cfg.beta * cross_entropy_loss(logits, labels)
        total = ce if total is None else total + ce
    return total
