"""Dice and cross-entropy segmentation losses.

Both terms consume raw logits [..., H, W, K] and an integer label map
[..., H, W]; leading axes are a batch, and each loss is the mean of its
per-image values.  Dice is the soft multi-class form (softmax probabilities
against one-hot targets, smoothing term in numerator and denominator,
background class included in the class mean), one Dice per image;
cross-entropy is averaged over pixels so the two weights stay comparable
across image sizes.  ``train.combined_loss`` weighs them into the training
objective.

Each loss is one tape entry: it computes one max-shifted softmax p and
has a closed-form gradient in the logits' dtype.  The softmax's row max
and normalizer, Dice's per-image class sums and its gradient's dot over
classes come from ``tensor``'s reductions (``_rowmax``, ``_rowsum``,
``_colsum``), which run over all pixels at once instead of one K-long row
at a time.  For one image of N = H*W pixels, targets t (one-hot of the
labels), I_k = sum_n p_nk t_nk and D_k = sum_n (p_nk + t_nk):
  * cross-entropy: dL/dx = (p - t) / N;
  * Dice (Milletari et al., "V-Net", 2016):
    dL/dp_k = -(1/K) * [2 t_k / (D_k + s) - (2 I_k + s) / (D_k + s)^2],
    passed once through the softmax Jacobian, dx = p * (dp - sum_k p_k dp_k).
A batch of B images scales each image's gradient by 1/B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .tensor import Tensor, _colsum, _emit, _rowmax, _rowsum


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


def _softmax_rows(logits: Tensor, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Check the pair; return the flat labels [N] (N pixels over every
    image), the max-shifted logits [N,K], their row sums of exp [N,1] and
    the probabilities [N,K]."""
    if logits.ndim < 3:
        raise DimensionError(f"logits must be [..., H,W,K], got {logits.shape}")
    if labels.shape != logits.shape[:-1]:
        raise DimensionError(f"labels {labels.shape} do not match logits {logits.shape}")
    k = logits.shape[-1]
    idx = np.asarray(labels).reshape(-1)
    if idx.min() < 0 or idx.max() >= k:
        raise DataError(f"labels outside [0, {k}): {idx.min()}..{idx.max()}")
    z = logits.data.reshape(-1, k)
    z = z - _rowmax(z)
    p = np.exp(z)
    total = _rowsum(p)
    p /= total
    return idx, z, total, p


def dice_loss(logits: Tensor, labels: np.ndarray, smooth: float = 1e-5) -> Tensor:
    """1 - mean over classes of the smoothed soft-Dice overlap, one per
    image, averaged over the images."""
    idx, _, _, p = _softmax_rows(logits, labels)
    rows, k = p.shape
    nb = math.prod(logits.shape[:-3])
    n = rows // nb  # pixels per image
    flat = np.arange(rows)
    slot = flat // n * k + idx  # the (image, class) bin of each pixel
    inter = np.bincount(slot, weights=p[flat, idx], minlength=nb * k).astype(p.dtype).reshape(nb, k)
    denom = _colsum(p.reshape(nb, n, k)) + np.bincount(slot, minlength=nb * k).astype(p.dtype).reshape(nb, k) + smooth
    score = (2.0 * inter + smooth) / denom

    def grad_fn(g):
        dp = np.repeat(score / denom, n, axis=0)  # K * dL/dp: (2I+s)/(D+s)^2, less 2/(D+s) at the label
        dp[flat, idx] -= 2.0 / denom.reshape(-1)[slot]
        dp *= g / (k * nb)
        return ((p * (dp - _rowsum(p * dp))).reshape(logits.shape),)

    loss = (1.0 - _rowsum(score)[:, 0] / k).sum() / nb
    return _emit("dice_loss", (logits,), np.asarray(loss, dtype=p.dtype), grad_fn)


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean per-pixel negative log-likelihood of the labeled class: every
    image has the same pixel count, so this is also the mean of the
    per-image means."""
    idx, z, total, p = _softmax_rows(logits, labels)
    n = len(idx)
    rows = np.arange(n)
    nll = np.log(total[:, 0]) - z[rows, idx]

    def grad_fn(g):
        gx = p * (g / n)
        gx[rows, idx] -= g / n
        return (gx.reshape(logits.shape),)

    return _emit("cross_entropy_loss", (logits,), np.asarray(nll.sum() / n, dtype=p.dtype), grad_fn)
