"""Training loop: shuffled minibatches, flip/rotation augmentation, the
Dice + cross-entropy objective, momentum SGD, loss/metric logging.

Each step stacks its augmented minibatch into one [B, H, W, C] array and
records one tape: one forward, one loss (the mean of the per-image losses,
so the step uses the mean batch gradient) and one backward.  Everything
(shuffling, transform choice) draws from one seeded generator; two runs
with the same seed and data produce bitwise-identical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .data import SegmentationSample
from .errors import ConfigError, DataError, DimensionError
from .losses import LossConfig, cross_entropy_loss, dice_loss
from .metrics import MetricsReport, evaluate_masks
from .network import Model, NetworkConfig
from .optim import SGD, OptimizerConfig
from .tensor import Tape, Tensor, backward

TRANSFORMS = ("identity", "hflip", "vflip", "rot90", "rot180", "rot270")


def apply_transform(arr: np.ndarray, name: str) -> np.ndarray:
    """Apply one named transform to [H,W] or [H,W,C]; rotations need H == W."""
    if name == "identity":
        return arr
    if name == "hflip":
        return np.ascontiguousarray(arr[:, ::-1])
    if name == "vflip":
        return np.ascontiguousarray(arr[::-1, :])
    if name.startswith("rot"):
        if arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"rotation of non-square array {arr.shape}")
        k = {"rot90": 1, "rot180": 2, "rot270": 3}[name]
        return np.ascontiguousarray(np.rot90(arr, k))
    raise ConfigError(f"unknown transform {name!r}")


def augment(sample: SegmentationSample, rng: np.random.Generator) -> SegmentationSample:
    """Random flip / right-angle rotation, identical for image and mask."""
    name = TRANSFORMS[int(rng.integers(len(TRANSFORMS)))]
    if name == "identity":
        return sample
    return SegmentationSample(
        image=apply_transform(sample.image, name),
        mask=apply_transform(sample.mask, name),
        id=sample.id,
    )


@dataclass
class TrainResult:
    # one row per iteration: (iteration, total, dice, cross_entropy, lr)
    losses: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    # (iteration, MetricsReport) at every eval interval
    metrics: list[tuple[int, MetricsReport]] = field(default_factory=list)
    # state of the shuffling/augmentation rng when training finished
    rng_state: dict | None = None


def combined_loss(logits: Tensor, labels: np.ndarray, cfg: LossConfig) -> tuple[Tensor, float, float]:
    """alpha * Dice + beta * cross-entropy of logits [..., H, W, K], with the
    values of its Dice and cross-entropy parts (0.0 for a part whose weight
    is 0; it is not run).  Over a batch each part is the mean of its
    per-image values."""
    total = dice = ce = None
    if cfg.alpha:
        dice = dice_loss(logits, labels, cfg.dice_smooth)
        total = cfg.alpha * dice
    if cfg.beta:
        ce = cross_entropy_loss(logits, labels)
        total = cfg.beta * ce if total is None else total + cfg.beta * ce
    return total, 0.0 if dice is None else dice.item(), 0.0 if ce is None else ce.item()


def predict_mask(model: Model, image: np.ndarray) -> np.ndarray:
    return model.forward(Tensor(image)).data.argmax(axis=-1)


def evaluate_model(model: Model, samples: list[SegmentationSample], num_classes: int) -> MetricsReport:
    """Metrics of one untaped forward per image."""
    pairs = [(predict_mask(model, s.image), s.mask) for s in samples]
    return evaluate_masks(pairs, num_classes)


def train(
    model: Model,
    samples: list[SegmentationSample],
    opt_cfg: OptimizerConfig,
    loss_cfg: LossConfig,
    *,
    augment_enabled: bool = True,
    val_samples: Optional[list[SegmentationSample]] = None,
    eval_interval: int = 0,
    callback: Optional[Callable[[int, float], None]] = None,
) -> tuple[SGD, TrainResult]:
    """Run opt_cfg.max_iterations of SGD; returns the optimizer (for its
    momentum state) and the loss / metrics history.  Every train and val
    sample must match the model's input size; one that does not raises
    DimensionError before the first step."""
    if not samples:
        raise DataError("training set is empty")
    check_sizes(model.config, [*samples, *(val_samples or [])])
    optimizer = SGD(model.named_parameters(), opt_cfg)
    rng = np.random.default_rng(opt_cfg.seed)
    result = TrainResult(losses=[])

    order: list[int] = []
    for iteration in range(opt_cfg.max_iterations):
        batch = []
        for _ in range(opt_cfg.batch_size):
            if not order:
                order = list(rng.permutation(len(samples)))
            batch.append(samples[order.pop()])

        if augment_enabled:
            batch = [augment(sample, rng) for sample in batch]
        images = Tensor(np.stack([s.image for s in batch]))
        optimizer.zero_grad()
        with Tape() as tape:
            loss, dice_l, ce_l = combined_loss(model.forward(images), np.stack([s.mask for s in batch]), loss_cfg)
        backward(loss, tape)
        tot_l = loss.item()

        lr = opt_cfg.lr_at(iteration)
        optimizer.step(lr)
        result.losses.append((iteration, tot_l, dice_l, ce_l, lr))
        if callback is not None:
            callback(iteration, tot_l)
        if eval_interval and val_samples and (iteration + 1) % eval_interval == 0:
            result.metrics.append((iteration, evaluate_model(model, val_samples, model.config.num_classes)))
    result.rng_state = rng.bit_generator.state
    return optimizer, result


def check_sizes(cfg: NetworkConfig, samples: list[SegmentationSample]) -> None:
    """Each image must be [S, S, Cin] and each mask [S, S] for the config's
    input size S and input channels Cin; raises DimensionError naming the
    first sample that is not."""
    s = cfg.input_size
    for sample in samples:
        if sample.image.shape != (s, s, cfg.in_channels) or sample.mask.shape != (s, s):
            raise DimensionError(
                f"sample {sample.id}: image {sample.image.shape} and mask {sample.mask.shape} do not fit "
                f"the config's input size {s} with {cfg.in_channels} channels"
            )


def losses_to_csv(rows: list[tuple[int, float, float, float, float]]) -> str:
    out = ["iteration,loss,dice_loss,cross_entropy_loss,lr"]
    for it, total, dice, ce, lr in rows:
        out.append(f"{it},{total:.8f},{dice:.8f},{ce:.8f},{lr:.8f}")
    return "\n".join(out) + "\n"


def metrics_to_csv(report: MetricsReport) -> str:
    out = ["class,dsc,hd,hd95"]
    for row in report.rows():
        out.append(f"{row['class']},{row['dsc']:.6f},{row['hd']:.6f},{row['hd95']:.6f}")
    out.append(f"se,{report.se:.6f},,")
    out.append(f"sp,{report.sp:.6f},,")
    out.append(f"acc,{report.acc:.6f},,")
    return "\n".join(out) + "\n"
