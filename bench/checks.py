"""Output checks, computed apart from the package and outside the timed window.

Each function returns a list of failure messages; an empty list passes.
Metrics are recomputed from confusion counts and with scipy's k-d tree,
the loss in plain numpy, and the gradient by central differences of the
loss that ``train`` itself reports.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from importlib import import_module

import numpy as np

from cswin_seg.losses import LossConfig, cross_entropy_loss, dice_loss
from cswin_seg.network import Model
from cswin_seg.optim import OptimizerConfig
from cswin_seg.tensor import Tape, Tensor

train_mod = import_module("cswin_seg.train")  # the package re-exports a function under this name


def digests(named) -> dict[str, str]:
    """sha256 of every tensor's dtype, shape and bytes, by name."""
    out = {}
    for name, t in named:
        a = t.data
        out[name] = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
    return out


def check_bitwise(saved: dict[str, str], restored: dict[str, str], what: str) -> list[str]:
    if saved.keys() != restored.keys():
        return [f"{what}: restored names differ from saved ({len(restored)} vs {len(saved)})"]
    bad = [n for n in saved if saved[n] != restored[n]]
    return [f"{what}: {len(bad)} tensors differ from saved, first {bad[0]}"] if bad else []


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _boundary(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with a 4-neighbour outside the mask; beyond the image is outside."""
    h, w = mask.shape
    outside = np.ones((h + 2, w + 2), dtype=bool)
    outside[1:-1, 1:-1] = ~mask
    touches = outside[:-2, 1:-1] | outside[2:, 1:-1] | outside[1:-1, :-2] | outside[1:-1, 2:]
    return np.argwhere(mask & touches)


def _hausdorff(pred: np.ndarray, true: np.ndarray) -> tuple[float, float]:
    from scipy.spatial import cKDTree

    a, b = _boundary(pred), _boundary(true)
    if len(a) == 0 and len(b) == 0:
        return 0.0, 0.0
    if len(a) == 0 or len(b) == 0:
        diag = float(np.hypot(pred.shape[0] - 1, pred.shape[1] - 1))
        return diag, diag
    d_ab = cKDTree(b).query(a)[0]
    d_ba = cKDTree(a).query(b)[0]
    hd = max(d_ab.max(), d_ba.max())
    hd95 = max(np.percentile(d_ab, 95), np.percentile(d_ba, 95))
    return float(hd), float(hd95)


def shifted_pairs(masks) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each true mask against a shifted copy of itself: partial overlaps in
    every class, which an untrained model's predictions seldom give."""
    return [(np.roll(m, (3, -2), axis=(0, 1)), m) for m in masks]


def check_report(pairs, num_classes: int, report) -> list[str]:
    """DSC/SE/SP/ACC from confusion counts, HD/HD95 by nearest-neighbour queries."""
    k = num_classes
    dsc = np.zeros(k)
    hd = np.zeros(k)
    hd95 = np.zeros(k)
    se = sp = acc = 0.0
    for pred, true in pairs:
        cm = np.bincount(true.ravel() * k + pred.ravel(), minlength=k * k).reshape(k, k)
        for c in range(1, k):
            denom = cm[c, :].sum() + cm[:, c].sum()
            dsc[c] += 1.0 if denom == 0 else 2.0 * cm[c, c] / denom
            h, h95 = _hausdorff(pred == c, true == c)
            hd[c] += h
            hd95[c] += h95
        tp, fn, fp, tn = cm[1:, 1:].sum(), cm[1:, 0].sum(), cm[0, 1:].sum(), cm[0, 0]
        se += tp / (tp + fn) if tp + fn else 1.0
        sp += tn / (tn + fp) if tn + fp else 1.0
        acc += (tp + tn) / cm.sum()
    n = len(pairs)
    errs = []
    for c in range(1, k):
        for what, mine, theirs in (
            ("dsc", dsc[c] / n, report.per_class_dsc[c]),
            ("hd", hd[c] / n, report.per_class_hd[c]),
            ("hd95", hd95[c] / n, report.per_class_hd95[c]),
        ):
            if not _close(mine, theirs, 1e-9, 1e-12):
                errs.append(f"class {c} {what}: program {theirs!r}, recomputed {mine!r}")
    for what, mine, theirs in (("se", se / n, report.se), ("sp", sp / n, report.sp), ("acc", acc / n, report.acc)):
        if not _close(mine, theirs, 1e-9, 1e-12):
            errs.append(f"{what}: program {theirs!r}, recomputed {mine!r}")
    return errs


def numpy_loss(logits: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> float:
    """alpha * soft Dice (background included) + beta * mean cross-entropy, in f64."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    p = np.exp(log_p)
    y = labels[..., None] == np.arange(z.shape[-1])
    inter = (p * y).sum(axis=(0, 1))
    denom = p.sum(axis=(0, 1)) + y.sum(axis=(0, 1))
    dice = 1.0 - np.mean((2.0 * inter + cfg.dice_smooth) / (denom + cfg.dice_smooth))
    ce = -log_p[y].sum() / labels.size
    return cfg.alpha * dice + cfg.beta * ce


def check_loss(model: Model, sample, cfg: LossConfig) -> list[str]:
    """The program's Dice+CE on one image's logits against plain numpy."""
    logits = model.forward(Tensor(sample.image))
    program = cfg.alpha * dice_loss(logits, sample.mask, cfg.dice_smooth).item()
    program += cfg.beta * cross_entropy_loss(logits, sample.mask).item()
    mine = numpy_loss(logits.data, sample.mask, cfg)
    if not np.isfinite(program) or not _close(program, mine, 1e-4):
        return [f"loss of {sample.id}: program {program!r}, numpy {mine!r}"]
    return []


def check_taped(model: Model, sample) -> list[str]:
    """Logits of a taped forward against the untaped inference forward."""
    untaped = model.forward(Tensor(sample.image)).data
    with Tape():
        taped = model.forward(Tensor(sample.image)).data
    scale = float(np.abs(untaped).max())
    if not np.allclose(taped, untaped, rtol=1e-5, atol=1e-6 * max(scale, 1.0)):
        return [f"taped logits differ from untaped by {np.abs(taped - untaped).max()!r}"]
    return []


def check_gradient(model: Model, sample, loss_cfg: LossConfig, seed: int, h: float = 1e-4) -> list[str]:
    """Directional central difference, on an f64 copy of model, of the gradient
    one train() step computes (lr 0, so the step leaves the weights alone).

    With h = 1e-4 correct code agrees to about 1e-9 relative, so the 1e-6
    tolerance leaves a wide margin and still catches a gradient that is
    wrong in one branch of one op."""
    m64 = Model.create(model.config, seed=0, dtype="f64")
    src = dict(model.named_parameters())
    params = m64.named_parameters()
    for name, t in params:
        t.data[...] = src[name].data
    sample = replace(sample, image=sample.image.astype(np.float64))
    opt = OptimizerConfig(lr=0.0, momentum=0.0, weight_decay=0.0, batch_size=1, max_iterations=1)

    def loss() -> float:
        _, result = train_mod.train(m64, [sample], opt, loss_cfg, augment_enabled=False)
        return result.losses[0][1]

    loss()
    rng = np.random.default_rng(seed)
    dirs = [rng.standard_normal(t.shape) for _, t in params]
    norm = np.sqrt(sum(float((d * d).sum()) for d in dirs))
    analytic = sum(float((t.grad * d).sum()) for (_, t), d in zip(params, dirs)) / norm
    base = [t.data.copy() for _, t in params]
    sides = []
    for sign in (1.0, -1.0):
        for (_, t), d, b in zip(params, dirs, base):
            t.data[...] = b + (sign * h / norm) * d
        sides.append(loss())
    numeric = (sides[0] - sides[1]) / (2.0 * h)
    if not _close(analytic, numeric, 1e-6, 1e-12):
        return [f"directional derivative: backward {analytic!r}, central difference {numeric!r}"]
    return []
