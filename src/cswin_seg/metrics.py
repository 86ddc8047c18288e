"""Segmentation evaluation metrics: Dice overlap, Hausdorff distances and
pixel-wise sensitivity / specificity / accuracy.

Conventions for degenerate inputs (documented because the math is 0/0):
Dice of two empty masks is 1; Hausdorff of two empty boundary sets is 0,
of one empty set the image diagonal; SE/SP/ACC return 1 when their
denominator is empty.  HD95 uses the max of the two directed 95th
percentiles (linear interpolation), so HD95 <= HD always.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DataError


def _binary(mask: np.ndarray, class_id: int) -> np.ndarray:
    return np.asarray(mask) == class_id


def dsc(pred_mask: np.ndarray, true_mask: np.ndarray, class_id: int) -> float:
    """Dice overlap 2|P & G| / (|P| + |G|) for one class; both empty -> 1."""
    if pred_mask.shape != true_mask.shape:
        raise ContractError(f"mask shapes differ: {pred_mask.shape} vs {true_mask.shape}")
    p = _binary(pred_mask, class_id)
    g = _binary(true_mask, class_id)
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """[n,2] coordinates of mask pixels with a 4-neighbor outside the mask
    (the image border counts as outside)."""
    m = mask.astype(bool)
    padded = np.pad(m, 1)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    return np.argwhere(m & ~interior)


_PAIRS_PER_CHUNK = 1 << 18  # about 4 MiB per [rows, |dst|, 2] int64 difference array


def _directed_min_dists(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    # squared distances, sqrt once at the end; each chunk of source rows
    # pairs with every dst point, so its row count shrinks as dst grows
    out = np.empty(len(src))
    step = max(1, _PAIRS_PER_CHUNK // len(dst))
    for i in range(0, len(src), step):
        chunk = src[i : i + step]
        d2 = ((chunk[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
        out[i : i + step] = d2.min(axis=1)
    return np.sqrt(out)


def hausdorff(pred_mask: np.ndarray, true_mask: np.ndarray, class_id: int) -> tuple[float, float]:
    """Symmetric boundary Hausdorff distance (full, 95th percentile) in pixels."""
    if pred_mask.shape != true_mask.shape:
        raise ContractError(f"mask shapes differ: {pred_mask.shape} vs {true_mask.shape}")
    a = boundary_points(_binary(pred_mask, class_id))
    b = boundary_points(_binary(true_mask, class_id))
    if len(a) == 0 and len(b) == 0:
        return 0.0, 0.0
    if len(a) == 0 or len(b) == 0:
        h, w = pred_mask.shape
        diag = float(np.hypot(h - 1, w - 1))
        return diag, diag
    d_ab = _directed_min_dists(a, b)
    d_ba = _directed_min_dists(b, a)
    hd = max(float(d_ab.max()), float(d_ba.max()))
    hd95 = max(float(np.percentile(d_ab, 95)), float(np.percentile(d_ba, 95)))
    return hd, hd95


def se_sp_acc(pred_mask: np.ndarray, true_mask: np.ndarray) -> tuple[float, float, float]:
    """Sensitivity, specificity, accuracy over binary masks."""
    if pred_mask.shape != true_mask.shape:
        raise ContractError(f"mask shapes differ: {pred_mask.shape} vs {true_mask.shape}")
    for m in (pred_mask, true_mask):
        vals = np.unique(m)
        if not np.isin(vals, (0, 1)).all():
            raise DataError(f"se_sp_acc expects binary masks, found values {vals}")
    p = pred_mask.astype(bool)
    g = true_mask.astype(bool)
    tp = int((p & g).sum())
    tn = int((~p & ~g).sum())
    fp = int((p & ~g).sum())
    fn = int((~p & g).sum())
    se = tp / (tp + fn) if tp + fn else 1.0
    sp = tn / (tn + fp) if tn + fp else 1.0
    acc = (tp + tn) / p.size
    return se, sp, acc


@dataclass
class MetricsReport:
    """Dataset-level metrics; class means cover foreground classes only,
    SE/SP/ACC come from the foreground-vs-background binarization."""

    num_classes: int
    samples: int = 0
    per_class_dsc: dict[int, float] = field(default_factory=dict)
    per_class_hd: dict[int, float] = field(default_factory=dict)
    per_class_hd95: dict[int, float] = field(default_factory=dict)
    mean_dsc: float = 0.0
    mean_hd: float = 0.0
    mean_hd95: float = 0.0
    se: float = 0.0
    sp: float = 0.0
    acc: float = 0.0

    def rows(self) -> list[dict]:
        out = []
        for c in sorted(self.per_class_dsc):
            out.append(
                {
                    "class": c,
                    "dsc": self.per_class_dsc[c],
                    "hd": self.per_class_hd[c],
                    "hd95": self.per_class_hd95[c],
                }
            )
        out.append({"class": "mean", "dsc": self.mean_dsc, "hd": self.mean_hd, "hd95": self.mean_hd95})
        return out

    def table(self) -> str:
        lines = [f"{'class':>8} {'DSC':>8} {'HD':>8} {'HD95':>8}"]
        for row in self.rows():
            lines.append(f"{row['class']:>8} {row['dsc']:>8.4f} {row['hd']:>8.3f} {row['hd95']:>8.3f}")
        lines.append(f"SE {self.se:.4f}  SP {self.sp:.4f}  ACC {self.acc:.4f}  (n={self.samples})")
        return "\n".join(lines)


def evaluate_masks(pairs: list[tuple[np.ndarray, np.ndarray]], num_classes: int) -> MetricsReport:
    """Aggregate metrics over (predicted mask, true mask) pairs."""
    if not pairs:
        raise DataError("no samples to evaluate")
    rep = MetricsReport(num_classes=num_classes, samples=len(pairs))
    fg = range(1, num_classes)
    sums = {c: [0.0, 0.0, 0.0] for c in fg}
    se = sp = acc = 0.0
    for pred, true in pairs:
        for c in fg:
            d = dsc(pred, true, c)
            h, h95 = hausdorff(pred, true, c)
            sums[c][0] += d
            sums[c][1] += h
            sums[c][2] += h95
        s1, s2, s3 = se_sp_acc((pred != 0).astype(np.uint8), (true != 0).astype(np.uint8))
        se += s1
        sp += s2
        acc += s3
    n = len(pairs)
    for c in fg:
        rep.per_class_dsc[c] = sums[c][0] / n
        rep.per_class_hd[c] = sums[c][1] / n
        rep.per_class_hd95[c] = sums[c][2] / n
    k = max(len(list(fg)), 1)
    rep.mean_dsc = sum(rep.per_class_dsc.values()) / k
    rep.mean_hd = sum(rep.per_class_hd.values()) / k
    rep.mean_hd95 = sum(rep.per_class_hd95.values()) / k
    rep.se, rep.sp, rep.acc = se / n, sp / n, acc / n
    return rep
