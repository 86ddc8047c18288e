"""Finite-difference gradient checking.

Central differences with step h compare against the analytic gradients the
tape produces.  Checks are meaningful in f64 only; f32 round-off swamps the
h^2 truncation term.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Tape, Tensor, backward


def numeric_grad(
    fn: Callable[[], Tensor],
    t: Tensor,
    indices: Sequence[int],
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference d fn / d t.flat[i] for each flat index i.

    fn must rerun the forward pass from current tensor contents and return a
    scalar Tensor.
    """
    flat = t.data.reshape(-1)
    out = np.empty(len(indices), dtype=np.float64)
    for n, i in enumerate(indices):
        keep = flat[i]
        flat[i] = keep + h
        up = fn().item()
        flat[i] = keep - h
        down = fn().item()
        flat[i] = keep
        out[n] = (up - down) / (2.0 * h)
    return out


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_gradients(
    fn: Callable[[], Tensor],
    inputs: Sequence[tuple[str, Tensor]],
    *,
    h: float = 1e-5,
    tol: float = 1e-4,
    max_coords: Optional[int] = None,
) -> list[tuple[str, float]]:
    """Compare analytic and numeric gradients for every named input.

    Returns (name, max relative error) per input and raises AssertionError on
    the first input exceeding tol.  When max_coords is set, only the
    max_coords largest-magnitude analytic entries of each tensor are probed:
    coordinates with near-zero gradients sit below what central differences
    can resolve in f64, so deep compositions probe the coordinates that
    carry signal.
    """
    for _, t in inputs:
        t.requires_grad = True
        t.zero_grad()
    with Tape() as tape:
        loss = fn()
    backward(loss, tape)

    report = []
    for name, t in inputs:
        assert t.grad is not None, f"{name}: no gradient reached this tensor"
        if max_coords is None or t.size <= max_coords:
            idx = list(range(t.size))
        else:
            idx = np.argsort(np.abs(t.grad.reshape(-1)))[-max_coords:].tolist()
        numeric = numeric_grad(fn, t, idx, h=h)
        analytic = t.grad.reshape(-1)[idx].astype(np.float64)
        err = relative_error(analytic, numeric)
        report.append((name, err))
        assert err < tol, f"{name}: gradient mismatch, rel err {err:.3e} >= {tol:.0e}"
    return report
