"""Parameter sources and weight initializers.

Constructors declare each parameter once, as ``source.param(name, shape,
init)``.  ``seeded`` draws it with ``init(rng, shape, dtype)``; a checkpoint
restore adopts the stored array of that name instead.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .tensor import DTYPES, Tensor


class ParamSource:
    """``make(name, shape, init)`` supplies each declared parameter's array;
    ``named`` records the (name, tensor) pairs in declaration order."""

    def __init__(self, make: Callable):
        self.make = make
        self.named: list[tuple[str, Tensor]] = []

    def param(self, name: str, shape, init: Callable) -> Tensor:
        t = Tensor(self.make(name, tuple(shape), init), requires_grad=True)
        self.named.append((name, t))
        return t


def seeded(rng: np.random.Generator, dtype: str = "f32") -> ParamSource:
    """Draws every parameter with ``init(rng, shape, dtype)``, in declaration order."""
    return ParamSource(lambda name, shape, init: init(rng, shape, dtype))


def zeros(rng, shape, dtype: str) -> Tensor:
    return Tensor.zeros(shape, dtype)


def ones(rng, shape, dtype: str) -> Tensor:
    return Tensor.ones(shape, dtype)


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02, dtype: str = "f32") -> Tensor:
    """Normal(0, std) with resampling outside +-2 std.  Each round re-checks
    only the entries just redrawn, in ascending flat order, so the draws match
    resampling a boolean mask over the whole array."""
    out = rng.normal(0.0, std, size=shape)
    flat = out.reshape(-1)
    idx = np.flatnonzero(np.abs(flat) > 2 * std)
    while idx.size:
        flat[idx] = rng.normal(0.0, std, size=idx.size)
        idx = idx[np.abs(flat[idx]) > 2 * std]
    return Tensor(out.astype(DTYPES[dtype]), requires_grad=True)


def conv_trunc_normal(rng: np.random.Generator, shape, dtype: str = "f32") -> Tensor:
    """Fan-in-scaled truncated normal for conv kernels [kh,kw,Cin,Cout].

    Layer-norm keeps the transformer blocks scale-stable, but the conv
    chain (embedding, resampling, fusion, classifier) has no normalization,
    so a fixed std would shrink activations multiplicatively per layer;
    std = sqrt(2 / fan_in) keeps the forward scale roughly constant.
    """
    fan_in = int(np.prod(shape[:-1]))
    return trunc_normal(rng, shape, float(np.sqrt(2.0 / fan_in)), dtype)
