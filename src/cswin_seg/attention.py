"""Cross-shaped-window self-attention and its transformer block.

The feature map is cut into non-overlapping stripes of width ``sw``; half
of the attention heads attend inside horizontal stripes (sw x W tokens),
the other half inside vertical stripes (H x sw tokens).  Per group, a single
projection gives the queries, keys and values of all its heads, and heads
and stripes share the leading axis of one batched attention (scores,
softmax and value product).  The vertical group runs on the transposed map,
where its stripes are rows.  Head outputs are merged channel-wise
(horizontal heads first) and fused by a square output projection, so the
block keeps its [..., H, W, C] shape; leading axes are a batch.

Optionally each head adds a locally-enhanced positional term: a 3x3
depthwise convolution of its value map, applied inside the stripe.  With
it disabled the attention carries no positional information and is
permutation-equivariant within a stripe.

A block is two tape entries, one per residual half: x + attention(norm(x))
is a ``stripe_attention`` entry and x + mlp(norm(x)) an ``mlp`` entry.  Each
keeps x, the norm's per-row statistics and what its branch's gradient reads;
backward rebuilds the normalized input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .initializers import ParamSource, ones, trunc_normal, zeros
from .tensor import Tensor, residual_mlp, residual_stripe_attention


@dataclass
class AttentionConfig:
    """Shape contract for one cross-window attention layer."""

    heads: int
    sw: int
    channels: int
    lepe_enabled: bool = False

    def __post_init__(self):
        if self.heads < 2 or self.heads % 2:
            raise ConfigError(f"head count must be even and >= 2, got {self.heads}")
        if self.channels % self.heads:
            raise ConfigError(f"channels {self.channels} not divisible by {self.heads} heads")
        if self.sw < 1:
            raise ConfigError(f"stripe width must be positive, got {self.sw}")

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


def cswin_block(x: Tensor, params: "CSWinBlockParams", config: AttentionConfig) -> Tensor:
    """Pre-norm transformer block: attention residual, then MLP residual."""
    if x.ndim < 3:
        raise DimensionError(f"attention expects [..., H,W,C], got {x.shape}")
    h, w, c = x.shape[-3:]
    if c != config.channels:
        raise DimensionError(f"input has {c} channels, config says {config.channels}")
    for direction, extent in (("horizontal", h), ("vertical", w)):
        if extent % config.sw:
            raise ConfigError(f"stripe width {config.sw} does not divide {direction} extent {extent}")
    p = params
    x = residual_stripe_attention(x, p.ln1_g, p.ln1_b, p.wqkv, p.wo, p.lepe, config.sw)
    return residual_mlp(x, p.ln2_g, p.ln2_b, p.mlp_w1, p.mlp_b1, p.mlp_w2, p.mlp_b2)


def _per_head(kinds: int):
    """Init for a group-major [2, kinds*N/2, *head] tensor laid out as
    CSWinBlockParams says.  Every head draws its own array, kind by kind and
    each kind in head order, so the draws do not depend on the layout."""

    def init(rng, shape, dtype):
        half, head = shape[1] // kinds, shape[2:]
        a = np.stack([trunc_normal(rng, head, 0.02, dtype).data for _ in range(kinds * 2 * half)])
        return a.reshape(kinds, 2, half, *head).swapaxes(0, 1).reshape(shape)

    return init


@dataclass
class CSWinBlockParams:
    """Learnable state of one block: Q/K/V projections, output projection,
    two layer norms, the expansion MLP and the optional LePE kernels.

    wqkv [2, 3*N/2, C, C/N] is group-major: group 0 holds the horizontal
    heads, group 1 the vertical ones, and within a group the N/2 query
    projections come first, then the keys, then the values.  Head i of
    group g is head g*N/2 + i, whose output fills channels of that index.
    lepe [2, N/2, 3, 3, C/N] orders the heads' 3x3 kernels the same way.
    """

    wqkv: Tensor
    wo: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    lepe: Optional[Tensor] = None

    @staticmethod
    def create(source: ParamSource, name: str, config: AttentionConfig, mlp_ratio: int = 4) -> "CSWinBlockParams":
        c, n, d = config.channels, config.heads, config.head_dim
        hidden = mlp_ratio * c
        proj = lambda rng, shape, dtype: trunc_normal(rng, shape, 0.02, dtype)
        p = lambda suffix, shape, init: source.param(f"{name}.{suffix}", shape, init)
        return CSWinBlockParams(
            wqkv=p("wqkv", (2, 3 * n // 2, c, d), _per_head(3)),
            wo=p("wo", (c, c), proj),
            ln1_g=p("ln1.g", (c,), ones),
            ln1_b=p("ln1.b", (c,), zeros),
            ln2_g=p("ln2.g", (c,), ones),
            ln2_b=p("ln2.b", (c,), zeros),
            mlp_w1=p("mlp.w1", (c, hidden), proj),
            mlp_b1=p("mlp.b1", (hidden,), zeros),
            mlp_w2=p("mlp.w2", (hidden, c), proj),
            mlp_b2=p("mlp.b2", (c,), zeros),
            lepe=p("lepe", (2, n // 2, 3, 3, d), _per_head(1)) if config.lepe_enabled else None,
        )
