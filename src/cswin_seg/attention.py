"""Cross-shaped-window self-attention and its transformer block.

The feature map is cut into non-overlapping stripes of width ``sw``; half
of the attention heads attend inside horizontal stripes (sw x W tokens),
the other half inside vertical stripes (H x sw tokens).  Each group is one
batched attention: a single projection gives the queries, keys and values
of all its heads, and its heads and stripes share the leading axis of one
scores matmul, one softmax and one value matmul.  The vertical group runs
on the transposed map, where its stripes are rows.  Head outputs are
concatenated channel-wise (horizontal heads first) and fused by a square
output projection, so the block keeps its (H, W, C) shape.

Optionally each head adds a locally-enhanced positional term: a 3x3
depthwise convolution of its value map, applied inside the stripe.  With
it disabled the attention carries no positional information and is
permutation-equivariant within a stripe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .tensor import (
    Tensor,
    add,
    concat,
    depthwise_conv2d,
    gelu,
    layer_norm,
    linear,
    matmul,
    permute,
    reshape,
    softmax,
    split,
)

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


def _stripe_group(plane: Tensor, wqkv: Tensor, lepe: Optional[Tensor], sw: int) -> Tensor:
    """One head group attending inside stripes of sw rows of plane [P,Q,C].

    wqkv [1, 3n, C, d] holds the n query heads, then the n key heads, then
    the n value heads; lepe is [n, 1, 3, 3, d] or None.  Heads and stripes
    share the leading batch axis, head-major.  Returns [n, P, Q, d].
    """
    p, q, c = plane.shape
    n, d = wqkv.shape[1] // 3, wqkv.shape[3]
    m = p // sw
    qkv = matmul(reshape(plane, (p * q, c)), wqkv)  # [1, 3n, P*Q, d]
    qs, ks, vs = split(reshape(qkv, (3, n * m, sw * q, d)), [1, 1, 1], axis=0)
    scores = matmul(qs, permute(ks, (0, 1, 3, 2))) * (1.0 / np.sqrt(d))
    y = reshape(matmul(softmax(scores, axis=-1), vs), (n, p, q, d))
    if lepe is not None:
        v = reshape(vs, (n, m, sw, q, d))  # each stripe in its own geometry
        y = add(y, reshape(depthwise_conv2d(v, lepe, padding=lepe.shape[2] // 2), (n, p, q, d)))
    return y


def cswin_attention(x: Tensor, params: "CSWinBlockParams", config: AttentionConfig) -> Tensor:
    """Two-group stripe attention with output projection; (H,W,C) -> (H,W,C)."""
    h, w, c = x.shape
    if c != config.channels:
        raise DimensionError(f"input has {c} channels, config says {config.channels}")
    sw, half = config.sw, config.heads // 2
    for direction, extent in (("horizontal", h), ("vertical", w)):
        if extent % sw:
            raise ConfigError(f"stripe width {sw} does not divide {direction} extent {extent}")
    w_h, w_v = split(params.wqkv, [1, 1], axis=0)
    k_h = k_v = None
    if params.lepe is not None:
        l_h, l_v = split(params.lepe, [1, 1], axis=0)
        k_h = reshape(l_h, (half, 1) + l_h.shape[2:])
        # the vertical group runs on the transposed map, so its kernels transpose too
        k_v = reshape(permute(l_v, (0, 1, 3, 2, 4)), (half, 1) + l_h.shape[2:])
    y_h = _stripe_group(x, w_h, k_h, sw)  # [N/2, H, W, d]
    y_v = _stripe_group(permute(x, (1, 0, 2)), w_v, k_v, sw)  # [N/2, W, H, d]
    grouped = concat([permute(y_h, (1, 2, 0, 3)), permute(y_v, (2, 1, 0, 3))], axis=2)  # [H, W, N, d]
    out = matmul(reshape(grouped, (h * w, c)), params.wo)
    return reshape(out, (h, w, c))


def cswin_block(x: Tensor, params: "CSWinBlockParams", config: AttentionConfig) -> Tensor:
    """Pre-norm transformer block: attention residual, then MLP residual."""
    h, w, c = x.shape
    attn = cswin_attention(layer_norm(x, params.ln1_g, params.ln1_b), params, config)
    x = add(x, attn)
    y = layer_norm(x, params.ln2_g, params.ln2_b)
    y = reshape(y, (h * w, c))
    y = linear(gelu(linear(y, params.mlp_w1, params.mlp_b1)), params.mlp_w2, params.mlp_b2)
    return add(x, reshape(y, (h, w, c)))


def _group_major(heads: list[Tensor], kinds: int) -> Tensor:
    """Stack per-head tensors listed kind by kind, each kind in head order,
    into one [2, kinds*N/2, ...] tensor laid out as CSWinBlockParams says."""
    a = np.stack([t.data for t in heads])
    half = len(heads) // kinds // 2
    a = a.reshape(kinds, 2, half, *a.shape[1:]).swapaxes(0, 1)
    return Tensor(a.reshape(2, kinds * half, *a.shape[3:]), requires_grad=True)


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
    def create(
        rng: np.random.Generator,
        config: AttentionConfig,
        mlp_ratio: int = 4,
        dtype: str = "f32",
    ) -> "CSWinBlockParams":
        from .initializers import trunc_normal

        c, n, d = config.channels, config.heads, config.head_dim
        hidden = mlp_ratio * c
        proj = lambda *shape: trunc_normal(rng, shape, 0.02, dtype)
        ones = lambda *shape: Tensor.ones(shape, dtype, requires_grad=True)
        zeros = lambda *shape: Tensor.zeros(shape, dtype, requires_grad=True)
        # every head draws its own [C, d] projection (all queries, then keys,
        # then values) and LePE kernel, so the draws do not depend on the layout
        return CSWinBlockParams(
            wqkv=_group_major([proj(c, d) for _ in range(3 * n)], 3),
            wo=proj(c, c),
            ln1_g=ones(c),
            ln1_b=zeros(c),
            ln2_g=ones(c),
            ln2_b=zeros(c),
            mlp_w1=proj(c, hidden),
            mlp_b1=zeros(hidden),
            mlp_w2=proj(hidden, c),
            mlp_b2=zeros(c),
            lepe=_group_major([proj(3, 3, d) for _ in range(n)], 1) if config.lepe_enabled else None,
        )

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.wqkv", self.wqkv
        yield f"{prefix}.wo", self.wo
        yield f"{prefix}.ln1.g", self.ln1_g
        yield f"{prefix}.ln1.b", self.ln1_b
        yield f"{prefix}.ln2.g", self.ln2_g
        yield f"{prefix}.ln2.b", self.ln2_b
        yield f"{prefix}.mlp.w1", self.mlp_w1
        yield f"{prefix}.mlp.b1", self.mlp_b1
        yield f"{prefix}.mlp.w2", self.mlp_w2
        yield f"{prefix}.mlp.b2", self.mlp_b2
        if self.lepe is not None:
            yield f"{prefix}.lepe", self.lepe
