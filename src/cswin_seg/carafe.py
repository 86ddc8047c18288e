"""Content-aware reassembly upsampling, and bilinear upsampling as a fixed-kernel reassembly.

Each output pixel gets its own k_up x k_up kernel, predicted from the
input features (1x1 channel compressor, then a context-encoder conv with
sigma^2 * k_up^2 output channels: sigma^2 kernels per source pixel, one
for each output pixel it covers).  Kernels are softmax-normalized, then the
output pixel is the kernel-weighted sum of the k_up x k_up neighborhood
around its source pixel (i, j) = (floor(i'/sigma), floor(j'/sigma)).

The encoder conv, the split into kernels and their softmax are one
``tensor.conv2d_softmax`` entry, which keeps the compressed map and the
field but not the encoder's logits.  Reassembly is one primitive,
``tensor.reassemble``: each source pixel's neighborhood meets its sigma^2
kernels in one batched matmul, and the sigma^2 outputs go to space as a
pixel shuffle would put them.  Leading axes of the input are a batch.  The tape
keeps only the input and the field; backward gathers the neighborhoods
again.  Out-of-bounds neighbors contribute zero, in the encoder conv and in
the reassembly alike.  Channel count is preserved; any channel change is
the caller's business.

The network follows each upsample with a 1x1 conv (``halve`` in each
decoder step, the classifier in the head).  Reassembly is linear in its
input, so ``network.Model.upsample_project`` runs that conv first, at the
source resolution and without its bias, and ``reassemble`` adds the bias
to its output.  The function is the same; the work is smaller.  At the
default config a forward's head reassembles 9 channels instead of 64
(80.3 -> 11.3 MMAC) and its classifier runs on 56 x 56 pixels instead of
224 x 224 (28.9 -> 1.8 MMAC); the decoder's three reassemblies go from
17.6 to 8.8 MMAC and ``halve`` from 77.1 to 19.3 MMAC.  ``complexity.py``
still counts the upsample-then-conv order of the architecture, the
convention the published figures use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor
from .errors import ConfigError, DimensionError
from .initializers import ParamSource, conv_trunc_normal, zeros
from .tensor import Tensor, conv2d, conv2d_softmax


@dataclass
class UpsampleConfig:
    sigma: int
    k_up: int = 5
    k_encoder: int = 3
    c_mid: int = 64

    def __post_init__(self):
        if self.sigma < 1:
            raise ConfigError(f"upsample ratio must be >= 1, got {self.sigma}")
        if self.k_up % 2 == 0 or self.k_up < 1:
            raise ConfigError(f"reassembly kernel size must be odd, got {self.k_up}")
        if self.k_encoder % 2 == 0 or self.k_encoder < 1:
            raise ConfigError(f"encoder kernel size must be odd, got {self.k_encoder}")
        if self.c_mid < 1:
            raise ConfigError(f"compressed channel count must be positive, got {self.c_mid}")

    @property
    def kernel_area(self) -> int:
        return self.k_up * self.k_up


@dataclass
class KernelPredictorParams:
    comp_w: Tensor  # 1x1 conv, C -> c_mid
    comp_b: Tensor
    enc_w: Tensor  # k_enc x k_enc conv, c_mid -> sigma^2 * k_up^2
    enc_b: Tensor

    @staticmethod
    def create(source: ParamSource, name: str, channels: int, config: UpsampleConfig) -> "KernelPredictorParams":
        k, c_mid, out_ch = config.k_encoder, config.c_mid, config.sigma**2 * config.kernel_area
        return KernelPredictorParams(
            comp_w=source.param(f"{name}.comp.w", (1, 1, channels, c_mid), conv_trunc_normal),
            comp_b=source.param(f"{name}.comp.b", (c_mid,), zeros),
            enc_w=source.param(f"{name}.enc.w", (k, k, c_mid, out_ch), conv_trunc_normal),
            enc_b=source.param(f"{name}.enc.b", (out_ch,), zeros),
        )


def predict_kernels(x: Tensor, params: KernelPredictorParams, config: UpsampleConfig) -> Tensor:
    """Compress, encode, split into kernels, normalize.

    Returns the source-major kernel field [..., H, W, sigma^2, k_up^2]: the
    kernel of output pixel (i*sigma + di, j*sigma + dj) is
    field[i, j, di*sigma + dj], and each kernel sums to one.  Kernel slot
    (n+r)*k_up + (m+r) weighs the source neighbor at row offset n, column
    offset m (r = k_up//2).  Encoder channel (di*sigma + dj)*k_up^2 + slot
    feeds that kernel slot; row-major, frozen for checkpoints.
    """
    if x.ndim < 3:
        raise DimensionError(f"predict_kernels expects [..., H,W,C], got {x.shape}")
    if params.comp_w.shape[2] != x.shape[-1]:
        raise DimensionError(f"compressor expects C={params.comp_w.shape[2]}, input has {x.shape[-1]}")
    compressed = conv2d(x, params.comp_w, params.comp_b)
    return conv2d_softmax(compressed, params.enc_w, params.enc_b, config.kernel_area, padding=config.k_encoder // 2)


def reassemble(x: Tensor, field: Tensor, config: UpsampleConfig, bias: Optional[Tensor] = None) -> Tensor:
    """Weighted neighborhood sums: [..., H,W,C] + kernel field ->
    [..., sigma*H, sigma*W, C], plus bias [C] if given.

    One ``tensor.reassemble`` entry: each source pixel runs one
    [sigma^2, k^2] x [k^2, C] matmul, so the upsampled neighborhood
    [sigma*H, sigma*W, k^2, C] is never built, and the tape keeps neither
    the source neighborhoods nor the unshuffled product.
    """
    expect = (*x.shape[:-1], config.sigma**2, config.kernel_area)
    if field.shape != expect:
        raise DimensionError(f"kernel field shape {field.shape} != {expect}")
    return tensor.reassemble(x, field, bias)


def carafe_upsample(x: Tensor, params: KernelPredictorParams, config: UpsampleConfig) -> Tensor:
    return reassemble(x, predict_kernels(x, params, config), config)


def bilinear_field(h: int, w: int, sigma: int, dtype) -> np.ndarray:
    """The [h, w, sigma^2, 9] field of bilinear upsampling by sigma: output
    row i*sigma + di samples source row (i*sigma + di + 0.5)/sigma - 0.5
    (half-pixel centres), clamped to the edges, within half a pixel of row
    i, so its weights sit on offsets -1, 0, +1.  Columns alike; each kernel
    is the outer product of its row and column weights and sums to one."""

    def weights(n):  # [n, sigma, 3]: the weights of offsets -1, 0, +1
        src = np.clip((np.arange(n * sigma) + 0.5) / sigma - 0.5, 0, n - 1).reshape(n, sigma, 1)
        return np.maximum(0.0, 1.0 - np.abs(src - np.arange(n).reshape(n, 1, 1) - np.arange(-1, 2)))

    field = weights(h)[:, None, :, None, :, None] * weights(w)[None, :, None, :, None, :]  # [h, w, di, dj, a, b]
    return field.reshape(h, w, sigma * sigma, 9).astype(dtype)
