"""Content-aware reassembly upsampling.

Each output pixel gets its own k_up x k_up kernel, predicted from the
input features (1x1 channel compressor, then a context-encoder conv with
sigma^2 * k_up^2 output channels: sigma^2 kernels per source pixel, one
for each output pixel it covers).  Kernels are softmax-normalized, then the
output pixel is the kernel-weighted sum of the k_up x k_up neighborhood
around its source pixel (i, j) = (floor(i'/sigma), floor(j'/sigma)).

The kernel field is a reshape of the encoder output, normalized by core
ops.  Reassembly is one primitive, ``tensor.reassemble``: each source
pixel's neighborhood meets its sigma^2 kernels in one batched matmul, and
the sigma^2 outputs go to space as a pixel shuffle would put them.  The tape
keeps only the input and the field; backward gathers the neighborhoods
again, band by band.  Out-of-bounds neighbors contribute zero, in the
encoder conv and in the reassembly alike.  Channel count is preserved; any
channel change is the caller's business (the network follows each upsample
with a 1x1 conv).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor
from .errors import ConfigError, DimensionError
from .initializers import ParamSource, conv_trunc_normal, zeros
from .tensor import Tensor, conv2d, reshape, softmax


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

    Returns the source-major kernel field [H, W, sigma^2, k_up^2]: the
    kernel of output pixel (i*sigma + di, j*sigma + dj) is
    field[i, j, di*sigma + dj], and each kernel sums to one.  Kernel slot
    (n+r)*k_up + (m+r) weighs the source neighbor at row offset n, column
    offset m (r = k_up//2).  Encoder channel (di*sigma + dj)*k_up^2 + slot
    feeds that kernel slot; row-major, frozen for checkpoints.
    """
    if x.ndim != 3:
        raise DimensionError(f"predict_kernels expects [H,W,C], got {x.shape}")
    if params.comp_w.shape[2] != x.shape[2]:
        raise DimensionError(f"compressor expects C={params.comp_w.shape[2]}, input has {x.shape[2]}")
    h, w, _ = x.shape
    compressed = conv2d(x, params.comp_w, params.comp_b)
    logits = conv2d(compressed, params.enc_w, params.enc_b, padding=config.k_encoder // 2)
    return softmax(reshape(logits, (h, w, config.sigma**2, config.kernel_area)), axis=-1)


def reassemble(x: Tensor, field: Tensor, config: UpsampleConfig) -> Tensor:
    """Weighted neighborhood sums: [H,W,C] + kernel field -> [sigma*H, sigma*W, C].

    One ``tensor.reassemble`` entry: each source pixel runs one
    [sigma^2, k^2] x [k^2, C] matmul, so the upsampled neighborhood
    [sigma*H, sigma*W, k^2, C] is never built, and the tape keeps neither
    the source neighborhoods nor the unshuffled product.
    """
    h, w, _ = x.shape
    expect = (h, w, config.sigma**2, config.kernel_area)
    if field.shape != expect:
        raise DimensionError(f"kernel field shape {field.shape} != {expect}")
    return tensor.reassemble(x, field)


def carafe_upsample(x: Tensor, params: KernelPredictorParams, config: UpsampleConfig) -> Tensor:
    return reassemble(x, predict_kernels(x, params, config), config)
