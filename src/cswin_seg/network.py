"""The full U-shaped segmentation network.

A 7x7/stride-4 convolutional token embedding feeds four encoder stages of
cross-window transformer blocks; a 3x3/stride-2 conv between stages halves
resolution and doubles channels.  The decoder mirrors the encoder (same
depths, same stripe widths per stage): blocks, then a 2x upsample with a
1x1 channel-halving conv, then optional fusion with the encoder skip at
that scale (channel concat + 1x1 reduction).  A final 4x upsample and a
per-pixel linear classifier produce logits at input resolution.  With
CARAFE or bilinear, each 1x1 conv after an upsample runs before it (``Model.upsample_project``).

Channel widths are C, 2C, 4C, 8C at scales 1/4, 1/8, 1/16, 1/32.  Skip
connections sit at 1/4, 1/8 and 1/16 and are dropped coarsest-first when
fewer than three are configured.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import carafe
from .atomic import write_atomic
from .attention import AttentionConfig, CSWinBlockParams, cswin_block
from .carafe import KernelPredictorParams, UpsampleConfig
from .errors import ConfigError, DimensionError
from .initializers import ParamSource, conv_trunc_normal, seeded, zeros
from .tensor import (
    Tensor,
    add,
    concat,
    conv2d,
    matmul,
    permute,
    pixel_shuffle,
    reshape,
)

UPSAMPLERS = ("carafe", "bilinear", "transposed_conv")
NUM_STAGES = 4


@dataclass
class NetworkConfig:
    input_size: int = 224
    in_channels: int = 3
    num_classes: int = 9
    embed_dim: int = 64
    depths: tuple[int, ...] = (1, 2, 9, 1)
    stripe_widths: tuple[int, ...] = (1, 2, 7, 7)
    heads: tuple[int, ...] = (2, 4, 8, 16)
    mlp_ratio: int = 4
    skip_connections: int = 3
    upsampler: str = "carafe"
    lepe_enabled: bool = False
    carafe_k_up: int = 5
    carafe_k_encoder: int = 3
    carafe_c_mid: int = 64

    def __post_init__(self):
        for f in fields(self):  # each value has its default's type; a bool is no int
            v, want = getattr(self, f.name), type(f.default)
            if want is tuple:
                ok = type(v) in (list, tuple) and all(type(n) is int for n in v)
            else:
                ok = type(v) is want
            if not ok:
                kind = "a list of ints" if want is tuple else want.__name__
                raise ConfigError(f"config {f.name} must be {kind}, got {v!r:.40}")
        self.depths = tuple(self.depths)
        self.stripe_widths = tuple(self.stripe_widths)
        self.heads = tuple(self.heads)
        for name in ("input_size", "in_channels", "embed_dim", "carafe_c_mid"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.input_size % 32:
            raise ConfigError(f"input size {self.input_size} not divisible by 32")
        if self.num_classes < 1:
            raise ConfigError("need at least one class")
        for name, seq in (("depths", self.depths), ("stripe_widths", self.stripe_widths), ("heads", self.heads)):
            if len(seq) != NUM_STAGES:
                raise ConfigError(f"{name} must list {NUM_STAGES} stages, got {len(seq)}")
        if not 0 <= self.skip_connections <= 3:
            raise ConfigError(f"skip_connections must be 0..3, got {self.skip_connections}")
        if self.upsampler not in UPSAMPLERS:
            raise ConfigError(f"unknown upsampler {self.upsampler!r}, expected one of {UPSAMPLERS}")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        for name in ("carafe_k_up", "carafe_k_encoder"):
            k = getattr(self, name)
            if k < 1 or k % 2 == 0:
                raise ConfigError(f"{name} must be odd and positive, got {k}")
        for i in range(NUM_STAGES):
            n, sw, dim, res = self.heads[i], self.stripe_widths[i], self.stage_dim(i), self.stage_resolution(i)
            if n < 2 or n % 2:
                raise ConfigError(f"stage {i}: head count must be even and >= 2, got {n}")
            if dim % n:
                raise ConfigError(f"stage {i}: dim {dim} not divisible by {n} heads")
            if sw < 1:
                raise ConfigError(f"stage {i}: stripe_widths entries must be positive, got {sw}")
            if res % sw:
                raise ConfigError(f"stage {i}: stripe width {sw} does not divide resolution {res}")
            if self.depths[i] < 0:
                raise ConfigError(f"stage {i}: negative depth")

    def stage_dim(self, i: int) -> int:
        return self.embed_dim * (1 << i)

    def stage_resolution(self, i: int) -> int:
        return self.input_size // (4 << i)

    def attention_config(self, i: int) -> AttentionConfig:
        return AttentionConfig(
            heads=self.heads[i], sw=self.stripe_widths[i], channels=self.stage_dim(i),
            lepe_enabled=self.lepe_enabled,
        )

    def upsample_config(self, sigma: int) -> UpsampleConfig:
        return UpsampleConfig(
            sigma=sigma, k_up=self.carafe_k_up, k_encoder=self.carafe_k_encoder, c_mid=self.carafe_c_mid
        )

    def skip_enabled(self, step: int) -> bool:
        """Decoder step 0/1/2 lands at scale 1/16, 1/8, 1/4; coarsest dropped first."""
        return self.skip_connections >= 3 - step

    def to_dict(self) -> dict:
        d = asdict(self)
        for k in ("depths", "stripe_widths", "heads"):
            d[k] = list(d[k])
        return d

    @staticmethod
    def from_dict(d: dict) -> "NetworkConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        known = set(NetworkConfig.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return NetworkConfig(**d)

    def save(self, path) -> None:
        write_atomic(path, [(json.dumps(self.to_dict(), indent=2) + "\n").encode()])

    @staticmethod
    def load(path) -> "NetworkConfig":
        with open(path) as f:
            try:
                d = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        return NetworkConfig.from_dict(d)


def default_config(**overrides) -> NetworkConfig:
    """The 224-input configuration the complexity figures are calibrated on."""
    return NetworkConfig(**overrides)


def tiny_config(**overrides) -> NetworkConfig:
    """Desk-scale 64-input configuration; trains and gradchecks in minutes."""
    base = dict(
        input_size=64,
        num_classes=4,
        embed_dim=16,
        depths=(1, 1, 2, 1),
        stripe_widths=(1, 2, 4, 2),
        heads=(2, 2, 4, 4),
        carafe_c_mid=32,
    )
    base.update(overrides)
    return NetworkConfig(**base)


@dataclass
class ConvParams:
    w: Tensor
    b: Tensor

    @staticmethod
    def create(source: ParamSource, name: str, kh: int, kw: int, cin: int, cout: int) -> "ConvParams":
        return ConvParams(
            w=source.param(f"{name}.w", (kh, kw, cin, cout), conv_trunc_normal),
            b=source.param(f"{name}.b", (cout,), zeros),
        )


def transposed_conv_upsample(x: Tensor, w: Tensor, b: Tensor, sigma: int) -> Tensor:
    """Stride-sigma transposed conv with a sigma x sigma kernel (no overlap).

    x is [..., H, W, Cin] and w [sigma, sigma, Cin, Cout]; output pixel
    (sigma*i+a, sigma*j+b) is x[i,j] @ w[a,b].
    """
    *lead, h, wd, c = x.shape
    cout = w.shape[3]
    wf = reshape(permute(w, (2, 0, 1, 3)), (c, sigma * sigma * cout))
    out = matmul(reshape(x, (x.size // c, c)), wf)
    out = pixel_shuffle(reshape(out, (*lead, h, wd, sigma * sigma * cout)), sigma, cout)
    return add(out, b)


class Model:
    """Parameter container plus the forward pass.

    The forward takes one image [H, W, Cin] or a batch [B, H, W, Cin]: every
    layer treats leading axes as a batch, so both run the same code.

    Parameters live in small dataclasses mirroring the architecture, each
    declared once by name to a ``ParamSource``: seeded draws for ``create``,
    a checkpoint's stored arrays for ``checkpoint.restore_model``.  The
    declared (name, tensor) pairs, in declaration order, are the registry
    that checkpoints, the optimizer and counting read.
    """

    def __init__(self, config: NetworkConfig, source: ParamSource):
        self.config = config
        cfg = config
        c = cfg.embed_dim
        first = len(source.named)

        def stage(part: str, i: int) -> list[CSWinBlockParams]:
            acfg, depth = cfg.attention_config(i), cfg.depths[i]
            return [CSWinBlockParams.create(source, f"{part}.s{i}.b{j}", acfg, cfg.mlp_ratio) for j in range(depth)]

        self.embed = ConvParams.create(source, "embed", 7, 7, cfg.in_channels, c)
        self.enc_stages = [stage("enc", i) for i in range(NUM_STAGES)]
        self.down = [
            ConvParams.create(source, f"down{i}", 3, 3, cfg.stage_dim(i), cfg.stage_dim(i + 1)) for i in range(3)
        ]
        self.dec_stages = [stage("dec", i) for i in range(NUM_STAGES)]
        # decoder step d: upsample from dim 8C/2^d, then halve channels
        self.ups: list[Optional[KernelPredictorParams | ConvParams]] = []
        self.halve: list[ConvParams] = []
        self.fuse: list[Optional[ConvParams]] = []
        for d in range(3):
            src = cfg.stage_dim(3 - d)
            dst = src // 2
            self.ups.append(self._make_upsampler(source, f"up{d}", src, sigma=2))
            self.halve.append(ConvParams.create(source, f"halve{d}", 1, 1, src, dst))
            fuse = ConvParams.create(source, f"fuse{d}", 1, 1, 2 * dst, dst) if cfg.skip_enabled(d) else None
            self.fuse.append(fuse)
        self.head_up = self._make_upsampler(source, "head.up", c, sigma=4)
        self.classifier = ConvParams.create(source, "head.cls", 1, 1, c, cfg.num_classes)
        self._named = source.named[first:]

    def _make_upsampler(self, source: ParamSource, name: str, channels: int, sigma: int):
        kind = self.config.upsampler
        if kind == "carafe":
            return KernelPredictorParams.create(source, name, channels, self.config.upsample_config(sigma))
        if kind == "transposed_conv":
            return ConvParams.create(source, name, sigma, sigma, channels, channels)
        return None  # bilinear has no parameters

    @staticmethod
    def create(config: NetworkConfig, seed: int = 0, dtype: str = "f32") -> "Model":
        return Model(config, seeded(np.random.default_rng(seed), dtype))

    # -- parameter registry ----------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._named)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    # -- forward ----------------------------------------------------------------

    def token_embed(self, image: Tensor) -> Tensor:
        h, w, cin = image.shape[-3:]
        if h % 4 or w % 4:
            raise ConfigError(f"image extent {h}x{w} not divisible by 4")
        if cin != self.config.in_channels:
            raise DimensionError(f"image has {cin} channels, config says {self.config.in_channels}")
        return conv2d(image, self.embed.w, self.embed.b, stride=4, padding=3)

    def downsample(self, x: Tensor, i: int) -> Tensor:
        h, w, _ = x.shape[-3:]
        if h % 2 or w % 2:
            raise ConfigError(f"cannot halve odd extent {h}x{w}")
        return conv2d(x, self.down[i].w, self.down[i].b, stride=2, padding=1)

    def encode(self, tokens: Tensor) -> tuple[Tensor, list[Tensor]]:
        cfg = self.config
        skips: list[Tensor] = []
        x = tokens
        for i in range(NUM_STAGES):
            acfg = cfg.attention_config(i)
            for blk in self.enc_stages[i]:
                x = cswin_block(x, blk, acfg)
            if i < 3:
                skips.append(x)
                x = self.downsample(x, i)
                assert x.shape[-3:] == (cfg.stage_resolution(i + 1), cfg.stage_resolution(i + 1), cfg.stage_dim(i + 1))
        return x, skips

    def upsample_project(self, x: Tensor, up, proj: ConvParams, sigma: int) -> Tensor:
        """Upsample x by sigma with the upsampler params ``up``, then the 1x1 conv ``proj``.

        CARAFE and bilinear reassemble under a predicted and a fixed kernel
        field; reassembly is linear in its input, so the conv runs first, at
        the source resolution, and the reassembly adds its bias (on border
        pixels the in-bounds kernel mass is below one, so the conv must
        not).  The transposed conv keeps the order.
        """
        kind = self.config.upsampler
        if kind == "transposed_conv":
            return conv2d(transposed_conv_upsample(x, up.w, up.b, sigma), proj.w, proj.b)
        if kind == "carafe":
            cfg = self.config.upsample_config(sigma)
            field = carafe.predict_kernels(x, up, cfg)
        else:  # bilinear: a fixed field, broadcast over the leading axes
            cfg, field = UpsampleConfig(sigma, k_up=3), carafe.bilinear_field(*x.shape[-3:-1], sigma, x.data.dtype)
            field = Tensor(np.broadcast_to(field, (*x.shape[:-1], *field.shape[-2:])))
        return carafe.reassemble(conv2d(x, proj.w), field, cfg, bias=proj.b)

    def skip_fuse(self, up: Tensor, skip: Tensor, conv: ConvParams) -> Tensor:
        if up.shape != skip.shape:
            raise DimensionError(f"skip fusion shapes differ: {up.shape} vs {skip.shape}")
        return conv2d(concat([up, skip], axis=-1), conv.w, conv.b)

    def decode(self, bottleneck: Tensor, skips: list[Tensor]) -> Tensor:
        cfg = self.config
        x = bottleneck
        for blk in self.dec_stages[3]:
            x = cswin_block(x, blk, cfg.attention_config(3))
        for d in range(3):
            stage = 2 - d  # stage whose blocks run after this upsample
            x = self.upsample_project(x, self.ups[d], self.halve[d], sigma=2)
            if self.fuse[d] is not None:
                x = self.skip_fuse(x, skips[stage], self.fuse[d])
            acfg = cfg.attention_config(stage)
            for blk in self.dec_stages[stage]:
                x = cswin_block(x, blk, acfg)
            res = cfg.stage_resolution(stage)
            assert x.shape[-3:] == (res, res, cfg.stage_dim(stage))
        return x

    def head(self, feats: Tensor) -> Tensor:
        return self.upsample_project(feats, self.head_up, self.classifier, sigma=4)

    def forward(self, image: Tensor) -> Tensor:
        """Logits [..., S, S, K] of images [..., S, S, Cin]."""
        cfg = self.config
        if image.ndim not in (3, 4) or image.shape[-3:-1] != (cfg.input_size, cfg.input_size):
            raise DimensionError(f"image {image.shape} is not [S,S,C] or [B,S,S,C] with input size S={cfg.input_size}")
        tokens = self.token_embed(image)
        bottleneck, skips = self.encode(tokens)
        feats = self.decode(bottleneck, skips)
        logits = self.head(feats)
        assert logits.shape == image.shape[:-1] + (cfg.num_classes,)
        return logits
