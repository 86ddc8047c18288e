"""Parameter and analytic FLOP counting.

Parameters are summed over the shapes the model's constructors declare, so
the architecture is declared once.  FLOPs are exact functions of the
configuration that count one multiply-accumulate as one FLOP, the
convention the published complexity figures for this family of models use.
Only matrix products and convolutions are counted; normalization, softmax
and activations are ignored.  Bilinear upsampling is counted as the
reassembly it runs, CARAFE's with fixed 3x3 kernels.  Each layer kind has
one formula, which ``flops_breakdown`` sums over the network.

The count is the architecture's: each upsample, then its 1x1 conv, the
order the published figures assume.  With CARAFE (and bilinear) the network
runs each of those convs before its reassembly, at the source resolution
(``network.Model.upsample_project``), so it executes fewer MACs than
counted here.  At the default config a forward executes 11.3 instead of
80.3 MMAC of head reassembly, 1.8 instead of 28.9 in the classifier, 8.8
instead of 17.6 in the decoder's reassemblies and 19.3 instead of 77.1 in
the channel-halving convs: 5.41 instead of 5.57 GMAC in all.  A check of
runtime MACs against these formulas must count the upsamplers in the
order the network runs them.

Reference targets for the default 224 configuration: 23.57M parameters,
4.72G FLOPs.
"""

from __future__ import annotations

import numpy as np

from .initializers import ParamSource
from .network import Model, NetworkConfig

REFERENCE_PARAMS = 23.57e6
REFERENCE_FLOPS = 4.72e9
CALIBRATION_TOLERANCE = 0.20


# the leading word of each declared parameter name -> its breakdown part
_PARTS = {
    "embed": "embed", "enc": "encoder_blocks", "dec": "decoder_blocks", "down": "downsample",
    "up": "upsample", "halve": "channel_halve", "fuse": "skip_fuse", "head": "head",
}


def params_breakdown(cfg: NetworkConfig) -> dict[str, int]:
    """Parameters per part, summed over the shapes the model's constructors
    declare.  The source hands out unwritten ``np.empty`` arrays, so nothing
    is drawn and no page is touched."""
    model = Model(cfg, ParamSource(lambda name, shape, init: np.empty(shape, np.float32)))
    parts = dict.fromkeys(_PARTS.values(), 0)
    for name, t in model.named_parameters():
        parts[_PARTS[name.split(".")[0].rstrip("0123456789")]] += t.size
    return parts


def count_params(cfg: NetworkConfig) -> int:
    return sum(params_breakdown(cfg).values())


# -- FLOPs ----------------------------------------------------------------------


def stripe_attention_macs(h: int, w: int, dim: int, sw: int) -> int:
    """Score and value products for both stripe groups over an H x W map.

    Per horizontal stripe of T = sw*W tokens each of the N/2 group heads
    costs 2*T^2*d, so the group totals (H/sw) * (N/2) * 2*T^2 * (C/N)
    = sw*C*H*W*W; the vertical group mirrors it.
    """
    return sw * dim * h * w * (h + w)


def attention_projection_macs(h: int, w: int, dim: int) -> int:
    """QKV and output projections, identical for stripe and dense attention."""
    return 4 * h * w * dim * dim


def _block_macs(res: int, dim: int, sw: int, mlp_ratio: int, lepe: bool) -> int:
    tokens = res * res
    proj = attention_projection_macs(res, res, dim)
    mlp = 2 * mlp_ratio * tokens * dim * dim
    attn = stripe_attention_macs(res, res, dim, sw)
    lepe_k = 9 * tokens * dim if lepe else 0
    return proj + mlp + attn + lepe_k


def _conv_macs(k: int, cin: int, cout: int, out_res: int) -> int:
    return k * k * cin * cout * out_res * out_res


def _upsampler_macs(channels: int, sigma: int, in_res: int, cfg: NetworkConfig) -> tuple[int, int]:
    """(conv MACs, reassembly/resample MACs) of one upsampler application."""
    out_res = sigma * in_res
    if cfg.upsampler == "carafe":
        kernels = sigma * sigma * cfg.carafe_k_up**2
        conv = _conv_macs(1, channels, cfg.carafe_c_mid, in_res)
        conv += _conv_macs(cfg.carafe_k_encoder, cfg.carafe_c_mid, kernels, in_res)
        return conv, out_res * out_res * cfg.carafe_k_up**2 * channels
    if cfg.upsampler == "transposed_conv":
        return out_res * out_res * channels * channels, 0
    return 0, out_res * out_res * 9 * channels  # bilinear: CARAFE's reassembly with fixed 3x3 kernels


def flops_breakdown(cfg: NetworkConfig) -> dict[str, int]:
    c = cfg.embed_dim
    res0 = cfg.input_size // 4
    parts = {"conv": _conv_macs(7, cfg.in_channels, c, res0), "blocks": 0, "upsample": 0}
    for i in range(4):  # encoder + mirrored decoder
        res, dim = cfg.stage_resolution(i), cfg.stage_dim(i)
        parts["blocks"] += 2 * cfg.depths[i] * _block_macs(res, dim, cfg.stripe_widths[i], cfg.mlp_ratio, cfg.lepe_enabled)
    for i in range(3):
        parts["conv"] += _conv_macs(3, cfg.stage_dim(i), cfg.stage_dim(i + 1), cfg.stage_resolution(i + 1))
    for d in range(3):
        src = cfg.stage_dim(3 - d)
        dst = src // 2
        in_res = cfg.stage_resolution(3 - d)
        out_res = 2 * in_res
        conv, resample = _upsampler_macs(src, 2, in_res, cfg)
        parts["conv"] += conv
        parts["upsample"] += resample
        parts["conv"] += _conv_macs(1, src, dst, out_res)
        if cfg.skip_enabled(d):
            parts["conv"] += _conv_macs(1, 2 * dst, dst, out_res)
    conv, resample = _upsampler_macs(c, 4, res0, cfg)
    parts["conv"] += conv
    parts["upsample"] += resample
    parts["conv"] += _conv_macs(1, c, cfg.num_classes, cfg.input_size)
    return parts


def count_flops(cfg: NetworkConfig) -> int:
    return sum(flops_breakdown(cfg).values())


def within_reference(cfg: NetworkConfig) -> tuple[bool, float, float]:
    """Check the config against the published complexity figures.

    Returns (ok, param_ratio, flop_ratio) with ratios relative to the
    reference values; ok means both lie within CALIBRATION_TOLERANCE.
    """
    p = count_params(cfg) / REFERENCE_PARAMS
    f = count_flops(cfg) / REFERENCE_FLOPS
    ok = abs(p - 1.0) <= CALIBRATION_TOLERANCE and abs(f - 1.0) <= CALIBRATION_TOLERANCE
    return ok, p, f
