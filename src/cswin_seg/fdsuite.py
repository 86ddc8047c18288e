"""The finite-difference check suite behind `gradcheck` and the acceptance
run: every differentiable primitive, the full transformer block, the
content-aware upsampler, the losses, and (optionally) the tiny end-to-end
network, probing its largest-gradient coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionConfig, CSWinBlockParams, cswin_block
from .carafe import KernelPredictorParams, UpsampleConfig, carafe_upsample
from .gradcheck import check_gradients
from .initializers import seeded
from .losses import LossConfig, cross_entropy_loss, dice_loss
from .network import Model, tiny_config, transposed_conv_upsample
from .tensor import Tensor, tsum
from .train import combined_loss


@dataclass
class CheckResult:
    name: str
    max_err: float
    ok: bool


def _probe(rng, shape, dtype="f64"):
    return Tensor(rng.uniform(-1, 1, shape), dtype=dtype, requires_grad=True)


def _weighted(rng, out_shape, scale=None):
    # small-magnitude weighting keeps the probe loss O(0.1) so FD round-off
    # stays irrelevant next to the 1e-4 tolerance
    scale = scale if scale is not None else 1.0 / np.prod(out_shape)
    w = Tensor(rng.uniform(-1, 1, out_shape) * scale, dtype="f64")
    return lambda out: tsum(out * w)


def run_suite(*, full: bool = False, h: float = 1e-5, tol: float = 1e-4, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def run(name, fn, inputs, **kw):
        try:
            report = check_gradients(fn, inputs, h=h, tol=tol, **kw)
            results.append(CheckResult(name, max(err for _, err in report), True))
        except AssertionError as e:
            results.append(CheckResult(f"{name} [{e}]", float("nan"), False))

    a, b = _probe(rng, (4, 3)), _probe(rng, (3, 5))
    w = _weighted(rng, (4, 5))
    run("matmul", lambda: w(T.matmul(a, b)), [("a", a), ("b", b)])

    ab, bb = _probe(rng, (6, 4, 3)), _probe(rng, (3, 2))
    w = _weighted(rng, (6, 4, 2))
    run("matmul_batched", lambda: w(T.matmul(ab, bb)), [("a", ab), ("b", bb)])

    x1, x2 = _probe(rng, (5, 4)), _probe(rng, (4,))
    two = Tensor(np.full((4,), 2.0))
    w = _weighted(rng, (5, 4))
    run(
        "add_mul_broadcast",
        lambda: w(T.mul(T.mul(T.add(x1, x2), x1), T.add(T.mul(x2, x2), two))),
        [("a", x1), ("b", x2)],
    )

    xs = _probe(rng, (6, 7))
    w = _weighted(rng, (6, 7), 0.1)
    run("softmax", lambda: w(T.softmax(xs, axis=-1)), [("x", xs)])

    xn = _probe(rng, (4, 8))
    gam, bet = _probe(rng, (8,)), _probe(rng, (8,))
    w = _weighted(rng, (4, 8), 0.05)
    run("layer_norm", lambda: w(T.layer_norm(xn, gam, bet)), [("x", xn), ("gamma", gam), ("beta", bet)])

    xg = _probe(rng, (9,))
    w = _weighted(rng, (9,), 0.2)
    run("gelu", lambda: w(T.gelu(xg)), [("x", xg)])

    xc = _probe(rng, (6, 6, 2))
    wc = _probe(rng, (3, 3, 2, 4))
    bc = _probe(rng, (4,))
    w = _weighted(rng, (3, 3, 4))
    run(
        "conv2d",
        lambda: w(T.conv2d(xc, wc, bc, stride=2, padding=1)),
        [("x", xc), ("w", wc), ("b", bc)],
    )

    xd = _probe(rng, (5, 5, 3))
    wd = _probe(rng, (3, 3, 3))
    w = _weighted(rng, (5, 5, 3))
    run("depthwise_conv2d", lambda: w(T.depthwise_conv2d(xd, wd, padding=1)), [("x", xd), ("w", wd)])

    xp = _probe(rng, (4, 5, 3))
    w = _weighted(rng, (4, 5, 9, 3))
    run("patches", lambda: w(T.patches(xp, 3, 3, padding=1)), [("x", xp)])

    xt = _probe(rng, (3, 4, 2))
    w = _weighted(rng, (2, 12))

    def structural():
        y = T.permute(xt, (2, 0, 1))
        y = T.reshape(y, (2, 12))
        lo, hi = T.split(y, [5, 7], axis=1)
        return w(T.concat([lo, hi], axis=1))

    run("permute_reshape_split_concat", structural, [("x", xt)])

    mb, ma = _probe(rng, (2, 3, 9, 2)), _probe(rng, (2, 3, 4, 9))  # b before a: later entries depend on this draw order
    w = _weighted(rng, (2, 3, 4, 2))
    run("matmul_shared_batch", lambda: w(T.matmul(ma, mb)), [("a", ma), ("b", mb)])

    xb2 = _probe(rng, (3, 4, 2))
    w = _weighted(rng, (6, 8, 2))
    run("upsample_bilinear", lambda: w(T.upsample_bilinear(xb2, 2)), [("x", xb2)])

    xtc = _probe(rng, (3, 3, 4))
    wtc = _probe(rng, (2, 2, 4, 4))
    btc = _probe(rng, (4,))
    w = _weighted(rng, (6, 6, 4))
    run(
        "transposed_conv_upsample",
        lambda: w(transposed_conv_upsample(xtc, wtc, btc, 2)),
        [("x", xtc), ("w", wtc), ("b", btc)],
    )

    acfg = AttentionConfig(heads=2, sw=2, channels=4)
    blk_src = seeded(rng, "f64")
    blk = CSWinBlockParams.create(blk_src, "blk", acfg, mlp_ratio=2)
    xblk = _probe(rng, (4, 4, 4))
    w = _weighted(rng, (4, 4, 4))
    run(
        "cswin_block",
        lambda: w(cswin_block(xblk, blk, acfg)),
        [("x", xblk)] + blk_src.named,
    )

    acfg_lepe = AttentionConfig(heads=2, sw=2, channels=4, lepe_enabled=True)
    lepe_src = seeded(rng, "f64")
    blk_lepe = CSWinBlockParams.create(lepe_src, "blk", acfg_lepe, mlp_ratio=2)
    xlep = _probe(rng, (4, 2, 4))
    w = _weighted(rng, (4, 2, 4))
    run(
        "cswin_block_lepe",
        lambda: w(cswin_block(xlep, blk_lepe, acfg_lepe)),
        [("x", xlep)] + lepe_src.named,
    )

    ucfg = UpsampleConfig(sigma=2, k_up=3, c_mid=3)
    up_src = seeded(rng, "f64")
    upar = KernelPredictorParams.create(up_src, "up", 4, ucfg)
    xcar = _probe(rng, (3, 3, 4))
    w = _weighted(rng, (6, 6, 4))
    run(
        "carafe_upsample",
        lambda: w(carafe_upsample(xcar, upar, ucfg)),
        [("x", xcar)] + up_src.named,
    )

    labels = rng.integers(0, 3, (4, 4))
    ld = _probe(rng, (4, 4, 3))
    run("dice_loss", lambda: dice_loss(ld, labels), [("logits", ld)])
    lc = _probe(rng, (4, 4, 3))
    run("cross_entropy_loss", lambda: cross_entropy_loss(lc, labels), [("logits", lc)])

    xli, wli, bli = _probe(rng, (2, 3, 4)), _probe(rng, (4, 5)), _probe(rng, (5,))
    w = _weighted(rng, (2, 3, 5))
    run("linear", lambda: w(T.linear(xli, wli, bli)), [("x", xli), ("w", wli), ("b", bli)])

    a2, bb3 = _probe(rng, (5, 3)), _probe(rng, (2, 4, 3, 2))
    w = _weighted(rng, (2, 4, 5, 2))
    run("matmul_2d_batched", lambda: w(T.matmul(a2, bb3)), [("a", a2), ("b", bb3)])

    xpb = _probe(rng, (2, 5, 4, 2))
    w = _weighted(rng, (2, 3, 2, 9, 2))
    run("patches_batched", lambda: w(T.patches(xpb, 3, 3, stride=2, padding=1)), [("x", xpb)])

    xdb, wdb = _probe(rng, (2, 3, 4, 3, 2)), _probe(rng, (2, 1, 3, 3, 2))
    w = _weighted(rng, (2, 3, 4, 3, 2))
    run("depthwise_conv2d_batched", lambda: w(T.depthwise_conv2d(xdb, wdb, padding=1)), [("x", xdb), ("w", wdb)])

    qkv = _probe(rng, (3, 2, 5, 3))
    w = _weighted(rng, (2, 5, 3))
    run("attention", lambda: w(T.attention(qkv)), [("qkv", qkv)])

    xcr, wcr, bcr = _probe(rng, (5, 6, 2)), _probe(rng, (2, 3, 2, 3)), _probe(rng, (3,))
    w = _weighted(rng, (3, 3, 3))
    run("conv2d_rect", lambda: w(T.conv2d(xcr, wcr, bcr, stride=2, padding=1)), [("x", xcr), ("w", wcr), ("b", bcr)])

    xra, fra = _probe(rng, (4, 3, 2)), _probe(rng, (4, 3, 4, 9))
    w = _weighted(rng, (8, 6, 2))
    run("reassemble", lambda: w(T.reassemble(xra, fra)), [("x", xra), ("field", fra)])

    if full:
        results.append(end_to_end_check(h=h, tol=tol, seed=seed))
    return results


def end_to_end_check(*, h: float = 1e-5, tol: float = 1e-4, seed: int = 0) -> CheckResult:
    """Finite differences through the whole tiny network in f64.

    Every parameter tensor receives analytic gradients; FD probing takes the
    two largest coordinates of every third tensor (plus the embedding and
    classifier) to keep the runtime in minutes.
    """
    rng = np.random.default_rng(seed)
    model = Model.create(tiny_config(), seed=seed, dtype="f64")
    image = Tensor(rng.uniform(0.0, 1.0, (64, 64, 3)), dtype="f64", requires_grad=True)
    labels = rng.integers(0, 4, (64, 64))
    loss_cfg = LossConfig()

    def fn():
        return combined_loss(model.forward(image), labels, loss_cfg)[0]

    named = model.named_parameters()
    picked = [("image", image)] + named[::3]
    for name, t in named:
        if name in ("embed.w", "head.cls.w") and all(n != name for n, _ in picked):
            picked.append((name, t))
    try:
        report = check_gradients(fn, picked, h=h, tol=tol, max_coords=2)
        return CheckResult("end_to_end_tiny", max(err for _, err in report), True)
    except AssertionError as e:
        return CheckResult(f"end_to_end_tiny [{e}]", float("nan"), False)
