"""The finite-difference check suite behind `gradcheck` and the acceptance
run: every differentiable primitive, the full transformer block, the
content-aware upsampler, the losses, and (optionally) the tiny end-to-end
network, probing its largest-gradient coordinates.

`CASES` is one table of independent cases.  Each maps a name to a builder
``build(rng) -> (loss_fn, named_inputs)`` and runs on its own generator,
seeded from the suite seed and the case's name, so adding, removing or
reordering cases leaves every other case's draws unchanged.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import partial

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


def _probe(rng, shape):
    return Tensor(rng.uniform(-1, 1, shape), dtype="f64", requires_grad=True)


def _weighted(rng, fn, args):
    """Loss sum(fn(*args) * w) with fixed uniform weights w drawn after the inputs."""
    shape = fn(*args).shape
    # small-magnitude weighting keeps the probe loss O(0.1) so FD round-off
    # stays irrelevant next to the 1e-4 tolerance
    w = Tensor(rng.uniform(-1, 1, shape) * (1.0 / np.prod(shape)), dtype="f64")
    return lambda: tsum(fn(*args) * w)


def _op(fn, shapes):
    """A primitive (or small composition) of probes named and drawn in argument order."""

    def build(rng):
        named = [(name, _probe(rng, shape)) for name, shape in shapes.items()]
        return _weighted(rng, fn, [t for _, t in named]), named

    return build


def _layer(make, x_shape):
    """``make(source) -> layer(x)``: parameters from a seeded source, then x."""

    def build(rng):
        src = seeded(rng, "f64")
        layer = make(src)
        x = _probe(rng, x_shape)
        return _weighted(rng, layer, [x]), [("x", x)] + src.named

    return build


def _loss(fn, lead=()):
    """A segmentation loss of [*lead, 4, 4, 3] logits against 3-class labels."""

    def build(rng):
        labels = rng.integers(0, 3, (*lead, 4, 4))
        logits = _probe(rng, (*lead, 4, 4, 3))
        return lambda: fn(logits, labels), [("logits", logits)]

    return build


def _block(**kw):
    cfg = AttentionConfig(heads=2, sw=2, channels=4, **kw)

    def make(src):
        params = CSWinBlockParams.create(src, "blk", cfg, mlp_ratio=2)
        return lambda x: cswin_block(x, params, cfg)

    return make


def _carafe(src):
    cfg = UpsampleConfig(sigma=2, k_up=3, c_mid=3)
    params = KernelPredictorParams.create(src, "up", 4, cfg)
    return lambda x: carafe_upsample(x, params, cfg)


def _broadcast(a, b):
    two = Tensor(np.full((4,), 2.0))
    return T.mul(T.mul(T.add(a, b), a), T.add(T.mul(b, b), two))


def _structural(x):
    y = T.reshape(T.permute(x, (2, 0, 1)), (2, 12))
    return T.concat([y, T.reshape(x, (2, 12))], axis=0)


def _residual_stripe(sw):
    return lambda x, gamma, beta, wqkv, wo, lepe=None: T.residual_stripe_attention(x, gamma, beta, wqkv, wo, lepe, sw)


# 4 heads, two per group, on a map whose sides differ, so a mix-up of the
# two groups' geometries shows
_STRIPE = {"x": (4, 6, 8), "wqkv": (2, 6, 8, 2), "wo": (8, 8)}
_STRIPE_LEPE = {**_STRIPE, "lepe": (2, 2, 3, 3, 2)}
_NORM = {"x": (4, 6, 8), "gamma": (8,), "beta": (8,)}
_CONV = partial(T.conv2d, stride=2, padding=1)


def _batch2(shapes):
    """The same operands with a leading batch axis of 2 on x."""
    return {name: (2, *shape) if name == "x" else shape for name, shape in shapes.items()}


CASES = {
    "matmul": _op(T.matmul, {"a": (4, 3), "b": (3, 5)}),
    "matmul_batched": _op(T.matmul, {"a": (6, 4, 3), "b": (3, 2)}),
    "add_mul_broadcast": _op(_broadcast, {"a": (5, 4), "b": (4,)}),
    "conv2d_softmax": _op(partial(T.conv2d_softmax, slots=3, padding=1), {"x": (4, 5, 2), "w": (3, 3, 2, 6), "b": (6,)}),
    "conv2d": _op(_CONV, {"x": (6, 6, 2), "w": (3, 3, 2, 4), "b": (4,)}),
    "permute_reshape_concat": _op(_structural, {"x": (3, 4, 2)}),
    "matmul_shared_batch": _op(T.matmul, {"a": (2, 3, 4, 9), "b": (2, 3, 9, 2)}),
    "transposed_conv_upsample": _op(
        partial(transposed_conv_upsample, sigma=2), {"x": (3, 3, 4), "w": (2, 2, 4, 4), "b": (4,)}
    ),
    "cswin_block": _layer(_block(), (4, 4, 4)),
    "cswin_block_lepe": _layer(_block(lepe_enabled=True), (4, 2, 4)),
    "carafe_upsample": _layer(_carafe, (3, 3, 4)),
    "dice_loss": _loss(dice_loss),
    "cross_entropy_loss": _loss(cross_entropy_loss),
    "matmul_2d_batched": _op(T.matmul, {"a": (5, 3), "b": (2, 4, 3, 2)}),
    "conv2d_rect": _op(_CONV, {"x": (5, 6, 2), "w": (2, 3, 2, 3), "b": (3,)}),
    "reassemble": _op(T.reassemble, {"x": (4, 3, 2), "field": (4, 3, 4, 9)}),
    "residual_attention_sw1": _op(_residual_stripe(1), {**_NORM, **_STRIPE}),
    "residual_attention_sw1_lepe": _op(_residual_stripe(1), {**_NORM, **_STRIPE_LEPE}),
    "residual_attention_sw2": _op(_residual_stripe(2), {**_NORM, **_STRIPE}),
    "residual_attention_sw2_lepe": _op(_residual_stripe(2), {**_NORM, **_STRIPE_LEPE}),
    "residual_mlp": _op(T.residual_mlp, {**_NORM, "w1": (8, 12), "b1": (12,), "w2": (12, 8), "b2": (8,)}),
    "reassemble_bias": _op(T.reassemble, {"x": (4, 3, 2), "field": (4, 3, 4, 9), "bias": (2,)}),
    # a leading batch axis of 2
    "conv2d_batch2": _op(_CONV, _batch2({"x": (6, 6, 2), "w": (3, 3, 2, 4), "b": (4,)})),
    "reassemble_bias_batch2": _op(T.reassemble, {"x": (2, 4, 3, 2), "field": (2, 4, 3, 4, 9), "bias": (2,)}),
    "residual_attention_sw1_lepe_batch2": _op(_residual_stripe(1), _batch2({**_NORM, **_STRIPE_LEPE})),
    "residual_attention_sw2_batch2": _op(_residual_stripe(2), _batch2({**_NORM, **_STRIPE})),
    "residual_mlp_batch2": _op(T.residual_mlp, _batch2({**_NORM, "w1": (8, 12), "b1": (12,), "w2": (12, 8), "b2": (8,)})),
    "dice_loss_batch2": _loss(dice_loss, lead=(2,)),
    "cross_entropy_loss_batch2": _loss(cross_entropy_loss, lead=(2,)),
}


def _check(name, fn, inputs, **kw) -> CheckResult:
    try:
        report = check_gradients(fn, inputs, **kw)
    except AssertionError as e:
        return CheckResult(f"{name} [{e}]", float("nan"), False)
    return CheckResult(name, max(err for _, err in report), True)


def run_suite(*, full: bool = False, h: float = 1e-5, tol: float = 1e-4, seed: int = 0) -> list[CheckResult]:
    results = []
    for name, build in CASES.items():
        fn, inputs = build(np.random.default_rng([seed, zlib.crc32(name.encode())]))
        results.append(_check(name, fn, inputs, h=h, tol=tol))
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
    return _check("end_to_end_tiny", fn, picked, h=h, tol=tol, max_coords=2)
