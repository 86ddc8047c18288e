import json
import math
import tracemalloc

import numpy as np
import pytest

from cswin_seg import complexity
from cswin_seg.errors import ConfigError, DimensionError
from cswin_seg.losses import LossConfig
from cswin_seg.network import (
    ConvParams,
    Model,
    NetworkConfig,
    default_config,
    tiny_config,
    transposed_conv_upsample,
)
from cswin_seg.tensor import Tape, Tensor, backward, tsum, upsample_bilinear
from cswin_seg.train import combined_loss


def micro_config(**overrides):
    # smallest legal network: 32 input, 8-dim embedding
    base = dict(
        input_size=32,
        num_classes=3,
        embed_dim=8,
        depths=(1, 1, 1, 1),
        stripe_widths=(1, 2, 2, 1),
        heads=(2, 2, 2, 2),
        carafe_c_mid=4,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestConfig:
    def test_default_is_valid(self):
        cfg = default_config()
        assert [cfg.stage_dim(i) for i in range(4)] == [64, 128, 256, 512]
        assert [cfg.stage_resolution(i) for i in range(4)] == [56, 28, 14, 7]

    def test_indivisible_input_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(input_size=100)

    @pytest.mark.parametrize("field,value", [("input_size", 0), ("in_channels", 0), ("embed_dim", 0), ("embed_dim", -64)])
    def test_non_positive_size_rejected(self, field, value):
        # each of these passed the divisibility checks, and Model.create then
        # failed with a bare ZeroDivisionError or ValueError
        with pytest.raises(ConfigError, match=f"{field} must be positive"):
            NetworkConfig(**{field: value})

    def test_stripe_width_must_divide_resolution(self):
        with pytest.raises(ConfigError):
            NetworkConfig(input_size=224, stripe_widths=(1, 2, 5, 7))

    def test_odd_heads_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(heads=(3, 4, 8, 16))

    def test_unknown_upsampler_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(upsampler="pixelshuffle")

    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(upsampler="bilinear", skip_connections=2)
        p = tmp_path / "cfg.json"
        cfg.save(p)
        assert NetworkConfig.load(p) == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        d = tiny_config().to_dict()
        d["window_size"] = 7
        p.write_text(json.dumps(d))
        with pytest.raises(ConfigError, match="window_size"):
            NetworkConfig.load(p)

    @pytest.mark.parametrize(
        "field, value",
        [("stripe_widths", (0, 2, 7, 7)), ("stripe_widths", (-1, 2, 7, 7)), ("carafe_k_up", 4),
         ("carafe_k_encoder", 2), ("carafe_c_mid", 0)],
    )
    def test_size_rejected_by_name_before_use(self, field, value):
        # each would otherwise divide by zero, or pass until Model.create
        with pytest.raises(ConfigError, match=field):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("embed_dim", "8"), ("input_size", 64.0), ("mlp_ratio", True), ("depths", 4),
         ("heads", [2, 2, "4", 4]), ("lepe_enabled", 1), ("upsampler", None)],
    )
    def test_value_of_wrong_type_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"config {field} must be"):
            tiny_config(**{field: value})

    def test_config_that_is_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            NetworkConfig.from_dict([["embed_dim", 8]])


class TestShapes:
    def test_token_embed_quarters_resolution(self):
        model = Model.create(micro_config(), seed=0)
        img = Tensor(np.zeros((32, 32, 3), dtype=np.float32))
        assert model.token_embed(img).shape == (8, 8, 8)

    def test_embed_param_count_closed_form(self):
        cfg = micro_config()
        model = Model.create(cfg)
        got = model.embed.w.size + model.embed.b.size
        assert got == 7 * 7 * 3 * cfg.embed_dim + cfg.embed_dim

    def test_downsample_halves_and_doubles(self):
        model = Model.create(micro_config(), seed=0)
        x = Tensor(np.zeros((8, 8, 8), dtype=np.float32))
        assert model.downsample(x, 0).shape == (4, 4, 16)

    def test_encoder_skip_and_bottleneck_shapes(self):
        cfg = tiny_config()
        model = Model.create(cfg, seed=1)
        rng = np.random.default_rng(0)
        tokens = Tensor(rng.standard_normal((16, 16, 16)).astype(np.float32))
        bottleneck, skips = model.encode(tokens)
        assert [s.shape for s in skips] == [(16, 16, 16), (8, 8, 32), (4, 4, 64)]
        assert bottleneck.shape == (2, 2, 128)

    def test_total_encoder_blocks_match_depths(self):
        cfg = default_config()
        model_depths = [len(s) for s in Model.create(tiny_config()).enc_stages]
        assert model_depths == [1, 1, 2, 1]
        assert sum(cfg.depths) == 13

    def test_forward_tiny_shape(self):
        cfg = tiny_config()
        model = Model.create(cfg, seed=2)
        rng = np.random.default_rng(1)
        img = Tensor(rng.uniform(0, 1, (64, 64, 3)).astype(np.float32))
        logits = model.forward(img)
        assert logits.shape == (64, 64, 4)
        assert np.isfinite(logits.data).all()

    def test_argmax_is_valid_mask(self):
        cfg = micro_config()
        model = Model.create(cfg, seed=3)
        rng = np.random.default_rng(2)
        img = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
        mask = model.forward(img).data.argmax(axis=-1)
        assert mask.min() >= 0 and mask.max() < cfg.num_classes

    def test_wrong_input_size_rejected(self):
        model = Model.create(micro_config(), seed=0)
        with pytest.raises(DimensionError):
            model.forward(Tensor(np.zeros((64, 64, 3), dtype=np.float32)))

    def test_single_class_degenerate_head(self):
        cfg = micro_config(num_classes=1)
        model = Model.create(cfg, seed=0)
        rng = np.random.default_rng(7)
        img = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
        logits = model.forward(img)
        assert logits.shape == (32, 32, 1)
        assert (logits.data.argmax(axis=-1) == 0).all()

    def test_full_size_forward(self):
        # the calibrated 224 configuration end to end, once
        cfg = default_config()
        model = Model.create(cfg, seed=0)
        rng = np.random.default_rng(8)
        img = Tensor(rng.uniform(0, 1, (224, 224, 3)).astype(np.float32))
        logits = model.forward(img)
        assert logits.shape == (224, 224, 9)
        assert np.isfinite(logits.data).all()


class TestSkipFuse:
    def _parts(self, c=6):
        rng = np.random.default_rng(3)
        up = Tensor(rng.uniform(-1, 1, (4, 4, c)), dtype="f64")
        skip = Tensor(rng.uniform(-1, 1, (4, 4, c)), dtype="f64")
        return up, skip

    def test_project_up_branch(self):
        up, skip = self._parts()
        w = np.zeros((1, 1, 12, 6))
        w[0, 0, :6, :] = np.eye(6)
        conv = ConvParams(Tensor(w, dtype="f64"), Tensor.zeros((6,), "f64"))
        model = Model.create(micro_config(), seed=0)
        np.testing.assert_allclose(model.skip_fuse(up, skip, conv).data, up.data, atol=1e-12)

    def test_project_skip_branch(self):
        up, skip = self._parts()
        w = np.zeros((1, 1, 12, 6))
        w[0, 0, 6:, :] = np.eye(6)
        conv = ConvParams(Tensor(w, dtype="f64"), Tensor.zeros((6,), "f64"))
        model = Model.create(micro_config(), seed=0)
        np.testing.assert_allclose(model.skip_fuse(up, skip, conv).data, skip.data, atol=1e-12)

    def test_mismatched_shapes_rejected(self):
        model = Model.create(micro_config(), seed=0)
        conv = model.fuse[2]
        with pytest.raises(DimensionError):
            model.skip_fuse(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((8, 8, 2))), conv)


class TestVariants:
    @pytest.mark.parametrize("upsampler", ["carafe", "bilinear", "transposed_conv"])
    def test_upsampler_variants_same_shapes(self, upsampler):
        cfg = micro_config(upsampler=upsampler)
        model = Model.create(cfg, seed=4)
        rng = np.random.default_rng(3)
        img = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
        assert model.forward(img).shape == (32, 32, 3)

    @pytest.mark.parametrize("skips", [0, 1, 2, 3])
    def test_skip_counts_shape_valid(self, skips):
        cfg = micro_config(skip_connections=skips)
        model = Model.create(cfg, seed=5)
        rng = np.random.default_rng(4)
        img = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
        assert model.forward(img).shape == (32, 32, 3)
        assert sum(f is not None for f in model.fuse) == skips

    def test_skips_dropped_coarsest_first(self):
        model = Model.create(micro_config(skip_connections=1), seed=0)
        # step 2 lands at the finest (1/4) scale and must be the survivor
        assert model.fuse[0] is None and model.fuse[1] is None and model.fuse[2] is not None

    def test_transposed_conv_upsample_math(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4)), dtype="f64")
        w = Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)), dtype="f64")
        b = Tensor(rng.uniform(-1, 1, (4,)), dtype="f64")
        out = transposed_conv_upsample(x, w, b, 2)
        assert out.shape == (4, 6, 4)
        for i in range(2):
            for j in range(3):
                for a in range(2):
                    for bb in range(2):
                        want = x.data[i, j] @ w.data[a, bb] + b.data
                        np.testing.assert_allclose(out.data[2 * i + a, 2 * j + bb], want, atol=1e-12)

    def test_lepe_variant_forward(self):
        cfg = micro_config(lepe_enabled=True)
        model = Model.create(cfg, seed=6)
        rng = np.random.default_rng(5)
        img = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
        assert model.forward(img).shape == (32, 32, 3)


class TestGradientsReachEverything:
    def test_backward_populates_all_parameters(self):
        cfg = micro_config()
        model = Model.create(cfg, seed=7)
        rng = np.random.default_rng(6)
        img = Tensor(rng.uniform(0, 1, (32, 32, 3)).astype(np.float32))
        with Tape() as tape:
            loss = tsum(model.forward(img))
        backward(loss, tape)
        for name, t in model.named_parameters():
            assert t.grad is not None, f"no gradient for {name}"
            assert t.grad.shape == t.data.shape

    def test_training_step_memory_bound(self):
        # backward frees each tape entry once its gradient has run and the
        # tape keeps only what gradients read: one taped forward + backward
        # of the tiny model peaks near 8 MiB
        model = Model.create(tiny_config(), seed=0)
        rng = np.random.default_rng(0)
        img = Tensor(rng.uniform(0, 1, (64, 64, 3)).astype(np.float32))
        labels = rng.integers(0, 4, (64, 64))
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = combined_loss(model.forward(img), labels, LossConfig())[0]
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _taped_step(cfg):
    """One taped Dice+CE forward: the tape and the bytes tracemalloc holds
    after it."""
    model = Model.create(cfg, seed=0)
    rng = np.random.default_rng(0)
    s = cfg.input_size
    img = Tensor(rng.uniform(0, 1, (s, s, 3)).astype(np.float32))
    labels = rng.integers(0, cfg.num_classes, (s, s))
    tracemalloc.start()
    try:
        with Tape() as tape:
            combined_loss(model.forward(img), labels, LossConfig())[0]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return tape, held


class TestTapeBudget:
    def test_entries_hold_contiguous_f32_arrays(self):
        # _emit wraps op results without Tensor.__init__'s coercions, so every
        # primitive must hand it a C-contiguous array of its inputs' dtype
        tape, _ = _taped_step(tiny_config())
        for _, out, _, op in tape.entries:
            assert type(out.data) is np.ndarray, op
            assert out.data.dtype == np.float32 and out.data.flags["C_CONTIGUOUS"], op

    def test_entry_counts(self):
        # one attention entry per stripe group and one conv2d entry per conv
        assert len(_taped_step(tiny_config())[0].entries) <= 380
        assert len(_taped_step(default_config())[0].entries) <= 850

    def test_default_forward_memory(self):
        # the tape keeps one L x L probability array per stripe group, and no
        # scores, scaled scores or key transposes
        _, held = _taped_step(default_config())
        assert held <= 300 * 2**20, f"held {held / 2**20:.1f} MiB after forward"


def _step_memory(cfg):
    """One taped Dice+CE step: the bytes tracemalloc holds after the forward,
    and its peak during backward."""
    model = Model.create(cfg, seed=0)
    rng = np.random.default_rng(0)
    s = cfg.input_size
    img = Tensor(rng.uniform(0, 1, (s, s, 3)).astype(np.float32))
    labels = rng.integers(0, cfg.num_classes, (s, s))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = combined_loss(model.forward(img), labels, LossConfig())[0]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held, peak


class TestFusedReassemblyBudget:
    # CARAFE reassembly is one entry that keeps x and the kernel field, not
    # the [H, W, k_up^2, C] neighborhoods or the unshuffled product
    def test_entry_counts(self):
        assert len(_taped_step(tiny_config())[0].entries) <= 325
        assert len(_taped_step(default_config())[0].entries) <= 770

    def test_default_step_memory(self):
        held, peak = _step_memory(default_config())
        assert held <= 240 * 2**20, f"held {held / 2**20:.1f} MiB after forward"
        assert peak <= 265 * 2**20, f"backward peaked at {peak / 2**20:.1f} MiB"


class TestCounting:
    # exact counts, from closed-form per-block, per-conv and per-upsampler formulas
    @pytest.mark.parametrize(
        "case",
        [
            lambda: (tiny_config(), 957_280),
            lambda: (default_config(), 23_758_213),
            lambda: (tiny_config(upsampler="bilinear"), 747_172),
            lambda: (tiny_config(upsampler="transposed_conv"), 837_524),
            lambda: (tiny_config(skip_connections=1), 946_944),
            lambda: (tiny_config(lepe_enabled=True), 962_752),
            lambda: (micro_config(depths=(0, 0, 0, 0)), 57_399),
        ],
    )
    def test_analytic_params_match_enumeration(self, case):
        cfg, analytic = case()
        assert complexity.count_params(cfg) == analytic

    def test_zero_depth_counts_only_convs_and_head(self):
        cfg = micro_config(depths=(0, 0, 0, 0))
        parts = complexity.params_breakdown(cfg)
        assert parts["encoder_blocks"] == 0 and parts["decoder_blocks"] == 0
        assert complexity.count_params(cfg) == Model.create(cfg).num_parameters()

    def test_default_calibration(self):
        ok, p_ratio, f_ratio = complexity.within_reference(default_config())
        assert ok, f"params x{p_ratio:.3f}, flops x{f_ratio:.3f} vs reference"

    def test_conv_flops_quadruple_when_input_doubles(self):
        small = default_config()
        big = default_config(input_size=448)
        assert complexity.flops_breakdown(big)["conv"] == 4 * complexity.flops_breakdown(small)["conv"]

    @pytest.mark.parametrize("n, sigma, channels", [(5, 2, 3), (7, 4, 2)])
    def test_bilinear_macs_match_taped_matmuls(self, n, sigma, channels):
        x = Tensor(np.ones((n, n, channels), np.float32), requires_grad=True)
        with Tape() as tape:
            upsample_bilinear(x, sigma)
        runtime = sum(math.prod(out.shape) * ins[0].shape[-1] for ins, out, _fn, op in tape.entries if op == "matmul")
        assert runtime == complexity._upsampler_macs(channels, sigma, n, tiny_config(upsampler="bilinear"))[1]

    def test_attention_flops_follow_stripe_formula(self):
        # closed form vs explicit enumeration over stripes and heads
        h, w, dim, sw, heads = 16, 12, 24, 4, 6
        d = dim // heads
        total = 0
        for _ in range(heads // 2):
            total += (h // sw) * 2 * (sw * w) ** 2 * d
        for _ in range(heads // 2):
            total += (w // sw) * 2 * (sw * h) ** 2 * d
        assert complexity.stripe_attention_macs(h, w, dim, sw) == total

    def test_stripe_cheaper_than_dense_whenever_sw_smaller(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            h = int(rng.integers(2, 33))
            w = int(rng.integers(2, 33))
            dim = int(rng.integers(1, 17))
            sw = int(rng.integers(1, max(2, min(h, w))))
            if h % sw or w % sw or sw >= min(h, w):
                continue
            assert complexity.stripe_attention_macs(h, w, dim, sw) < complexity.dense_attention_macs(h, w, dim)
