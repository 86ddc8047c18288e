import json
import math
import tracemalloc

import numpy as np
import pytest

from cswin_seg import complexity
from cswin_seg.attention import AttentionConfig, CSWinBlockParams, cswin_block
from cswin_seg.carafe import carafe_upsample, predict_kernels
from cswin_seg.errors import ConfigError, DimensionError
from cswin_seg.initializers import seeded
from cswin_seg.losses import LossConfig
from cswin_seg.network import (
    ConvParams,
    Model,
    NetworkConfig,
    default_config,
    tiny_config,
    transposed_conv_upsample,
)
from cswin_seg.tensor import Tape, Tensor, backward, conv2d, tsum
from cswin_seg.train import combined_loss

from oracles import dense_attention_macs, reassemble_naive, reassemble_then_conv1x1, upsample_bilinear_naive


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


def _upsampler_and_projection(model, sigma):
    """Decoder step 0's sigma-2 upsampler and its halve conv, or the head's
    sigma-4 upsampler and the classifier, with the upsampler's channels."""
    if sigma == 2:
        return model.ups[0], model.halve[0], model.config.stage_dim(3)
    return model.head_up, model.classifier, model.config.embed_dim


class TestUpsampleProject:
    # with CARAFE the 1x1 conv after an upsample runs first, at the source
    # resolution, and the reassembly adds its bias afterwards; the network
    # must compute what reassembling and then projecting computes
    def _case(self, sigma, dtype):
        model = Model.create(micro_config(), seed=sigma, dtype=dtype)
        up, proj, c = _upsampler_and_projection(model, sigma)
        rng = np.random.default_rng(sigma)
        proj.b.data[:] = rng.uniform(-1, 1, proj.b.shape)
        x = Tensor(rng.uniform(-1, 1, (5, 6, c)), dtype=dtype)
        field = predict_kernels(x, up, model.config.upsample_config(sigma)).data
        return model, up, proj, x, field

    @pytest.mark.parametrize("sigma", [2, 4])
    def test_matches_reassemble_then_conv_f64(self, sigma):
        model, up, proj, x, field = self._case(sigma, "f64")
        k = model.config.carafe_k_up
        got = model.upsample_project(x, up, proj, sigma).data
        want = reassemble_then_conv1x1(x.data, field, proj.w.data, proj.b.data, sigma, k)
        assert got.shape == want.shape == (5 * sigma, 6 * sigma, proj.w.shape[3])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        # the border rows and columns, where less than the whole kernel mass
        # lies on the map: a bias added before the reassembly is scaled there
        for side, edge in (("top", np.s_[0]), ("bottom", np.s_[-1]), ("left", np.s_[:, 0]), ("right", np.s_[:, -1])):
            np.testing.assert_allclose(got[edge], want[edge], rtol=0, atol=1e-12, err_msg=side)
        bias_first = reassemble_naive(x.data @ proj.w.data[0, 0] + proj.b.data, field, sigma, k)
        assert np.abs(bias_first[0] - want[0]).max() > 0.1
        # source row and column 2 see their whole 5 x 5 neighborhood
        inner = np.s_[2 * sigma : 3 * sigma, 2 * sigma : 4 * sigma]
        np.testing.assert_allclose(bias_first[inner], want[inner], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("sigma", [2, 4])
    def test_matches_reassemble_then_conv_f32(self, sigma):
        model, up, proj, x, field = self._case(sigma, "f32")
        got = model.upsample_project(x, up, proj, sigma).data
        f64 = [a.astype(np.float64) for a in (x.data, field, proj.w.data, proj.b.data)]
        want = reassemble_then_conv1x1(*f64, sigma, model.config.carafe_k_up)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("sigma", [2, 4])
    def test_gradients_match_reassemble_then_conv(self, sigma):
        model, up, proj, x, _ = self._case(sigma, "f64")
        x.requires_grad = True
        cfg = model.config.upsample_config(sigma)
        weights = Tensor(np.random.default_rng(9).uniform(-1, 1, (5 * sigma, 6 * sigma, proj.w.shape[3])), dtype="f64")
        named = [("x", x), ("w", proj.w), ("b", proj.b)] + [(n, getattr(up, n)) for n in ("comp_w", "comp_b", "enc_w", "enc_b")]

        def grads(forward):
            for _, t in named:
                t.zero_grad()
            with Tape() as tape:
                loss = tsum(forward() * weights)
            backward(loss, tape)
            return [t.grad for _, t in named]

        got = grads(lambda: model.upsample_project(x, up, proj, sigma))
        want = grads(lambda: conv2d(carafe_upsample(x, up, cfg), proj.w, proj.b))
        for (name, _), g, ref in zip(named, got, want):
            np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("upsampler", ["bilinear", "transposed_conv"])
    def test_other_upsamplers_keep_their_order(self, upsampler):
        # bilinear is a reassembly under a fixed field, so it projects first
        # as CARAFE does; the transposed conv upsamples, then projects
        dtype = "f64" if upsampler == "bilinear" else "f32"
        model = Model.create(micro_config(upsampler=upsampler), seed=1, dtype=dtype)
        up, proj, c = _upsampler_and_projection(model, 2)
        rng = np.random.default_rng(1)
        proj.b.data[:] = rng.uniform(-1, 1, proj.b.shape)
        x = Tensor(rng.uniform(-1, 1, (4, 5, c)), dtype=dtype, requires_grad=True)
        with Tape() as tape:
            got = model.upsample_project(x, up, proj, 2).data
        if upsampler == "bilinear":
            cout = proj.w.shape[3]
            assert [(op, out.shape) for _, out, _, op in tape.entries] == [("conv2d", (4, 5, cout)), ("reassemble", (8, 10, cout))]
            want = upsample_bilinear_naive(x.data, 2) @ proj.w.data[0, 0] + proj.b.data
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        else:
            want = conv2d(transposed_conv_upsample(x, up.w, up.b, 2), proj.w, proj.b).data
            np.testing.assert_array_equal(got, want)


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


_STEP_MEMORY: dict[str, tuple[int, int]] = {}


def _step_memory(cfg):
    """One taped Dice+CE step: the bytes tracemalloc holds after the forward,
    and its peak during backward.  Measured once per config."""
    key = repr(cfg)
    if key not in _STEP_MEMORY:
        _STEP_MEMORY[key] = _measure_step(cfg)
    return _STEP_MEMORY[key]


def _measure_step(cfg):
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


class TestBlockTape:
    # a CSWin block records one stripe_attention and one mlp entry, each a
    # residual half-block, and each entry keeps only what its gradient reads
    @pytest.mark.parametrize("lepe", [False, True])
    def test_one_block_records_six_entries(self, lepe):
        rng = np.random.default_rng(0)
        config = AttentionConfig(heads=4, sw=2, channels=16, lepe_enabled=lepe)
        params = CSWinBlockParams.create(seeded(rng, "f32"), "b", config)
        x = Tensor(rng.uniform(-1, 1, (8, 8, 16)).astype(np.float32), requires_grad=True)
        with Tape() as tape:
            cswin_block(x, params, config)
        assert [op for *_, op in tape.entries] == ["stripe_attention", "mlp"]

    def test_entry_counts(self):
        assert len(_taped_step(tiny_config())[0].entries) <= 110
        assert len(_taped_step(default_config())[0].entries) <= 200

    def test_default_step_memory(self):
        held, peak = _step_memory(default_config())
        assert held <= 175 * 2**20, f"held {held / 2**20:.1f} MiB after forward"
        assert peak <= 200 * 2**20, f"backward peaked at {peak / 2**20:.1f} MiB"

    def test_half_block_entry_counts(self):
        # one entry per residual half-block, and one conv2d_softmax entry per
        # CARAFE kernel predictor's encoder conv, split and softmax
        assert len(_taped_step(tiny_config())[0].entries) <= 51
        assert len(_taped_step(default_config())[0].entries) <= 83

    def test_half_block_step_memory(self):
        # no layer-norm outputs, branch outputs or conv im2cols are kept
        held, peak = _step_memory(default_config())
        assert held <= 130 * 2**20, f"held {held / 2**20:.1f} MiB after forward"
        assert peak <= 155 * 2**20, f"backward peaked at {peak / 2**20:.1f} MiB"

    def test_lepe_holds_no_more(self):
        # the LePE gathers are rebuilt in backward, not kept
        held, _ = _step_memory(default_config())
        held_lepe, _ = _step_memory(default_config(lepe_enabled=True))
        assert held_lepe <= held + 2**20, f"{held_lepe / 2**20:.1f} MiB with LePE, {held / 2**20:.1f} MiB without"


class TestProjectedUpsampleBudget:
    def test_default_step_memory(self):
        # the head's classifier runs at 56 x 56 before its reassembly, so
        # the 224 x 224 x 64 head activation and its gradient are never
        # built, and backward lets go of each entry's output before that
        # entry's gradient runs
        held, peak = _step_memory(default_config())
        assert held <= 112 * 2**20, f"held {held / 2**20:.1f} MiB after forward"
        assert peak <= 125 * 2**20, f"backward peaked at {peak / 2**20:.1f} MiB"


class TestKernelFieldTape:
    def test_no_kernel_logits_are_kept(self):
        # each kernel predictor records conv2d, conv2d_softmax; no softmax
        # entry and no encoder logits beside its field
        tape, _ = _taped_step(tiny_config())
        ops = [op for *_, op in tape.entries]
        assert ops.count("conv2d_softmax") == 4 and "softmax" not in ops

    def test_default_forward_memory(self):
        # about 5 MiB of encoder logits less than the 108.1 MiB held before
        held, _ = _step_memory(default_config())
        assert held <= 105 * 2**20, f"held {held / 2**20:.1f} MiB after forward"


def _batch(cfg, n, seed=0):
    rng = np.random.default_rng(seed)
    s = cfg.input_size
    return rng.uniform(0, 1, (n, s, s, 3)).astype(np.float32), rng.integers(0, cfg.num_classes, (n, s, s))


_VARIANTS = [{}, {"lepe_enabled": True}, {"upsampler": "bilinear"}, {"upsampler": "transposed_conv"}]


class TestBatchAxis:
    """A batch [B, H, W, 3] runs the code a single image [H, W, 3] runs, with
    every image's rows in one matmul."""

    @pytest.mark.parametrize("overrides", _VARIANTS)
    def test_batched_logits_equal_per_image_forwards(self, overrides):
        cfg = tiny_config(**overrides)
        model = Model.create(cfg, seed=0)
        images, _ = _batch(cfg, 4)
        batched = model.forward(Tensor(images)).data
        single = np.stack([model.forward(Tensor(im)).data for im in images])
        assert batched.shape == (4, 64, 64, cfg.num_classes) and batched.dtype == np.float32
        np.testing.assert_allclose(batched, single, rtol=1e-5, atol=1e-6 * np.abs(single).max())

    @pytest.mark.parametrize("overrides", _VARIANTS)
    def test_batch_of_one_is_bitwise_the_image(self, overrides):
        cfg = tiny_config(**overrides)
        model = Model.create(cfg, seed=0)
        images, labels = _batch(cfg, 1)

        def step(image, mask):
            with Tape() as tape:
                logits = model.forward(Tensor(image))
                loss = combined_loss(logits, mask, LossConfig())[0]
            backward(loss, tape)
            grads = [t.grad.tobytes() for t in model.parameters()]
            for t in model.parameters():
                t.zero_grad()
            return logits.data.reshape(image.shape[-3:-1] + (cfg.num_classes,)).tobytes(), loss.data.tobytes(), grads

        assert step(images, labels) == step(images[0], labels[0])

    def test_batched_gradients_equal_mean_of_per_sample(self):
        cfg = tiny_config()
        model = Model.create(cfg, seed=0)
        images, labels = _batch(cfg, 4)

        def grads(image, mask):
            with Tape() as tape:
                loss = combined_loss(model.forward(Tensor(image)), mask, LossConfig())[0]
            backward(loss, tape)
            out = {n: t.grad.astype(np.float64) for n, t in model.named_parameters()}
            for t in model.parameters():
                t.zero_grad()
            return out, float(loss.item())

        batched, loss = grads(images, labels)
        per = [grads(images[i], labels[i]) for i in range(4)]
        assert loss == pytest.approx(np.mean([l for _, l in per]), rel=1e-5)
        for name, g in batched.items():
            mean = sum(p[name] for p, _ in per) / 4
            np.testing.assert_allclose(g, mean, rtol=1e-4, atol=1e-5 * np.abs(mean).max(), err_msg=name)


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
        assert complexity.count_params(cfg) == sum(t.size for t in Model.create(cfg).parameters())

    def test_default_calibration(self):
        ok, p_ratio, f_ratio = complexity.within_reference(default_config())
        assert ok, f"params x{p_ratio:.3f}, flops x{f_ratio:.3f} vs reference"

    def test_conv_flops_quadruple_when_input_doubles(self):
        small = default_config()
        big = default_config(input_size=448)
        assert complexity.flops_breakdown(big)["conv"] == 4 * complexity.flops_breakdown(small)["conv"]

    @pytest.mark.parametrize("n, sigma, channels", [(5, 2, 3), (7, 4, 2)])
    def test_bilinear_macs_match_taped_matmuls(self, n, sigma, channels):
        # the network projects first, so the reassembly runs on the projected channels
        cfg = tiny_config(upsampler="bilinear")
        proj = ConvParams(Tensor(np.ones((1, 1, 3, channels), np.float32)), Tensor(np.zeros(channels, np.float32)))
        x = Tensor(np.ones((n, n, 3), np.float32), requires_grad=True)
        with Tape() as tape:
            Model.create(micro_config(upsampler="bilinear")).upsample_project(x, None, proj, sigma)
        # each source pixel runs one [sigma^2, 9] x [9, C] matmul
        runtime = sum(math.prod(out.shape) * ins[1].shape[-1] for ins, out, _fn, op in tape.entries if op == "reassemble")
        assert runtime == complexity._upsampler_macs(channels, sigma, n, cfg)[1]

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
            assert complexity.stripe_attention_macs(h, w, dim, sw) < dense_attention_macs(h, w, dim)
