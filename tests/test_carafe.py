import tracemalloc

import numpy as np
import pytest

from cswin_seg import tensor as T
from cswin_seg.carafe import (
    KernelPredictorParams,
    UpsampleConfig,
    carafe_upsample,
    predict_kernels,
    reassemble,
)
from cswin_seg.errors import ConfigError, DimensionError
from cswin_seg.gradcheck import check_gradients
from cswin_seg.initializers import seeded
from cswin_seg.tensor import Tape, Tensor, backward, tsum

from oracles import reachable_arrays, reassemble_composition, reassemble_naive, source_major


class TestConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            UpsampleConfig(sigma=2, k_up=4)

    def test_zero_ratio_rejected(self):
        with pytest.raises(ConfigError):
            UpsampleConfig(sigma=0)


class TestPredictKernels:
    def test_kernels_are_probability_vectors(self):
        rng = np.random.default_rng(0)
        cfg = UpsampleConfig(sigma=2, k_up=5, c_mid=8)
        params = KernelPredictorParams.create(seeded(rng, "f64"), "up", 8, cfg)
        x = Tensor(rng.uniform(-1, 1, (4, 4, 8)), dtype="f64")
        field = predict_kernels(x, params, cfg)
        assert field.shape == (4, 4, 4, 25)
        np.testing.assert_allclose(field.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (field.data >= 0).all()

    def test_zero_encoder_gives_uniform_kernels(self):
        rng = np.random.default_rng(1)
        cfg = UpsampleConfig(sigma=2, k_up=3, c_mid=4)
        params = KernelPredictorParams.create(seeded(rng, "f64"), "up", 6, cfg)
        params.enc_w.data[:] = 0.0
        params.enc_b.data[:] = 0.0
        x = Tensor(rng.uniform(-1, 1, (3, 3, 6)), dtype="f64")
        field = predict_kernels(x, params, cfg)
        np.testing.assert_allclose(field.data, 1.0 / 9.0, atol=1e-12)

    def test_single_kernel_traced_by_hand(self):
        # recompute the kernel of output pixel (5, 3) through the conv chain
        rng = np.random.default_rng(2)
        cfg = UpsampleConfig(sigma=2, k_up=5, c_mid=8)
        params = KernelPredictorParams.create(seeded(rng, "f64"), "up", 8, cfg)
        x = rng.uniform(-1, 1, (4, 4, 8))
        field = predict_kernels(Tensor(x, dtype="f64"), params, cfg)

        ip, jp = 5, 3
        i, j, di, dj = ip // 2, jp // 2, ip % 2, jp % 2
        comp = np.zeros((4, 4, 8))
        for a in range(4):
            for b in range(4):
                comp[a, b] = x[a, b] @ params.comp_w.data[0, 0] + params.comp_b.data
        logit = np.zeros(25)
        for ki in range(3):
            for kj in range(3):
                si, sj = i + ki - 1, j + kj - 1
                if 0 <= si < 4 and 0 <= sj < 4:
                    sl = (di * 2 + dj) * 25
                    logit += comp[si, sj] @ params.enc_w.data[ki, kj, :, sl : sl + 25]
        logit += params.enc_b.data[(di * 2 + dj) * 25 : (di * 2 + dj) * 25 + 25]
        want = np.exp(logit - logit.max())
        want /= want.sum()
        np.testing.assert_allclose(field.data[i, j, di * 2 + dj], want, atol=1e-6)


class TestReassemble:
    def _delta_field(self, h, w, sigma, k):
        f = np.zeros((sigma * h, sigma * w, k * k))
        f[:, :, (k // 2) * k + k // 2] = 1.0
        return Tensor(source_major(f, sigma), dtype="f64")

    def test_delta_kernels_give_nearest_neighbor(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (5, 4, 3))
        cfg = UpsampleConfig(sigma=2, k_up=3)
        out = reassemble(Tensor(x, dtype="f64"), self._delta_field(5, 4, 2, 3), cfg)
        want = np.repeat(np.repeat(x, 2, axis=0), 2, axis=1)
        np.testing.assert_array_equal(out.data, want)

    def test_uniform_kernels_on_constant_input(self):
        cfg = UpsampleConfig(sigma=2, k_up=3)
        x = Tensor(np.full((4, 4, 2), 3.0), dtype="f64")
        f = Tensor(source_major(np.full((8, 8, 9), 1.0 / 9.0), 2), dtype="f64")
        out = reassemble(x, f, cfg)
        np.testing.assert_allclose(out.data[2:-2, 2:-2, :], 3.0, atol=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        for sigma, k in ((1, 1), (2, 3), (3, 3), (4, 5)):
            cfg = UpsampleConfig(sigma=sigma, k_up=k)
            x = rng.uniform(-1, 1, (5, 3, 2))
            raw = rng.uniform(0, 1, (5 * sigma, 3 * sigma, k * k))
            f = source_major(raw / raw.sum(axis=-1, keepdims=True), sigma)
            got = reassemble(Tensor(x, dtype="f64"), Tensor(f, dtype="f64"), cfg)
            np.testing.assert_allclose(got.data, reassemble_naive(x, f, sigma, k), atol=1e-6, err_msg=f"sigma={sigma} k={k}")

    def test_convex_hull_bound_interior(self):
        rng = np.random.default_rng(5)
        cfg = UpsampleConfig(sigma=2, k_up=3)
        params = KernelPredictorParams.create(seeded(rng, "f64"), "up", 4, cfg)
        x = rng.uniform(-1, 1, (6, 6, 4))
        out = carafe_upsample(Tensor(x, dtype="f64"), params, cfg).data
        r = 1
        for ip in range(2 * r, 12 - 2 * r):
            for jp in range(2 * r, 12 - 2 * r):
                i, j = ip // 2, jp // 2
                hood = x[i - r : i + r + 1, j - r : j + r + 1, :]
                assert (out[ip, jp] <= hood.max(axis=(0, 1)) + 1e-9).all()
                assert (out[ip, jp] >= hood.min(axis=(0, 1)) - 1e-9).all()

    def test_shape_law(self):
        rng = np.random.default_rng(6)
        for sigma in (1, 2, 4):
            cfg = UpsampleConfig(sigma=sigma, k_up=3, c_mid=4)
            params = KernelPredictorParams.create(seeded(rng, "f64"), "up", 5, cfg)
            x = Tensor(rng.uniform(-1, 1, (3, 4, 5)), dtype="f64")
            assert carafe_upsample(x, params, cfg).shape == (3 * sigma, 4 * sigma, 5)

    def test_field_shape_mismatch(self):
        cfg = UpsampleConfig(sigma=2, k_up=3)
        with pytest.raises(DimensionError):
            reassemble(Tensor(np.zeros((4, 4, 2))), Tensor(np.zeros((4, 4, 9))), cfg)

    def test_hood_field_shape_mismatch(self):
        cfg = UpsampleConfig(sigma=2, k_up=3)
        # x [4,3,2] needs [4,3,4,9]: wrong k^2, wrong extents, wrong sigma^2,
        # the image layout [8,6,9], a missing axis
        x = Tensor(np.zeros((4, 3, 2)))
        for shape in ((4, 3, 4, 4), (4, 6, 4, 9), (5, 3, 4, 9), (2, 3, 4, 9), (4, 3, 9, 9), (8, 6, 9), (4, 3, 4)):
            with pytest.raises(DimensionError):
                reassemble(x, Tensor(np.zeros(shape)), cfg)

    def test_peak_memory_below_upsampled_hood(self):
        # taped forward and backward must never hold an array the size of
        # the upsampled neighborhood [sigma*H, sigma*W, k^2, C]
        rng = np.random.default_rng(8)
        h, c, sigma, k = 28, 16, 4, 5
        cfg = UpsampleConfig(sigma=sigma, k_up=k)
        x = Tensor(rng.uniform(-1, 1, (h, h, c)), dtype="f32", requires_grad=True)
        raw = rng.uniform(0, 1, (sigma * h, sigma * h, k * k))
        field = Tensor(source_major(raw / raw.sum(axis=-1, keepdims=True), sigma), dtype="f32", requires_grad=True)
        upsampled_hood_bytes = (sigma * h) ** 2 * k * k * c * 4
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = tsum(reassemble(x, field, cfg))
            backward(loss, tape)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.grad is not None and field.grad is not None
        assert peak < upsampled_hood_bytes, (peak, upsampled_hood_bytes)


def _reassemble_entry(x, field):
    """The single tape entry of a taped fused reassembly: (output, grad_fn)."""
    with Tape() as tape:
        y = T.reassemble(x, field)
    (inputs, out, grad_fn, op), = tape.entries
    assert op == "reassemble" and inputs == (x, field) and out is y
    return y, grad_fn


class TestFusedReassembly:
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("sigma", [1, 2, 4])
    # the ids keep the "None-" prefix of a dropped band-size parameter, so each case keeps its name
    @pytest.mark.parametrize("k", [1, 3, 5], ids=lambda k: f"None-{k}")
    def test_bitwise_equal_to_composition(self, dtype, sigma, k):
        rng = np.random.default_rng(9)
        h, w, c = 7, 5, 3
        x = Tensor(rng.uniform(-1, 1, (h, w, c)), dtype=dtype, requires_grad=True)
        field = Tensor(rng.uniform(0, 1, (h, w, sigma * sigma, k * k)), dtype=dtype, requires_grad=True)
        g = rng.uniform(-1, 1, (sigma * h, sigma * w, c)).astype(x.data.dtype)
        y, grad_fn = _reassemble_entry(x, field)
        gx, gfield = grad_fn(g)
        want, want_gx, want_gfield = reassemble_composition(x.data, field.data, g)
        for got, ref in ((y.data, want), (gx, want_gx), (gfield, want_gfield)):
            assert got.dtype == x.data.dtype and got.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("constant", ["x", "field"])
    def test_constant_input_gets_no_gradient(self, constant):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(-1, 1, (8, 6, 2)), dtype="f32", requires_grad=constant != "x")
        field = Tensor(rng.uniform(0, 1, (8, 6, 4, 25)), dtype="f32", requires_grad=constant != "field")
        g = rng.uniform(-1, 1, (16, 12, 2)).astype(np.float32)
        _, grad_fn = _reassemble_entry(x, field)
        gx, gfield = grad_fn(g)
        _, want_gx, want_gfield = reassemble_composition(x.data, field.data, g)
        if constant == "x":
            assert gx is None
            np.testing.assert_array_equal(gfield, want_gfield)
        else:
            assert gfield is None
            np.testing.assert_array_equal(gx, want_gx)

    def test_rejects_mismatched_field(self):
        x = Tensor(np.zeros((4, 3, 2)))
        for shape in ((4, 3, 4, 4), (4, 3, 3, 9), (4, 2, 4, 9), (4, 3, 9), (4, 3, 4, 9, 1)):
            with pytest.raises(DimensionError):
                T.reassemble(x, Tensor(np.zeros(shape)))
        with pytest.raises(DimensionError):
            T.reassemble(x, Tensor(np.zeros((4, 3, 4, 9)), dtype="f32"))

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_bias_is_added_after_the_sum(self, dtype):
        # the entry adds its bias to every output pixel, border ones included,
        # and the bias gradient is the upstream gradient summed over pixels
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, (4, 3, 2)), dtype=dtype, requires_grad=True)
        field = Tensor(rng.uniform(0, 1, (4, 3, 4, 9)), dtype=dtype, requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, (2,)), dtype=dtype, requires_grad=True)
        g = rng.uniform(-1, 1, (8, 6, 2)).astype(x.data.dtype)
        with Tape() as tape:
            y = T.reassemble(x, field, bias)
        (inputs, out, grad_fn, op), = tape.entries
        assert op == "reassemble" and inputs == (x, field, bias) and out is y
        gx, gfield, gbias = grad_fn(g)
        want, want_gx, want_gfield = reassemble_composition(x.data, field.data, g)
        np.testing.assert_array_equal(y.data, want + bias.data)
        np.testing.assert_array_equal(gx, want_gx)
        np.testing.assert_array_equal(gfield, want_gfield)
        np.testing.assert_array_equal(gbias, T._colsum(g.reshape(-1, 2)))
        with pytest.raises(DimensionError):
            T.reassemble(x, field, Tensor(np.zeros(3), dtype=dtype))

    def test_entry_keeps_no_source_neighborhood(self):
        # the tape holds x, the field and the output; the [H, W, k^2, C]
        # neighborhoods do not stay for backward
        rng = np.random.default_rng(11)
        h, w, c, sigma, k = 6, 5, 3, 2, 5
        cfg = UpsampleConfig(sigma=sigma, k_up=k)
        x = Tensor(rng.uniform(-1, 1, (h, w, c)), dtype="f32", requires_grad=True)
        field = Tensor(rng.uniform(0, 1, (h, w, sigma * sigma, k * k)), dtype="f32", requires_grad=True)
        with Tape() as tape:
            reassemble(x, field, cfg)
        held = [a.size for entry in tape.entries for a in reachable_arrays(entry[:3])]
        assert h * w * k * k * c not in held
        assert h * w * sigma * sigma * c in held  # the output: the walk does reach the entries' arrays


class TestGradients:
    def test_end_to_end_gradcheck(self):
        rng = np.random.default_rng(7)
        cfg = UpsampleConfig(sigma=2, k_up=3, c_mid=3)
        source = seeded(rng, "f64")
        params = KernelPredictorParams.create(source, "up", 4, cfg)
        x = Tensor(rng.uniform(-1, 1, (3, 3, 4)), dtype="f64", requires_grad=True)
        # O(0.1)-scale probe loss keeps central-difference round-off below
        # the 1e-8 relative-error floor
        weights = Tensor(rng.uniform(-1, 1, (6, 6, 4)) / 144.0, dtype="f64")
        named = [("x", x)] + source.named
        check_gradients(lambda: tsum(carafe_upsample(x, params, cfg) * weights), named, tol=1e-4)
