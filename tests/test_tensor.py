import io
import struct
import weakref

import numpy as np
import pytest

from cswin_seg import tensor as T
from cswin_seg.errors import ContractError, DimensionError, FormatError, NumericError
from cswin_seg.gradcheck import check_gradients
from cswin_seg.tensor import Tape, Tensor, backward

from oracles import (
    attention_naive,
    conv2d_naive,
    depthwise_conv2d_naive,
    gelu_naive,
    layer_norm_naive,
    softmax_naive,
    upsample_bilinear_naive,
)


def randt(rng, shape, dtype="f64", requires_grad=False):
    return Tensor(rng.uniform(-1, 1, shape), dtype=dtype, requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_projector(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0], [7.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[5.0], [0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = randt(rng, (4, 3))
        b = randt(rng, (3, 2))
        check_gradients(lambda: T.tsum(T.matmul(a, b) * T.matmul(a, b)), [("a", a), ("b", b)], tol=1e-6)

    def test_batched_gradients(self):
        rng = np.random.default_rng(1)
        a = randt(rng, (5, 4, 3))
        b = randt(rng, (3, 2))
        check_gradients(lambda: T.tsum(T.matmul(a, b)), [("a", a), ("b", b)])

    def test_2d_against_batched(self):
        rng = np.random.default_rng(2)
        a = randt(rng, (5, 3))
        for batch in ((4,), (1, 2, 3)):
            b = randt(rng, batch + (3, 2))
            np.testing.assert_allclose(T.matmul(a, b).data, np.matmul(a.data, b.data), atol=1e-12)
            w = randt(rng, batch + (5, 2))
            check_gradients(lambda: T.tsum(T.matmul(a, b) * w), [("a", a), ("b", b)], tol=1e-6)

    def test_batch_mismatch(self):
        with pytest.raises(DimensionError):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_large_logits_do_not_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0], dtype="f64"))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = T.softmax(randt(rng, (7, 5)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-6)
        assert (out.data >= 0).all()

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = randt(rng, (5,))
        w = Tensor(rng.uniform(-1, 1, (5,)), dtype="f64")
        check_gradients(lambda: T.tsum(T.softmax(x) * w), [("x", x)])

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            T.softmax(Tensor(np.zeros((3, 0))))


class TestLayerNorm:
    def test_constant_input_gives_zeros(self):
        x = Tensor(np.full((2, 8), 3.7), dtype="f32")
        out = T.layer_norm(x, Tensor.ones((8,)), Tensor.zeros((8,)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(6)
        x = randt(rng, (4, 8))
        beta = Tensor(rng.uniform(-1, 1, (8,)), dtype="f64")
        out = T.layer_norm(x, Tensor.zeros((8,), dtype="f64"), beta)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (4, 8)))

    def test_normalizes_each_slice(self):
        rng = np.random.default_rng(7)
        x = randt(rng, (2, 3, 8))
        out = T.layer_norm(x, Tensor.ones((8,), dtype="f64"), Tensor.zeros((8,), dtype="f64"))
        assert np.abs(out.data.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.data.var(axis=-1) - 1.0).max() < 1e-4

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = randt(rng, (3, 6))
        gamma = Tensor(rng.uniform(0.5, 1.5, (6,)), dtype="f64")
        beta = Tensor(rng.uniform(-1, 1, (6,)), dtype="f64")
        w = Tensor(rng.uniform(-1, 1, (3, 6)), dtype="f64")
        check_gradients(
            lambda: T.tsum(T.layer_norm(x, gamma, beta) * w),
            [("x", x), ("gamma", gamma), ("beta", beta)],
        )


def _entry_and_gradients(fn, inputs, g):
    """Run one primitive on a tape and its recorded gradient on g; returns
    (output array, gradient arrays)."""
    with Tape() as tape:
        out = fn(*inputs)
    (_, _, grad_fn, _), = tape.entries
    return out.data, grad_fn(g)


class TestInPlaceElementwise:
    """gelu, softmax and layer_norm compute in place; they must stay bitwise
    equal to the plain expressions and write into nothing they were given:
    not the input, not the kept output, not the upstream gradient g (passed
    here as a strided view into a larger array, as a shared gradient may be)."""

    @staticmethod
    def _inputs(dtype, shape, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.uniform(-4, 4, shape), dtype=dtype, requires_grad=True)
        base = rng.uniform(-1, 1, shape[:-1] + (2 * shape[-1],)).astype(x.data.dtype)
        return rng, x, base[..., ::2]

    @staticmethod
    def _assert_bitwise(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_gelu(self, dtype):
        _, x, g = self._inputs(dtype, (5, 9, 37), 30)
        x0, g0 = x.data.copy(), g.copy()
        y, (dx,) = _entry_and_gradients(T.gelu, (x,), g)
        y0 = y.copy()
        want_y, dydx = gelu_naive(x0)
        self._assert_bitwise(y, want_y)
        self._assert_bitwise(dx, g0 * dydx)
        for got, before in ((x.data, x0), (g, g0), (y, y0)):
            self._assert_bitwise(got, before)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_softmax(self, dtype, axis):
        _, x, g = self._inputs(dtype, (6, 11, 37), 31)
        x0, g0 = x.data.copy(), g.copy()
        y, (dx,) = _entry_and_gradients(lambda t: T.softmax(t, axis=axis), (x,), g)
        y0 = y.copy()
        want_y, want_dx = softmax_naive(x0, g0, axis)
        self._assert_bitwise(y, want_y)
        self._assert_bitwise(dx, want_dx)
        for got, before in ((x.data, x0), (g, g0), (y, y0)):
            self._assert_bitwise(got, before)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_layer_norm(self, dtype):
        rng, x, g = self._inputs(dtype, (4, 13, 37), 32)
        gamma = Tensor(rng.uniform(0.5, 1.5, (37,)), dtype=dtype, requires_grad=True)
        beta = Tensor(rng.uniform(-1, 1, (37,)), dtype=dtype, requires_grad=True)
        x0, g0 = x.data.copy(), g.copy()
        y, (dx, dgamma, dbeta) = _entry_and_gradients(T.layer_norm, (x, gamma, beta), g)
        y0 = y.copy()
        want = layer_norm_naive(x0, gamma.data, beta.data, g0)
        for got, w in zip((y, dx, dgamma, dbeta), want):
            self._assert_bitwise(got, w)
        for got, before in ((x.data, x0), (g, g0), (y, y0)):
            self._assert_bitwise(got, before)


class TestConv2d:
    def test_1x1_identity_kernel(self):
        rng = np.random.default_rng(9)
        x = randt(rng, (5, 5, 3))
        w = Tensor(np.eye(3).reshape(1, 1, 3, 3).astype(np.float64))
        np.testing.assert_allclose(T.conv2d(x, w, Tensor.zeros((3,), "f64")).data, x.data)

    def test_patch_embedding_shape(self):
        # 7x7 kernel, stride 4, padding 3 quarters the resolution
        x = Tensor.zeros((224, 224, 3))
        w = Tensor.zeros((7, 7, 3, 8))
        assert T.conv2d(x, w, Tensor.zeros((8,)), stride=4, padding=3).shape == (56, 56, 8)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(10)
        # (1, 0, 1) takes the 1x1 path that skips the patch gather
        for stride, pad, k in [(1, 0, 3), (2, 1, 3), (1, 2, 5), (4, 3, 7), (1, 0, 1)]:
            x = rng.uniform(-1, 1, (6, 6, 2))
            w = rng.uniform(-1, 1, (k, k, 2, 4))
            b = rng.uniform(-1, 1, (4,))
            if 6 + 2 * pad < k:
                continue
            got = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=pad)
            want = conv2d_naive(x, w, b, stride=stride, padding=pad)
            np.testing.assert_allclose(got.data, want, atol=1e-6)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            T.conv2d(Tensor.zeros((2, 2, 1)), Tensor.zeros((5, 5, 1, 1)), Tensor.zeros((1,)))

    def test_bias_shape_mismatch(self):
        x, w = Tensor.zeros((4, 4, 2)), Tensor.zeros((3, 3, 2, 5))
        for bad in [(4,), (1, 5), (5, 1)]:
            with pytest.raises(DimensionError, match="bias"):
                T.conv2d(x, w, Tensor.zeros(bad), padding=1)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        x = randt(rng, (5, 5, 2))
        w = randt(rng, (3, 3, 2, 3))
        b = randt(rng, (3,))
        check_gradients(
            lambda: T.tsum(T.conv2d(x, w, b, stride=2, padding=1)),
            [("x", x), ("w", w), ("b", b)],
        )

    @pytest.mark.parametrize("k,stride,pad", [(7, 4, 3), (1, 1, 0)])
    def test_constant_input_gets_no_gradient(self, k, stride, pad):
        # the image into the token embedding: gx is skipped, gw and gb unchanged
        rng = np.random.default_rng(12)
        xd = rng.uniform(-1, 1, (9, 9, 3)).astype(np.float32)
        w, b = randt(rng, (k, k, 3, 4), "f32", True), randt(rng, (4,), "f32", True)
        grads = []
        for x in (Tensor(xd), Tensor(xd, requires_grad=True)):
            with Tape() as tape:
                y = T.conv2d(x, w, b, stride=stride, padding=pad)
            (_, _, grad_fn, _), = tape.entries
            grads.append(grad_fn(np.ones_like(y.data)))
        (gx, gw, gb), (gx_var, gw_var, gb_var) = grads
        assert gx is None and gx_var.shape == xd.shape
        np.testing.assert_array_equal(gw, gw_var)
        np.testing.assert_array_equal(gb, gb_var)


class TestAttention:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        for shape in [(3, 2, 5, 4), (3, 1, 7, 3)]:
            qkv = rng.uniform(-2, 2, shape)
            np.testing.assert_allclose(T.attention(Tensor(qkv)).data, attention_naive(qkv), rtol=0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(13)
        qkv = randt(rng, (3, 2, 4, 3))
        w = Tensor(rng.uniform(-1, 1, (2, 4, 3)))
        check_gradients(lambda: T.tsum(T.mul(T.attention(qkv), w)), [("qkv", qkv)])

    def test_keeps_only_probabilities_and_gives_one_gradient(self):
        qkv = Tensor(np.random.default_rng(14).uniform(-1, 1, (3, 2, 5, 4)), requires_grad=True)
        with Tape() as tape:
            y = T.attention(qkv)
        (inputs, out, grad_fn, op), = tape.entries
        assert op == "attention" and inputs == (qkv,) and out is y and y.shape == (2, 5, 4)
        (g,) = grad_fn(np.ones(y.shape))
        assert g.shape == qkv.shape

    def test_rejects_unstacked_input(self):
        for bad in [(2, 1, 4, 3), (3, 4, 3), (3, 1, 0, 3)]:
            with pytest.raises(DimensionError, match="attention"):
                T.attention(Tensor.zeros(bad))


class TestDepthwiseConv2d:
    def test_center_delta_is_identity(self):
        rng = np.random.default_rng(12)
        x = randt(rng, (4, 4, 3))
        w = np.zeros((3, 3, 3))
        w[1, 1, :] = 1.0
        out = T.depthwise_conv2d(x, Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x.data)

    def test_box_filter_on_constant(self):
        x = Tensor(np.full((5, 5, 2), 2.5))
        w = Tensor(np.full((3, 3, 2), 1.0 / 9.0))
        out = T.depthwise_conv2d(x, w, padding=1)
        np.testing.assert_allclose(out.data[1:-1, 1:-1, :], 2.5, atol=1e-6)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (5, 5, 3))
        w = rng.uniform(-1, 1, (3, 3, 3))
        got = T.depthwise_conv2d(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(got.data, depthwise_conv2d_naive(x, w, padding=1), atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        x = randt(rng, (4, 4, 2))
        w = randt(rng, (3, 3, 2))
        check_gradients(lambda: T.tsum(T.depthwise_conv2d(x, w, padding=1)), [("x", x), ("w", w)])

    def test_batched_matches_naive_per_element(self):
        # leading axes of x are batch axes; w's broadcast against them
        rng = np.random.default_rng(15)
        x = rng.uniform(-1, 1, (2, 3, 5, 4, 3))
        for stride, padding in ((1, 1), (2, 1), (1, 0)):
            cols = T.patches(Tensor(x), 3, 3, stride=stride, padding=padding).data
            for i, j in np.ndindex(2, 3):
                want = T.patches(Tensor(x[i, j]), 3, 3, stride=stride, padding=padding).data
                np.testing.assert_array_equal(cols[i, j], want)
            for w in (rng.uniform(-1, 1, (3, 3, 3)), rng.uniform(-1, 1, (2, 1, 3, 3, 3))):
                got = T.depthwise_conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
                kernels = np.broadcast_to(w, (2, 3, 3, 3, 3))
                for i, j in np.ndindex(2, 3):
                    want = depthwise_conv2d_naive(x[i, j], kernels[i, j], stride=stride, padding=padding)
                    np.testing.assert_allclose(got[i, j], want, atol=1e-12)

    def test_one_entry_with_the_composition_gradients(self):
        # one tape entry; its gradients equal those of patches -> mul -> sum bitwise
        rng = np.random.default_rng(16)
        x, w = randt(rng, (2, 5, 4, 3), "f32", True), randt(rng, (2, 3, 3, 3), "f32", True)
        g = rng.uniform(-1, 1, (2, 5, 4, 3)).astype(np.float32)
        with Tape() as tape:
            y = T.depthwise_conv2d(x, w, padding=1)
        (inputs, out, grad_fn, op), = tape.entries
        assert op == "depthwise_conv2d" and inputs == (x, w) and out is y and y.shape == x.shape
        gx, gw = grad_fn(g)
        with Tape() as tape:
            prod = T.mul(T.patches(x, 3, 3, padding=1), T.reshape(w, (2, 1, 1, 9, 3)))
            want = T.tsum(prod, axis=-2)
            loss = T.tsum(T.mul(want, Tensor(g)))  # seeds want's gradient with g
        backward(loss, tape)
        np.testing.assert_array_equal(y.data, want.data)
        np.testing.assert_array_equal(gx, x.grad)
        np.testing.assert_array_equal(gw, w.grad)


class TestStructural:
    def test_split_concat_roundtrip(self):
        x = Tensor(np.arange(1.0, 7.0))
        parts = T.split(x, [2, 2, 2], axis=0)
        back = T.concat(parts, axis=0)
        np.testing.assert_array_equal(back.data, x.data)

    def test_permute_roundtrip_bitwise(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.uniform(-1, 1, (3, 4, 5)))
        back = T.permute(T.permute(x, (2, 0, 1)), (1, 2, 0))
        assert (back.data == x.data).all()

    def test_reshape_is_a_view(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.shares_memory(T.reshape(x, (2, 6)).data, x.data)

    def test_gelu_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_gelu_gradient(self):
        rng = np.random.default_rng(16)
        x = randt(rng, (9,))
        check_gradients(lambda: T.tsum(T.gelu(x)), [("x", x)])

    def test_permute_gradient(self):
        rng = np.random.default_rng(17)
        x = randt(rng, (3, 4, 2))
        w = Tensor(rng.uniform(-1, 1, (2, 3, 4)), dtype="f64")
        check_gradients(lambda: T.tsum(T.permute(x, (2, 0, 1)) * w), [("x", x)])

    def test_split_gradient(self):
        rng = np.random.default_rng(18)
        x = randt(rng, (6, 2))
        def fn():
            a, bpart, c = T.split(x, [2, 1, 3], axis=0)
            return T.tsum(a * a) + 2.0 * T.tsum(bpart) + T.tsum(c * 3.0)
        check_gradients(fn, [("x", x)])

    def test_pixel_shuffle_layout(self):
        h = w = 2
        sigma, tail = 2, 3
        x = np.arange(h * w * sigma * sigma * tail, dtype=np.float64).reshape(h, w, sigma * sigma * tail)
        out = T.pixel_shuffle(Tensor(x), sigma, tail)
        assert out.shape == (4, 4, 3)
        for i in range(h):
            for j in range(w):
                for di in range(sigma):
                    for dj in range(sigma):
                        for t in range(tail):
                            src = x[i, j, (di * sigma + dj) * tail + t]
                            assert out.data[i * sigma + di, j * sigma + dj, t] == src


class TestUpsample:
    def test_bilinear_constant_preserved(self):
        x = Tensor(np.full((3, 3, 2), 1.25))
        out = T.upsample_bilinear(x, 2)
        np.testing.assert_allclose(out.data, 1.25, atol=1e-6)

    def test_bilinear_matches_four_corner_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, (5, 3, 2))
        for dtype, tol in (("f64", 1e-12), ("f32", 1e-6)):
            xt = Tensor(x, dtype=dtype)
            for factor in (1, 2, 3, 4):
                got = T.upsample_bilinear(xt, factor)
                assert got.shape == (5 * factor, 3 * factor, 2) and got.dtype == dtype
                want = upsample_bilinear_naive(xt.data, factor)
                np.testing.assert_allclose(got.data, want, rtol=0, atol=tol, err_msg=f"{dtype} factor {factor}")

    def test_bilinear_gradient(self):
        rng = np.random.default_rng(20)
        x = randt(rng, (3, 4, 2))
        w = Tensor(rng.uniform(-1, 1, (6, 8, 2)), dtype="f64")
        check_gradients(lambda: T.tsum(T.upsample_bilinear(x, 2) * w), [("x", x)])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(x)
        backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_2x(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(x * x)
        backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = x * x
        with pytest.raises(ContractError):
            backward(y, tape)

    def test_tape_reuse_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = T.tsum(x)
        backward(loss, tape)
        with pytest.raises(ContractError):
            backward(loss, tape)

    def test_grad_accumulates_across_tapes(self):
        x = Tensor(np.ones(3), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = T.tsum(x)
            backward(loss, tape)
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

        # add hands both same-shape leaves one shared upstream buffer, so
        # accumulation must not write into a gradient in place
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 5.0), requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                loss = T.tsum(T.add(a, b))
            backward(loss, tape)
        np.testing.assert_array_equal(a.grad, 2 * np.ones(3))
        np.testing.assert_array_equal(b.grad, 2 * np.ones(3))

    def test_backward_frees_intermediates(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with Tape() as tape:
            y = x * x
            loss = T.tsum(y * y)
        alive = weakref.ref(y.data)
        del y
        backward(loss, tape)
        assert alive() is None
        assert tape.entries == []
        np.testing.assert_array_equal(x.grad, 4 * np.ones(4))

    def test_nan_loss_names_op(self):
        # forward ops deliberately do not check for non-finite values;
        # backward must name the offending op
        x = Tensor(np.array([1.0, 0.0]), requires_grad=True)
        with np.errstate(invalid="ignore"), Tape() as tape:
            loss = T.tsum(T.mul(x, Tensor([np.inf, 1.0])))
        with pytest.raises(NumericError, match="op 'mul'"):
            backward(loss, tape)

    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(15)
        const, x = Tensor(rng.uniform(-1, 1, (4, 3))), randt(rng, (3, 2), requires_grad=True)
        with Tape() as tape:
            T.matmul(const, x)
            T.mul(const, Tensor(np.full((4, 3), 2.0), requires_grad=True))
            T.mul(Tensor(np.ones((4, 3)), requires_grad=True), const)
        g = np.ones((4, 3))
        (_, _, mm_fn, _), (_, _, mul_fn, _), (_, _, rmul_fn, _) = tape.entries
        ga, gb = mm_fn(np.ones((4, 2)))
        assert ga is None
        np.testing.assert_array_equal(gb, const.data.T @ np.ones((4, 2)))
        assert mul_fn(g)[0] is None and mul_fn(g)[1] is not None
        assert rmul_fn(g)[0] is not None and rmul_fn(g)[1] is None

    def test_no_tape_means_no_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * x
        assert y.requires_grad is False


class TestDeterminism:
    def test_forward_bitwise_reproducible(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)

        def run(rng):
            x = Tensor(rng.standard_normal((8, 8, 3)), dtype="f32")
            w = Tensor(rng.standard_normal((3, 3, 3, 4)), dtype="f32")
            return T.conv2d(T.gelu(x), w, Tensor.zeros((4,)), padding=1).data

        assert (run(rng1) == run(rng2)).all()


class TestTSR1:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(21)
        for dtype in ("f32", "f64"):
            t = Tensor(rng.standard_normal((3, 4, 5)), dtype=dtype)
            p = tmp_path / f"t_{dtype}.tsr"
            T.save_tensor(p, t)
            back = T.load_tensor(p)
            assert back.dtype == dtype
            assert back.shape == t.shape
            assert (back.data == t.data).all()

    def test_scalar_rank_zero(self):
        t = Tensor(np.asarray(3.5))
        back = read_bytes(b"".join(T.tensor_record(t)))
        assert back.shape == ()
        assert back.item() == 3.5

    def test_bad_magic(self, tmp_path):
        buf = b"JUNK0000" + b"\x00" * 16
        with pytest.raises(FormatError):
            read_bytes(buf)
        (tmp_path / "junk.tsr").write_bytes(buf)
        with pytest.raises(FormatError, match="bad magic"):
            T.load_tensor(tmp_path / "junk.tsr")

    def test_truncation(self, tmp_path):
        buf = b"".join(T.tensor_record(Tensor(np.ones((4, 4)))))
        with pytest.raises(FormatError):
            read_bytes(buf[:-3])
        (tmp_path / "cut.tsr").write_bytes(buf[:-3])
        with pytest.raises(FormatError, match="truncated"):
            T.load_tensor(tmp_path / "cut.tsr")
        # the stream ends before the size the caller vouched for
        with pytest.raises(FormatError, match="truncated in payload"):
            T.read_record(io.BytesIO(buf[:-3]), len(buf))

    def test_element_count_beyond_int64(self, monkeypatch):
        # 2**32 x 2**32 elements wrap to 0 in an int64 product; the header
        # must be rejected as a format error before anything is allocated
        buf = b"TSR1\x00\x00\x00\x00" + struct.pack("<I2QB", 2, 2**32, 2**32, 0) + b"\x00" * 16
        monkeypatch.setattr(T.np, "empty", lambda *a, **k: pytest.fail("np.empty ran"))
        with pytest.raises(FormatError, match="truncated"):
            read_bytes(buf)

    def test_record_longer_than_its_payload(self):
        buf = b"".join(T.tensor_record(Tensor(np.ones((2, 3), np.float32))))
        with pytest.raises(FormatError, match=f"record is {len(buf)} bytes, not {len(buf) + 7}"):
            read_bytes(buf + b"\x00" * 7)

    def test_rank_beyond_numpy(self):
        rank = 40
        buf = b"TSR1\x00\x00\x00\x00" + struct.pack(f"<I{rank}QB", rank, *([1] * rank), 0) + b"\x00" * 4
        with pytest.raises(FormatError, match="rank 40"):
            read_bytes(buf)

    def test_read_lands_in_an_owned_writable_array(self):
        t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        back = read_bytes(b"".join(T.tensor_record(t)))
        flags = back.data.flags
        assert flags.owndata and flags.writeable and flags.aligned and flags.c_contiguous
        assert back.data.dtype == np.float32 and (back.data == t.data).all()


def read_bytes(buf: bytes) -> Tensor:
    """Decode a whole buffer as one TSR1 record through the file reader."""
    return T.read_record(io.BytesIO(buf), len(buf))
