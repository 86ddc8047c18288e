import io
import struct
import weakref

import numpy as np
import pytest

from cswin_seg import tensor as T
from cswin_seg.carafe import bilinear_field
from cswin_seg.errors import ContractError, DimensionError, FormatError, NumericError
from cswin_seg.gradcheck import check_gradients, numeric_grad
from cswin_seg.tensor import Tape, Tensor, backward

from oracles import (
    attention_naive,
    conv2d_naive,
    conv2d_softmax_composition,
    depthwise_conv2d_naive,
    gelu_naive,
    im2col_taps,
    layer_norm,
    layer_norm_naive,
    mlp,
    reachable_arrays,
    softmax,
    softmax_naive,
    stripe_attention,
    stripe_attention_composition,
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


class TestReductions:
    """The row max, row sum and column sum behind every softmax, layer norm
    and bias gradient: numpy's results without numpy's loop over rows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
    def test_rowmax_equals_numpy(self, dtype, lead):
        rng = np.random.default_rng(50)
        for n in range(1, 131):
            x = rng.standard_normal((*lead, n)).astype(dtype)
            got, want = T._rowmax(x), x.max(axis=-1, keepdims=True)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rowmax_keeps_nan_and_inf(self, dtype, value):
        # row j holds the value at column j, so every column of every fold
        # position is covered; a NaN row's max is NaN, as numpy's is
        for n in range(1, 131):
            x = np.random.default_rng(n).standard_normal((n, n)).astype(dtype)
            np.fill_diagonal(x, value)
            got, want = T._rowmax(x), x.max(axis=-1, keepdims=True)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.isnan(got).all() == np.isnan(value)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 25), (2, 5, 64), (1000, 4), (9, 130)])
    def test_sums_are_within_rounding_of_numpy(self, dtype, shape):
        # each sum stays within n * eps * sum|x| of the f64 sum of its n terms
        x = np.random.default_rng(52).uniform(-1, 1, shape).astype(dtype)
        x64, eps = x.astype(np.float64), np.finfo(dtype).eps
        got, want = T._rowsum(x), x64.sum(axis=-1, keepdims=True)
        assert got.dtype == x.dtype and got.shape == want.shape
        assert (np.abs(got - want) <= shape[-1] * eps * np.abs(x64).sum(axis=-1, keepdims=True)).all()
        if x.ndim >= 2:
            got, want = T._colsum(x), x64.sum(axis=-2)
            assert got.dtype == x.dtype and got.shape == want.shape
            assert (np.abs(got - want) <= shape[-2] * eps * np.abs(x64).sum(axis=-2)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(33, 25), (4, 7, 64), (1000, 9)])
    def test_same_values_give_the_same_bits(self, dtype, shape):
        # runs stay deterministic: the result depends on the values only,
        # not on memory order, strides or the buffer's alignment
        x = np.random.default_rng(53).standard_normal(shape).astype(dtype)
        wide = np.empty(shape[:-1] + (2 * shape[-1],), dtype=dtype)
        wide[..., ::2] = x
        forms = [np.asfortranarray(x), wide[..., ::2]]
        for offset in range(1, 16):
            buf = np.empty(x.size + offset, dtype=dtype)
            forms.append(buf[offset:].reshape(shape))
            forms[-1][...] = x
        for reduce in (T._rowmax, T._rowsum, T._colsum):
            want = reduce(x)
            for form in forms:
                assert np.array_equal(form, x)
                assert reduce(form).tobytes() == want.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_large_logits_do_not_overflow(self):
        out = softmax(Tensor([1000.0, 0.0], dtype="f64"))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = softmax(randt(rng, (7, 5)), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-6)
        assert (out.data >= 0).all()

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = randt(rng, (5,))
        w = Tensor(rng.uniform(-1, 1, (5,)), dtype="f64")
        check_gradients(lambda: T.tsum(softmax(x) * w), [("x", x)])

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            softmax(Tensor(np.zeros((3, 0))))


class TestLayerNorm:
    # the kernel behind both half-blocks' norms
    def test_constant_input_gives_zeros(self):
        x = np.full((2, 8), 3.7, dtype=np.float32)
        out, _, _ = T._layer_norm(x, np.ones(8, np.float32), np.zeros(8, np.float32), 1e-5)
        np.testing.assert_allclose(out, 0.0, atol=1e-4)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (4, 8))
        beta = rng.uniform(-1, 1, (8,))
        out, _, _ = T._layer_norm(x, np.zeros(8), beta, 1e-5)
        np.testing.assert_allclose(out, np.broadcast_to(beta, (4, 8)))

    def test_normalizes_each_slice(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (2, 3, 8))
        out, _, _ = T._layer_norm(x, np.ones(8), np.zeros(8), 1e-5)
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = randt(rng, (3, 6))
        gamma = Tensor(rng.uniform(0.5, 1.5, (6,)), dtype="f64")
        beta = Tensor(rng.uniform(-1, 1, (6,)), dtype="f64")
        w = Tensor(rng.uniform(-1, 1, (3, 6)), dtype="f64")
        check_gradients(
            lambda: T.tsum(layer_norm(x, gamma, beta) * w),
            [("x", x), ("gamma", gamma), ("beta", beta)],
        )


class TestConv2dSoftmax:
    """CARAFE's kernel predictor records its encoder conv, the split into
    kernels and their softmax as one conv2d_softmax entry: bitwise equal to
    the conv2d -> reshape -> softmax composition, without its logits."""

    @staticmethod
    def _operands(dtype, lead):
        rng = np.random.default_rng(40)
        x = randt(rng, (*lead, 5, 6, 3), dtype, True)
        w = randt(rng, (3, 3, 3, 8), dtype, True)
        b = randt(rng, (8,), dtype, True)
        return x, w, b, Tensor(rng.uniform(-1, 1, (*lead, 5, 6, 2, 4)), dtype=dtype)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_equals_composition_bitwise(self, dtype, lead):
        results = []
        for fn in (T.conv2d_softmax, conv2d_softmax_composition):
            x, w, b, g = self._operands(dtype, lead)
            with Tape() as tape:
                y = fn(x, w, b, 4, padding=1)
                loss = T.tsum(y * g)
            backward(loss, tape)
            results.append([y.data, x.grad, w.grad, b.grad])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_entry_keeps_no_logits(self):
        # the softmax runs in place on the conv's output: the only array of
        # the field's size that the entry reaches is the field itself
        x, w, b, _ = self._operands("f32", (2,))
        with Tape() as tape:
            y = T.conv2d_softmax(x, w, b, 4, padding=1)
        (entry,) = tape.entries
        assert entry[3] == "conv2d_softmax"
        held = reachable_arrays(entry[:3])
        assert any(a is y.data for a in held)
        assert [a.shape for a in held if a.size == y.size and not np.shares_memory(a, y.data)] == []

    def test_groups_must_divide_channels(self):
        x, w, b, _ = self._operands("f64", ())
        with pytest.raises(DimensionError):
            T.conv2d_softmax(x, w, b, 3, padding=1)


def _entry_and_gradients(fn, inputs, g):
    """Run one primitive on a tape and its recorded gradient on g; returns
    (output array, gradient arrays)."""
    with Tape() as tape:
        out = fn(*inputs)
    (_, _, grad_fn, _), = tape.entries
    return out.data, grad_fn(g)


class TestInPlaceElementwise:
    """softmax and the layer-norm, MLP (gelu) and stripe-attention kernels
    compute in place; they must stay bitwise equal to the plain expressions
    and write into nothing they were given: not the inputs, not the kept
    output, not the upstream gradient g (passed here as a strided view into
    a larger array, as a shared gradient may be)."""

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
        # identity weights and zero biases make mlp(x) = gelu(x) and its x
        # gradient g * gelu'(x), both exactly: every product is by 1 or 0
        _, x, g = self._inputs(dtype, (5, 9, 37), 30)
        eye, zero = np.eye(37, dtype=x.data.dtype), np.zeros(37, dtype=x.data.dtype)
        x0, g0 = x.data.copy(), g.copy()
        x2 = x.data.reshape(-1, 37)
        y, h = T._mlp(x2, eye, zero, eye, zero)
        y0 = y.copy()
        dx = T._mlp_backward(x2, h, eye, eye, g.reshape(-1, 37))[0]
        want_y, dydx = gelu_naive(x0)
        self._assert_bitwise(y.reshape(x0.shape), want_y)
        self._assert_bitwise(dx.reshape(x0.shape), g0 * dydx)
        for got, before in ((x.data, x0), (g, g0), (y, y0), (eye, np.eye(37, dtype=x0.dtype)), (zero, np.zeros_like(x0[0, 0]))):
            self._assert_bitwise(got, before)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_mlp(self, dtype):
        rng, x, g = self._inputs(dtype, (3, 7, 6), 33)
        given = [x.data] + [randt(rng, shape, dtype).data for shape in ((6, 10), (10,), (10, 5), (5,))]
        g = g[..., :5]
        before, g0 = [a.copy() for a in given], g.copy()
        rows = given[0].reshape(-1, 6)
        y, h = T._mlp(rows, *given[1:])
        grads = T._mlp_backward(rows, h, given[1], given[3], g.reshape(-1, 5))
        x0, w1, b1, w2, b2 = before
        x2, g2 = x0.reshape(-1, 6), g0.reshape(-1, 5)
        a, dadh = gelu_naive(x2 @ w1 + b1)
        dh = (g2 @ w2.T) * dadh
        tol = 1e-5 if dtype == "f32" else 1e-12
        want = (a @ w2 + b2, dh @ w1.T, x2.T @ dh, dh.sum(axis=0), a.T @ g2, g2.sum(axis=0))
        for got, ref in zip((y, *grads), want):
            assert got.dtype == x.data.dtype and got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=tol, atol=tol)
        for a, ref in zip(given, before):
            self._assert_bitwise(a, ref)
        self._assert_bitwise(g, g0)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("lepe_on", [False, True])
    @pytest.mark.parametrize("sw", [1, 2])
    def test_stripe_attention(self, dtype, lepe_on, sw):
        # the output and every gradient equal the composition's bitwise,
        # computed from copies taken before the primitive ran
        rng, x, g = self._inputs(dtype, (4, 6, 8), 34)
        given = [x.data, randt(rng, (2, 6, 8, 2), dtype).data, randt(rng, (8, 8), dtype).data]
        given += [randt(rng, (2, 2, 3, 3, 2), dtype).data if lepe_on else None]
        before, g0 = [None if a is None else a.copy() for a in given], g.copy()
        y, kept = T._stripe(*given, sw)
        grads = T._stripe_backward(*given, sw, kept, g)
        want = stripe_attention_composition(*before, sw, g0)
        for got, ref in zip((y.reshape(x.shape), *grads), want):
            self._assert_bitwise(got, ref)
        for a, ref in zip(given, before):
            if a is not None:
                self._assert_bitwise(a, ref)
        self._assert_bitwise(g, g0)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("axis", [-1, 0, 1])
    def test_softmax(self, dtype, axis):
        _, x, g = self._inputs(dtype, (6, 11, 37), 31)
        x0, g0 = x.data.copy(), g.copy()
        y, (dx,) = _entry_and_gradients(lambda t: softmax(t, axis=axis), (x,), g)
        y0 = y.copy()
        want_y, want_dx = softmax_naive(x0, g0, axis)
        self._assert_bitwise(y, want_y)
        self._assert_bitwise(dx, want_dx)
        for got, before in ((x.data, x0), (g, g0), (y, y0)):
            self._assert_bitwise(got, before)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_layer_norm(self, dtype):
        rng, x, g = self._inputs(dtype, (4, 13, 37), 32)
        gamma = Tensor(rng.uniform(0.5, 1.5, (37,)), dtype=dtype).data
        beta = Tensor(rng.uniform(-1, 1, (37,)), dtype=dtype).data
        x0, g0 = x.data.copy(), g.copy()
        y, mean, inv = T._layer_norm(x.data, gamma, beta, 1e-5)
        y0 = y.copy()
        dx, dgamma, dbeta = T._layer_norm_backward(T._xhat(x.data, mean, inv), gamma, inv, g)
        want = layer_norm_naive(x0, gamma, beta, g0)
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


def _kept_sizes(grad_fn, inputs):
    """Sizes of the arrays a gradient closure keeps beyond its inputs' data."""
    given = [t.data for t in inputs]
    return sorted(a.size for a in reachable_arrays(grad_fn) if not any(np.shares_memory(a, d) for d in given))


def _stripe_inputs(rng, h, w, c, n, lepe_on, dtype="f64"):
    """x [h,w,c], wqkv, wo and (or None) lepe for 2n heads of c/(2n) channels."""
    d = c // (2 * n)
    x = randt(rng, (h, w, c), dtype, True)
    wqkv, wo = randt(rng, (2, 3 * n, c, d), dtype, True), randt(rng, (c, c), dtype, True)
    return x, wqkv, wo, randt(rng, (2, n, 3, 3, d), dtype, True) if lepe_on else None


class TestAttention:
    # the kernels behind the attention half-block, and its tape entry
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        for shape in [(3, 2, 5, 4), (3, 1, 7, 3)]:
            qkv = rng.uniform(-2, 2, shape)
            out, p = T._attend(qkv)
            np.testing.assert_allclose(out, attention_naive(qkv), rtol=0, atol=1e-12)
            assert p.shape == shape[1:3] + shape[2:3]
            np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_gradient(self):
        # the backward kernel against central differences of the forward one
        rng = np.random.default_rng(13)
        qkv = randt(rng, (3, 2, 4, 3))
        w = rng.uniform(-1, 1, (2, 4, 3))
        out, p = T._attend(qkv.data)
        analytic = T._attend_backward(qkv.data, p, w)
        assert analytic.shape == qkv.shape
        numeric = numeric_grad(lambda: Tensor(np.sum(T._attend(qkv.data)[0] * w)), qkv, range(qkv.size))
        np.testing.assert_allclose(analytic.reshape(-1), numeric, rtol=1e-6, atol=1e-9)

    def test_keeps_only_probabilities_and_gives_one_gradient(self):
        # one entry that keeps the norm's mean and 1/std per row, each group's
        # q|k|v and probabilities and the merged heads: no normalized or
        # transposed map, attention outputs or LePE gathers
        h, w, c, n, sw = 4, 6, 8, 2, 2
        d = c // (2 * n)
        qkv, probs = 3 * h * w * n * d, [(h // sw) * n * (sw * w) ** 2, (w // sw) * n * (sw * h) ** 2]
        for lepe_on in (False, True):
            rng = np.random.default_rng(14)
            x, wqkv, wo, lepe = _stripe_inputs(rng, h, w, c, n, lepe_on)
            gamma, beta = randt(rng, (c,), requires_grad=True), randt(rng, (c,), requires_grad=True)
            with Tape() as tape:
                y = T.residual_stripe_attention(x, gamma, beta, wqkv, wo, lepe, sw)
            (inputs, out, grad_fn, op), = tape.entries
            assert op == "stripe_attention" and out is y and y.shape == (h, w, c)
            assert inputs == ((x, gamma, beta, wqkv, wo) if lepe is None else (x, gamma, beta, wqkv, wo, lepe))
            assert _kept_sizes(grad_fn, inputs) == sorted([qkv, qkv, h * w * c, h * w, h * w] + probs)
            grads = grad_fn(np.ones(y.shape))
            assert [gi.shape for gi in grads] == [t.shape for t in inputs]

    def test_rejects_unstacked_input(self):
        rng = np.random.default_rng(15)
        x, wqkv, wo, lepe = _stripe_inputs(rng, 4, 4, 8, 2, True)
        gamma, beta = Tensor.ones((8,), "f64"), Tensor.zeros((8,), "f64")
        bad = [
            (Tensor.zeros((4, 8)), wqkv, wo, None, 2),
            (x, Tensor.zeros((3, 6, 8, 2)), wo, None, 2),
            (x, Tensor.zeros((2, 6, 8, 3)), wo, None, 2),
            (x, wqkv, Tensor.zeros((8, 4)), None, 2),
            (x, wqkv, wo, Tensor.zeros((2, 2, 2, 2, 2)), 2),
            (x, wqkv, wo, Tensor.zeros((2, 2, 3, 3, 1)), 2),
            (x, wqkv, wo, None, 3),
        ]
        for bx, bwqkv, bwo, blepe, bsw in bad:
            with pytest.raises(DimensionError, match="residual_stripe_attention"):
                T.residual_stripe_attention(bx, gamma, beta, bwqkv, bwo, blepe, bsw)


def _lepe_term(x, wqkv, lepe, sw):
    """What the LePE kernels add to the stripe-attention kernel with wo = I:
    the merged [H, W, C] depthwise convolutions of each head's values in its
    stripes."""
    eye = np.eye(x.shape[2], dtype=x.data.dtype)
    attend = lambda ld: T._stripe(x.data, wqkv.data, eye, ld, sw)[0].reshape(x.shape)
    return attend(lepe.data) - attend(None)


class TestDepthwiseConv2d:
    # the LePE term: a k x k depthwise convolution of v inside each stripe,
    # zero outside it, through the stripe-attention kernels
    def test_center_delta_is_identity(self):
        rng = np.random.default_rng(12)
        x, wqkv, _, lepe = _stripe_inputs(rng, 4, 6, 8, 2, True)
        lepe.data[...] = 0.0
        lepe.data[:, :, 1, 1, :] = 1.0
        got = _lepe_term(x, wqkv, lepe, 2)
        for gi in (0, 1):
            for i in range(2):  # v of head i of group gi fills channels (2*gi + i)*d onwards
                want = x.data @ wqkv.data[gi, 4 + i]
                np.testing.assert_allclose(got[..., (2 * gi + i) * 2 : (2 * gi + i + 1) * 2], want, atol=1e-12)

    def test_box_filter_on_constant(self):
        # a 1/9 box filter of a constant v counts each pixel's neighbors inside
        # its stripe: horizontal stripes cut rows, vertical stripes columns
        h, w, sw = 6, 6, 3
        rng = np.random.default_rng(13)
        _, wqkv, _, lepe = _stripe_inputs(rng, h, w, 8, 2, True)
        lepe.data[...] = 1.0 / 9.0
        x = Tensor(np.broadcast_to(rng.uniform(-1, 1, 8), (h, w, 8)).copy())
        got = _lepe_term(x, wqkv, lepe, sw)
        inside = lambda i, n: np.array([sum(0 <= i[p] + a < n for a in (-1, 0, 1)) for p in range(len(i))])
        rows, cols = np.arange(h), np.arange(w)
        counts = [np.outer(inside(rows % sw, sw), inside(cols, w)), np.outer(inside(rows, h), inside(cols % sw, sw))]
        for gi in (0, 1):
            for i in range(2):
                v = x.data[0, 0] @ wqkv.data[gi, 4 + i]
                want = counts[gi][..., None] / 9.0 * v
                np.testing.assert_allclose(got[..., (2 * gi + i) * 2 : (2 * gi + i + 1) * 2], want, atol=1e-12)

    def test_matches_naive_loop(self):
        # each stripe of each head against the loop oracle, kernels given in
        # the (H, W) geometry for both groups
        h, w, sw = 4, 6, 2
        rng = np.random.default_rng(14)
        x, wqkv, _, lepe = _stripe_inputs(rng, h, w, 8, 2, True)
        got = _lepe_term(x, wqkv, lepe, sw)
        for gi in (0, 1):
            for i in range(2):
                v = x.data @ wqkv.data[gi, 4 + i]
                want = np.zeros_like(v)
                for s in range((h if gi == 0 else w) // sw):
                    rows = slice(s * sw, (s + 1) * sw) if gi == 0 else slice(None)
                    cols = slice(None) if gi == 0 else slice(s * sw, (s + 1) * sw)
                    want[rows, cols] = depthwise_conv2d_naive(v[rows, cols], lepe.data[gi, i], padding=1)
                np.testing.assert_allclose(got[..., (2 * gi + i) * 2 : (2 * gi + i + 1) * 2], want, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(15)
        for sw in (1, 2):
            x, wqkv, wo, lepe = _stripe_inputs(rng, 4, 6, 8, 2, True)
            w = Tensor(rng.uniform(-1, 1, (4, 6, 8)))
            check_gradients(
                lambda: T.tsum(stripe_attention(x, wqkv, wo, lepe, sw) * w),
                [("x", x), ("wqkv", wqkv), ("wo", wo), ("lepe", lepe)],
            )


class TestPatches:
    # the im2col gather behind conv2d, reassemble and the LePE term
    @pytest.mark.parametrize("lead, k, stride, padding", [((), 1, 1, 0), ((), 3, 1, 1), ((2,), 3, 2, 1), ((), 5, 1, 2), ((2, 3), 7, 4, 2)])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_gather_equals_one_copy_per_tap(self, lead, k, stride, padding, dtype):
        x = np.random.default_rng(17).uniform(-1, 1, (*lead, 9, 8, 3)).astype(T.DTYPES[dtype])
        got, _ = T._im2col(x, k, k, stride, padding)
        assert got.flags["C_CONTIGUOUS"] and got.dtype == x.dtype
        np.testing.assert_array_equal(got, im2col_taps(x, k, stride, padding))

    @pytest.mark.parametrize("lead, k, stride, padding", [((), 3, 1, 1), ((2, 3), 3, 2, 1), ((2,), 5, 1, 2)])
    def test_scatter_is_the_adjoint(self, lead, k, stride, padding):
        # <im2col(x), g> == <x, scatter(g)> for every x and g
        rng = np.random.default_rng(18)
        x = rng.uniform(-1, 1, (*lead, 9, 8, 3))
        cols, scatter = T._im2col(x, k, k, stride, padding)
        g = rng.uniform(-1, 1, cols.shape)
        gx = scatter(g)
        assert gx.shape == x.shape and gx.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(np.sum(x * gx), np.sum(cols * g), rtol=1e-12)


class TestKeptArrays:
    # what entries keep beyond their inputs
    def test_layer_norm_keeps_input_mean_and_inverse_std(self):
        # the layer-norm kernel as a stand-alone entry: its statistics are
        # one mean and one 1/std per row, and backward rebuilds x-hat
        rng = np.random.default_rng(19)
        x, gamma, beta = randt(rng, (4, 5, 6), "f32", True), randt(rng, (6,), "f32", True), randt(rng, (6,), "f32", True)
        with Tape() as tape:
            layer_norm(x, gamma, beta)
        (inputs, _, grad_fn, _), = tape.entries
        assert _kept_sizes(grad_fn, inputs) == [20, 20]  # no x-hat

    def test_mlp_keeps_only_the_pre_activation(self):
        # the MLP half-block: one mean and one 1/std per row (no x-hat) and
        # the pre-activation h (not gelu(h))
        rng = np.random.default_rng(20)
        shapes = ((4, 5, 6), (6,), (6,), (6, 10), (10,), (10, 6), (6,))
        given = [randt(rng, shape, "f32", True) for shape in shapes]
        with Tape() as tape:
            y = T.residual_mlp(*given)
        (inputs, out, grad_fn, op), = tape.entries
        assert op == "mlp" and out is y and y.shape == (4, 5, 6)
        assert _kept_sizes(grad_fn, inputs) == [20, 20, 20 * 10]


    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_conv2d_keeps_no_im2col(self, k, stride, pad):
        # backward gathers the patches again from x
        rng = np.random.default_rng(21)
        given = [randt(rng, (6, 6, 4), "f32", True), randt(rng, (k, k, 4, 5), "f32", True), randt(rng, (5,), "f32", True)]
        with Tape() as tape:
            T.conv2d(*given, stride=stride, padding=pad)
        (inputs, _, grad_fn, _), = tape.entries
        assert _kept_sizes(grad_fn, inputs) == []


def _half_block(kind, rng, dtype, lepe_on=False, sw=2):
    """(half-block, the composed f it fuses, inputs): x [4, 6, 8] and the
    layer norm's affine, then f's weights."""
    ln = [randt(rng, (8,), dtype, True), randt(rng, (8,), dtype, True)]
    if kind == "mlp":
        weights = [randt(rng, shape, dtype, True) for shape in ((8, 12), (12,), (12, 8), (8,))]
        return T.residual_mlp, mlp, weights, ln
    _, wqkv, wo, lepe = _stripe_inputs(rng, 4, 6, 8, 2, lepe_on, dtype)
    fused = lambda x, gamma, beta, wqkv, wo, *lepe: T.residual_stripe_attention(x, gamma, beta, wqkv, wo, *(lepe or [None]), sw)
    composed = lambda y, wqkv, wo, *lepe: stripe_attention(y, wqkv, wo, *(lepe or [None]), sw)
    return fused, composed, [wqkv, wo] + ([lepe] if lepe_on else []), ln


_HALF_BLOCKS = [("mlp", False, 2)] + [("attention", lepe_on, sw) for lepe_on in (False, True) for sw in (1, 2)]


class TestResidualHalfBlocks:
    """x + f(layer_norm(x)) as one entry, for f the MLP or stripe attention:
    bitwise equal to the three stand-alone entries of the same kernels
    (``oracles.layer_norm``, f, add), keeping neither layer_norm(x) nor f's
    output."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("kind, lepe_on, sw", _HALF_BLOCKS)
    def test_equals_the_composition(self, dtype, kind, lepe_on, sw):
        rng, x, g = TestInPlaceElementwise._inputs(dtype, (4, 6, 8), 40)
        fused, composed, weights, ln = _half_block(kind, rng, dtype, lepe_on, sw)
        given = [x] + ln + weights
        before, g0 = [t.data.copy() for t in given], g.copy()
        y, grads = _entry_and_gradients(fused, given, g)
        # the composition on its own tape, its gradients from backward
        leaves = [Tensor(a.copy(), requires_grad=True) for a in before]
        with Tape() as tape:
            out = T.add(leaves[0], composed(layer_norm(*leaves[:3]), *leaves[3:]))
            loss = T.tsum(T.mul(out, Tensor(g0.copy())))
        backward(loss, tape)
        want = [out.data] + [t.grad for t in leaves]
        assert len(grads) == len(leaves)
        for got, ref in zip((y, *grads), want):
            TestInPlaceElementwise._assert_bitwise(got, ref)
        for t, ref in zip(given, before):
            TestInPlaceElementwise._assert_bitwise(t.data, ref)
        TestInPlaceElementwise._assert_bitwise(g, g0)

    @pytest.mark.parametrize("kind, lepe_on, sw", _HALF_BLOCKS)
    def test_keeps_x_statistics_and_what_f_reads(self, kind, lepe_on, sw):
        # the half keeps what f's own entry keeps, plus one mean and one
        # 1/std per row; f's entry keeps neither its input nor its output
        rng = np.random.default_rng(41)
        fused, composed, weights, ln = _half_block(kind, rng, "f32", lepe_on, sw)
        x = randt(rng, (4, 6, 8), "f32", True)
        with Tape() as tape:
            y = fused(x, *ln, *weights)
            composed(x, *weights)
        (inputs, out, grad_fn, op), (f_inputs, _, f_grad_fn, f_op) = tape.entries
        assert op == f_op == ("mlp" if kind == "mlp" else "stripe_attention") and out is y
        assert inputs == (x, *ln, *weights)
        assert _kept_sizes(grad_fn, inputs) == sorted(_kept_sizes(f_grad_fn, f_inputs) + [24, 24])
        if kind == "mlp":
            assert x.size not in _kept_sizes(grad_fn, inputs)

    def test_rejects_mismatched_shapes(self):
        rng = np.random.default_rng(42)
        x, gamma, beta = randt(rng, (4, 6, 8)), randt(rng, (8,)), randt(rng, (8,))
        w1, b1, w2, b2 = randt(rng, (8, 12)), randt(rng, (12,)), randt(rng, (12, 5)), randt(rng, (5,))
        with pytest.raises(DimensionError, match="residual_mlp"):
            T.residual_mlp(x, gamma, beta, w1, b1, w2, b2)
        with pytest.raises(DimensionError, match="residual_mlp"):
            T.residual_mlp(x, randt(rng, (6,)), beta, w1, b1, randt(rng, (12, 8)), randt(rng, (8,)))
        _, wqkv, wo, _ = _stripe_inputs(rng, 4, 6, 8, 2, False)
        with pytest.raises(DimensionError, match="residual_stripe_attention"):
            T.residual_stripe_attention(x, gamma, beta, wqkv, wo, None, 4)
        with pytest.raises(DimensionError, match="residual_stripe_attention"):
            T.residual_stripe_attention(x, gamma, randt(rng, (4,)), wqkv, wo, None, 2)


class TestStructural:
    def test_split_concat_roundtrip(self):
        x = np.arange(1.0, 7.0)
        back = T.concat([Tensor(p) for p in np.split(x, [2, 4])], axis=0)
        np.testing.assert_array_equal(back.data, x)

    def test_permute_roundtrip_bitwise(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.uniform(-1, 1, (3, 4, 5)))
        back = T.permute(T.permute(x, (2, 0, 1)), (1, 2, 0))
        assert (back.data == x.data).all()

    def test_reshape_is_a_view(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.shares_memory(T.reshape(x, (2, 6)).data, x.data)

    def test_gelu_zero(self):
        eye, zero = np.eye(2), np.zeros(2)
        assert (T._mlp(np.zeros((1, 2)), eye, zero, eye, zero)[0] == 0.0).all()

    def test_gelu_gradient(self):
        # an mlp whose gelu sees pre-activations across [-4, 4]
        rng = np.random.default_rng(16)
        x = randt(rng, (3, 3), requires_grad=True)
        w1, b1 = Tensor(rng.uniform(-2, 2, (3, 5))), randt(rng, (5,))
        w2, b2 = randt(rng, (5, 2)), randt(rng, (2,))
        named = [("x", x), ("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)]
        check_gradients(lambda: T.tsum(mlp(x, w1, b1, w2, b2)), named)

    def test_permute_gradient(self):
        rng = np.random.default_rng(17)
        x = randt(rng, (3, 4, 2))
        w = Tensor(rng.uniform(-1, 1, (2, 3, 4)), dtype="f64")
        check_gradients(lambda: T.tsum(T.permute(x, (2, 0, 1)) * w), [("x", x)])

    def test_concat_gradient(self):
        rng = np.random.default_rng(18)
        x, y = randt(rng, (2, 2)), randt(rng, (3, 2))
        w = Tensor(rng.uniform(-1, 1, (5, 2)), dtype="f64")
        check_gradients(lambda: T.tsum(T.concat([T.mul(x, x), y], axis=0) * w), [("x", x), ("y", y)])

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


def _bilinear(x, factor):
    """Bilinear upsampling as the network runs it: ``reassemble`` under the
    fixed field, broadcast over x's leading axes."""
    field = bilinear_field(*x.shape[-3:-1], factor, x.data.dtype)
    return T.reassemble(x, Tensor(np.broadcast_to(field, (*x.shape[:-1], *field.shape[-2:]))))


class TestUpsample:
    def test_bilinear_constant_preserved(self):
        for factor in (1, 2, 3, 4):
            field = bilinear_field(3, 4, factor, np.float64)
            assert field.shape == (3, 4, factor * factor, 9)
            np.testing.assert_allclose(field.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        x = Tensor(np.full((3, 3, 2), 1.25))
        out = _bilinear(x, 2)
        np.testing.assert_allclose(out.data, 1.25, atol=1e-6)

    def test_bilinear_matches_four_corner_oracle(self):
        # borders, non-square and one-pixel-wide maps, with and without a batch axis
        rng = np.random.default_rng(21)
        for shape in ((5, 3, 2), (1, 4, 3), (4, 1, 2), (1, 1, 2), (2, 5, 3, 2)):
            x = rng.uniform(-1, 1, shape)
            for dtype, tol in (("f64", 1e-12), ("f32", 1e-6)):
                xt = Tensor(x, dtype=dtype)
                for factor in (1, 2, 3, 4):
                    got = _bilinear(xt, factor)
                    h, w, c = shape[-3:]
                    assert got.shape == (*shape[:-3], h * factor, w * factor, c) and got.dtype == dtype
                    images = xt.data.reshape(-1, h, w, c)
                    want = np.stack([upsample_bilinear_naive(im, factor) for im in images]).reshape(got.shape)
                    err = np.abs(got.data - want).max() / np.abs(want).max()
                    assert err <= tol, f"{shape} {dtype} factor {factor}: relative error {err:.2e}"

    def test_bilinear_gradient(self):
        rng = np.random.default_rng(20)
        x = randt(rng, (3, 4, 2))
        w = Tensor(rng.uniform(-1, 1, (6, 8, 2)), dtype="f64")
        check_gradients(lambda: T.tsum(_bilinear(x, 2) * w), [("x", x)])


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


class TestNaNReachesBackward:
    """A NaN passes through every row max and sum to the output of the op
    it enters, so backward's scan names that op."""

    @pytest.mark.parametrize("sw", [1, 2])
    def test_stripe_attention(self, sw):
        rng = np.random.default_rng(61)
        x, wqkv, wo, _ = _stripe_inputs(rng, 4, 6, 8, 2, False, "f32")
        gamma, beta = randt(rng, (8,), "f32", True), randt(rng, (8,), "f32", True)
        x.data[1, 2, 5] = np.nan
        with np.errstate(invalid="ignore"), Tape() as tape:
            loss = T.tsum(T.residual_stripe_attention(x, gamma, beta, wqkv, wo, None, sw))
        with pytest.raises(NumericError, match="op 'stripe_attention'"):
            backward(loss, tape)

    def test_conv2d_softmax(self):
        x, w, b, g = TestConv2dSoftmax._operands("f32", (2,))
        w.data[1, 1, 0, 3] = np.nan
        with np.errstate(invalid="ignore"), Tape() as tape:
            loss = T.tsum(T.conv2d_softmax(x, w, b, 4, padding=1) * g)
        with pytest.raises(NumericError, match="op 'conv2d_softmax'"):
            backward(loss, tape)


class TestDeterminism:
    def test_forward_bitwise_reproducible(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)

        def run(rng):
            x = Tensor(rng.standard_normal((8, 8, 3)), dtype="f32")
            w = Tensor(rng.standard_normal((3, 3, 3, 4)), dtype="f32")
            return T.conv2d(softmax(x), w, Tensor.zeros((4,)), padding=1).data

        assert (run(rng1) == run(rng2)).all()


class TestTSR1:
    def test_roundtrip_bitwise(self):
        rng = np.random.default_rng(21)
        for dtype in ("f32", "f64"):
            t = Tensor(rng.standard_normal((3, 4, 5)), dtype=dtype)
            back = read_bytes(b"".join(T.tensor_record(t)))
            assert back.dtype == dtype
            assert back.shape == t.shape
            assert (back.data == t.data).all()

    def test_scalar_rank_zero(self):
        t = Tensor(np.asarray(3.5))
        back = read_bytes(b"".join(T.tensor_record(t)))
        assert back.shape == ()
        assert back.item() == 3.5

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="bad magic"):
            read_bytes(b"JUNK0000" + b"\x00" * 16)

    def test_truncation(self):
        buf = b"".join(T.tensor_record(Tensor(np.ones((4, 4)))))
        with pytest.raises(FormatError, match="truncated"):
            read_bytes(buf[:-3])
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
