import numpy as np
import pytest

from cswin_seg import tensor as T
from cswin_seg.attention import AttentionConfig, CSWinBlockParams, cswin_block
from cswin_seg.errors import ConfigError
from cswin_seg.gradcheck import check_gradients
from cswin_seg.initializers import seeded
from cswin_seg.tensor import Tape, Tensor, tsum

from oracles import cross_window_attention, dense_attention, per_head


def make_params(rng, config, mlp_ratio=4, dtype="f64"):
    return CSWinBlockParams.create(seeded(rng, dtype), "b", config, mlp_ratio=mlp_ratio)


def randx(rng, h, w, c, dtype="f64"):
    return Tensor(rng.uniform(-1, 1, (h, w, c)), dtype=dtype)


def setup(rng, h, w, c, n, sw, lepe=False):
    """Input, parameters with wo = I and config: the output's channels [:C/2]
    are then the horizontal heads and [C/2:] the vertical heads."""
    config = AttentionConfig(heads=n, sw=sw, channels=c, lepe_enabled=lepe)
    params = make_params(rng, config)
    params.wo = Tensor(np.eye(c), requires_grad=True)
    return randx(rng, h, w, c), params, config


def attention(x, params, config):
    """The stripe-attention kernel a block's attention half runs, applied to
    x itself (no norm, no residual): [H,W,C] -> [H,W,C]."""
    lepe = None if params.lepe is None else params.lepe.data
    return T._stripe(x.data, params.wqkv.data, params.wo.data, lepe, config.sw)[0].reshape(x.shape)


def groups(x, params, config):
    out = attention(x, params, config)
    half = config.channels // 2
    return out[..., :half], out[..., half:]


class TestPartition:
    """Stripe geometry: what each output token can see."""

    def test_two_stripes_at_stage3_geometry(self):
        rng = np.random.default_rng(0)
        x, params, config = setup(rng, 14, 14, 8, 4, 7)
        h_base, v_base = groups(x, params, config)
        xp = x.data.copy()
        xp[7:, 7:] += 1.0  # the second stripe of both groups
        h_out, v_out = groups(Tensor(xp), params, config)
        np.testing.assert_allclose(h_out[:7], h_base[:7], atol=1e-12)
        np.testing.assert_allclose(v_out[:, :7], v_base[:, :7], atol=1e-12)
        assert np.abs(h_out[7:] - h_base[7:]).min() > 0
        assert np.abs(v_out[:, 7:] - v_base[:, 7:]).min() > 0

    def test_single_stripe_degenerate(self):
        # sw = H: the horizontal group is one stripe of every token
        rng = np.random.default_rng(1)
        x, params, config = setup(rng, 2, 6, 4, 2, 2)
        h_out, _ = groups(x, params, config)
        wq, wk, wv = per_head(params.wqkv.data, 3)
        want = dense_attention(x.data.reshape(12, 4), wq[0], wk[0], wv[0])
        np.testing.assert_allclose(h_out, want.reshape(2, 6, 2), atol=1e-10)

    def test_roundtrip_bitwise(self):
        # one token per stripe and value heads that pick channels: each token's
        # channels come back in place through the stripe batch and head merge
        rng = np.random.default_rng(2)
        for h, w, part in ((5, 1, slice(0, 4)), (1, 5, slice(4, 8))):
            x, params, config = setup(rng, h, w, 8, 4, 1)
            eye = np.eye(8)
            for head in range(4):
                g, i = divmod(head, 2)
                params.wqkv.data[g, 4 + i] = eye[:, head * 2 : head * 2 + 2]
            out = attention(x, params, config)
            np.testing.assert_array_equal(out[..., part], x.data[..., part])

    def test_covers_grid_disjointly(self):
        # nudging one token moves exactly the tokens of its two stripes
        rng = np.random.default_rng(3)
        x, params, config = setup(rng, 8, 6, 4, 2, 2)
        h_base, v_base = groups(x, params, config)
        xp = x.data.copy()
        xp[5, 3] += 1.0
        h_out, v_out = groups(Tensor(xp), params, config)
        h_moved = np.abs(h_out - h_base).max(axis=-1) > 1e-12
        v_moved = np.abs(v_out - v_base).max(axis=-1) > 1e-12
        want_h = np.zeros((8, 6), dtype=bool)
        want_h[4:6, :] = True
        want_v = np.zeros((8, 6), dtype=bool)
        want_v[:, 2:4] = True
        np.testing.assert_array_equal(h_moved, want_h)
        np.testing.assert_array_equal(v_moved, want_v)

    def test_non_divisible_rejected(self):
        rng = np.random.default_rng(4)
        for h, w in ((6, 8), (8, 6)):
            x, params, config = setup(rng, h, w, 4, 2, 4)
            with pytest.raises(ConfigError):
                cswin_block(x, params, config)


class TestStripeAttention:
    """Attention inside one stripe."""

    def test_single_token(self):
        rng = np.random.default_rng(4)
        x, params, config = setup(rng, 1, 1, 6, 2, 1)
        _, _, wv = per_head(params.wqkv.data, 3)
        out = attention(x, params, config).reshape(6)
        np.testing.assert_allclose(out, np.concatenate([x.data.reshape(6) @ wv[0], x.data.reshape(6) @ wv[1]]), atol=1e-12)

    def test_zero_scores_average_values(self):
        rng = np.random.default_rng(5)
        x, params, config = setup(rng, 2, 4, 4, 2, 2)
        params.wqkv.data[:, :2] = 0.0  # queries and keys of both heads
        _, _, wv = per_head(params.wqkv.data, 3)
        h_out, v_out = groups(x, params, config)
        vals = x.data @ wv[0]
        np.testing.assert_allclose(h_out, np.broadcast_to(vals.mean(axis=(0, 1)), (2, 4, 2)), atol=1e-10)
        vals = x.data @ wv[1]
        for s in range(2):
            stripe = vals[:, 2 * s : 2 * s + 2]
            np.testing.assert_allclose(v_out[:, 2 * s : 2 * s + 2], np.broadcast_to(stripe.mean(axis=(0, 1)), (2, 2, 2)), atol=1e-10)

    def test_matches_dense_oracle(self):
        # a 1 x 6 map with sw = 1: one horizontal stripe of six tokens, six
        # single-token vertical stripes
        rng = np.random.default_rng(6)
        x, params, config = setup(rng, 1, 6, 8, 2, 1)
        wq, wk, wv = per_head(params.wqkv.data, 3)
        h_out, v_out = groups(x, params, config)
        tokens = x.data.reshape(6, 8)
        np.testing.assert_allclose(h_out.reshape(6, 4), dense_attention(tokens, wq[0], wk[0], wv[0]), atol=1e-6)
        np.testing.assert_allclose(v_out.reshape(6, 4), tokens @ wv[1], atol=1e-6)


class TestGroupAttention:
    """Each head group against the per-stripe oracle, read from the output's
    channel halves."""

    def test_full_height_stripe_equals_global(self):
        rng = np.random.default_rng(7)
        x, params, config = setup(rng, 4, 4, 8, 2, 4)
        h_out, _ = groups(x, params, config)
        wq, wk, wv = per_head(params.wqkv.data, 3)
        want = dense_attention(x.data.reshape(16, 8), wq[0], wk[0], wv[0])
        np.testing.assert_allclose(h_out, want.reshape(4, 4, 4), atol=1e-10)

    def test_two_heads_single_horizontal(self):
        rng = np.random.default_rng(8)
        x, params, config = setup(rng, 6, 4, 8, 2, 2)
        h_out, _ = groups(x, params, config)
        assert h_out.shape == (6, 4, 4)  # one head of width C/2
        wq, wk, wv = per_head(params.wqkv.data, 3)
        for s in range(3):
            stripe = x.data[s * 2 : (s + 1) * 2].reshape(-1, 8)
            want = dense_attention(stripe, wq[0], wk[0], wv[0])
            np.testing.assert_allclose(h_out[s * 2 : (s + 1) * 2].reshape(-1, 4), want, atol=1e-10)

    def test_horizontal_vs_per_stripe_oracle(self):
        rng = np.random.default_rng(9)
        x, params, config = setup(rng, 8, 8, 8, 4, 2)
        h_out, _ = groups(x, params, config)
        wq, wk, wv = per_head(params.wqkv.data, 3)
        d = config.head_dim
        for head in range(2):
            for s in range(4):
                stripe = x.data[s * 2 : (s + 1) * 2, :, :].reshape(-1, 8)
                want = dense_attention(stripe, wq[head], wk[head], wv[head])
                got = h_out[s * 2 : (s + 1) * 2, :, head * d : (head + 1) * d].reshape(-1, d)
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_vertical_is_transposed_horizontal(self):
        # swapping the groups' weights and transposing the map swaps the
        # groups' outputs; with LePE the kernels transpose along
        rng = np.random.default_rng(10)
        x, params, config = setup(rng, 8, 4, 8, 2, 4, lepe=True)
        swapped = make_params(rng, config)
        swapped.wo = params.wo
        swapped.wqkv = Tensor(params.wqkv.data[::-1])
        swapped.lepe = Tensor(params.lepe.data[::-1].swapaxes(2, 3))
        h_out, v_out = groups(x, params, config)
        xt = Tensor(x.data.transpose(1, 0, 2))
        h_t, v_t = groups(xt, swapped, config)
        np.testing.assert_allclose(v_out, h_t.transpose(1, 0, 2), atol=1e-12)
        np.testing.assert_allclose(h_out, v_t.transpose(1, 0, 2), atol=1e-12)

    def test_vertical_vs_oracle(self):
        rng = np.random.default_rng(11)
        x, params, config = setup(rng, 8, 8, 8, 4, 4)
        _, v_out = groups(x, params, config)
        wq, wk, wv = per_head(params.wqkv.data, 3)
        d = config.head_dim
        for idx, head in enumerate(range(2, 4)):
            for s in range(2):
                stripe = x.data[:, s * 4 : (s + 1) * 4, :].reshape(-1, 8)
                want = dense_attention(stripe, wq[head], wk[head], wv[head])
                got = v_out[:, s * 4 : (s + 1) * 4, idx * d : (idx + 1) * d].reshape(-1, d)
                np.testing.assert_allclose(got, want, atol=1e-10)


class TestCSWinAttention:
    def test_degenerate_two_head_dense(self):
        rng = np.random.default_rng(12)
        x, params, config = setup(rng, 4, 4, 6, 2, 4)
        out = attention(x, params, config)
        want = cross_window_attention(x.data, *per_head(params.wqkv.data, 3), np.eye(6), 4)
        np.testing.assert_allclose(out, want, atol=1e-10)

    def test_shape_contract(self):
        rng = np.random.default_rng(13)
        for h, w, c, n, sw in [(4, 4, 8, 2, 2), (6, 6, 12, 6, 3), (8, 4, 8, 4, 4)]:
            if h % sw or w % sw:
                continue
            config = AttentionConfig(heads=n, sw=sw, channels=c)
            params = make_params(rng, config)
            x = randx(rng, h, w, c)
            assert attention(x, params, config).shape == (h, w, c)

    def test_matches_oracle_stage3_geometry(self):
        rng = np.random.default_rng(14)
        config = AttentionConfig(heads=4, sw=7, channels=8)
        params = make_params(rng, config)
        x = randx(rng, 14, 14, 8)
        out = attention(x, params, config)
        want = cross_window_attention(x.data, *per_head(params.wqkv.data, 3), params.wo.data, 7)
        np.testing.assert_allclose(out, want, atol=1e-8)

    def test_matches_oracle_with_lepe(self):
        rng = np.random.default_rng(21)
        for h, w, n, sw in ((8, 4, 4, 2), (6, 6, 2, 3), (4, 8, 4, 4)):
            config = AttentionConfig(heads=n, sw=sw, channels=8, lepe_enabled=True)
            params = make_params(rng, config)
            params.lepe.data[...] = rng.uniform(-1, 1, params.lepe.shape)  # asymmetric, order-one kernels
            x = randx(rng, h, w, 8)
            out = attention(x, params, config)
            (lepe,) = per_head(params.lepe.data, 1)
            want = cross_window_attention(x.data, *per_head(params.wqkv.data, 3), params.wo.data, sw, lepe=lepe)
            np.testing.assert_allclose(out, want, atol=1e-10, err_msg=f"{h}x{w} N={n} sw={sw}")

    def test_permutation_equivariance_within_stripe(self):
        # no positional term: permuting tokens inside one stripe permutes outputs
        rng = np.random.default_rng(15)
        x, params, config = setup(rng, 4, 3, 6, 2, 1)
        base, _ = groups(x, params, config)
        perm = rng.permutation(3)  # tokens of horizontal stripe 1
        xp = x.data.copy()
        xp[1] = xp[1][perm]
        out, _ = groups(Tensor(xp), params, config)
        np.testing.assert_allclose(out[1], base[1][perm], atol=1e-10)
        np.testing.assert_allclose(np.delete(out, 1, axis=0), np.delete(base, 1, axis=0), atol=1e-12)

    def test_head_groups_independent(self):
        rng = np.random.default_rng(16)
        x, params, config = setup(rng, 4, 4, 8, 4, 2)
        h_before, v_before = groups(x, params, config)
        for g, kept, before in ((1, 0, h_before), (0, 1, v_before)):
            trashed = make_params(rng, config)
            trashed.wo = params.wo
            trashed.wqkv = Tensor(params.wqkv.data.copy())
            trashed.wqkv.data[g] = 0.0
            np.testing.assert_array_equal(groups(x, trashed, config)[kept], before)

    def test_odd_heads_rejected(self):
        with pytest.raises(ConfigError):
            AttentionConfig(heads=3, sw=2, channels=6)


class TestCSWinBlock:
    def test_zero_weights_is_identity(self):
        rng = np.random.default_rng(17)
        config = AttentionConfig(heads=2, sw=2, channels=4)
        source = seeded(rng, "f64")
        params = CSWinBlockParams.create(source, "b", config)
        for name, t in source.named:
            t.data[:] = 0.0
        x = randx(rng, 4, 4, 4)
        out = cswin_block(x, params, config)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_shape_preserved_stage3(self):
        rng = np.random.default_rng(18)
        config = AttentionConfig(heads=4, sw=7, channels=8)
        params = make_params(rng, config)
        x = randx(rng, 14, 14, 8)
        assert cswin_block(x, params, config).shape == (14, 14, 8)

    def test_cost_independent_of_head_count(self):
        # no loop over heads: the same tensors and tape entries at any count
        rng = np.random.default_rng(22)
        for lepe in (False, True):
            counts = set()
            for n in (2, 16):
                config = AttentionConfig(heads=n, sw=2, channels=32, lepe_enabled=lepe)
                source = seeded(rng, "f64")
                params = CSWinBlockParams.create(source, "b", config, mlp_ratio=1)
                x = Tensor(rng.uniform(-1, 1, (4, 4, 32)), requires_grad=True)
                with Tape() as tape:
                    cswin_block(x, params, config)
                counts.add((len(source.named), len(tape.entries)))
            assert len(counts) == 1, (lepe, counts)
            (tensors, _), = counts
            assert tensors == (11 if lepe else 10)

    def test_full_block_gradients(self):
        rng = np.random.default_rng(19)
        config = AttentionConfig(heads=2, sw=2, channels=4)
        source = seeded(rng, "f64")
        params = CSWinBlockParams.create(source, "blk", config, mlp_ratio=2)
        x = Tensor(rng.uniform(-1, 1, (4, 4, 4)), dtype="f64", requires_grad=True)
        named = [("x", x)] + source.named
        check_gradients(lambda: tsum(cswin_block(x, params, config)), named, tol=1e-4)

    def test_full_block_gradients_with_lepe(self):
        rng = np.random.default_rng(20)
        config = AttentionConfig(heads=2, sw=2, channels=4, lepe_enabled=True)
        source = seeded(rng, "f64")
        params = CSWinBlockParams.create(source, "blk", config, mlp_ratio=2)
        x = Tensor(rng.uniform(-1, 1, (4, 2, 4)), dtype="f64", requires_grad=True)
        named = [("x", x)] + source.named
        check_gradients(lambda: tsum(cswin_block(x, params, config)), named, tol=1e-4)
