import numpy as np
import pytest

from cswin_seg.errors import ConfigError, DataError, NumericError
from cswin_seg.gradcheck import check_gradients
from cswin_seg.losses import LossConfig, cross_entropy_loss, dice_loss
from cswin_seg.tensor import Tape, Tensor, backward
from cswin_seg.train import combined_loss

from oracles import complex_step_grad, cross_entropy_scalar, dice_loss_scalar, segmentation_loss_numpy


class TestDiceLoss:
    def test_confident_correct_prediction(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, (6, 6))
        logits = np.full((6, 6, 3), -50.0)
        for i in range(6):
            for j in range(6):
                logits[i, j, labels[i, j]] = 50.0
        assert dice_loss(Tensor(logits, dtype="f64"), labels).item() < 0.01

    def test_uniform_logits_balanced_binary(self):
        labels = np.zeros((4, 4), dtype=np.int64)
        labels[:2] = 1
        logits = np.zeros((4, 4, 2))
        got = dice_loss(Tensor(logits, dtype="f64"), labels, smooth=1e-5).item()
        want = dice_loss_scalar(logits, labels, 1e-5)
        assert abs(got - want) < 1e-6

    def test_random_case_matches_oracle(self):
        rng = np.random.default_rng(1)
        logits = rng.uniform(-2, 2, (5, 5, 4))
        labels = rng.integers(0, 4, (5, 5))
        got = dice_loss(Tensor(logits, dtype="f64"), labels, smooth=1e-5).item()
        assert abs(got - dice_loss_scalar(logits, labels, 1e-5)) < 1e-6

    def test_empty_class_is_finite(self):
        labels = np.zeros((4, 4), dtype=np.int64)  # class 1 never appears
        rng = np.random.default_rng(2)
        logits = rng.uniform(-1, 1, (4, 4, 2))
        val = dice_loss(Tensor(logits, dtype="f64"), labels).item()
        assert np.isfinite(val)

    def test_label_out_of_range(self):
        labels = np.full((2, 2), 5)
        with pytest.raises(DataError):
            dice_loss(Tensor(np.zeros((2, 2, 3))), labels)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.uniform(-1, 1, (3, 3, 3)), dtype="f64", requires_grad=True)
        labels = rng.integers(0, 3, (3, 3))
        check_gradients(lambda: dice_loss(logits, labels), [("logits", logits)])


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        labels = np.array([[0, 1], [2, 1]])
        logits = np.full((2, 2, 3), 0.0)
        for i in range(2):
            for j in range(2):
                logits[i, j, labels[i, j]] = 1000.0
        assert cross_entropy_loss(Tensor(logits, dtype="f64"), labels).item() < 1e-6

    def test_uniform_logits_equal_log_k(self):
        labels = np.random.default_rng(4).integers(0, 4, (5, 5))
        logits = np.zeros((5, 5, 4))
        got = cross_entropy_loss(Tensor(logits, dtype="f64"), labels).item()
        assert abs(got - np.log(4.0)) < 1e-6

    def test_random_case_matches_oracle(self):
        rng = np.random.default_rng(5)
        logits = rng.uniform(-3, 3, (3, 3, 3))
        labels = rng.integers(0, 3, (3, 3))
        got = cross_entropy_loss(Tensor(logits, dtype="f64"), labels).item()
        assert abs(got - cross_entropy_scalar(logits, labels)) < 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(6)
        logits = Tensor(rng.uniform(-1, 1, (3, 4, 3)), dtype="f64", requires_grad=True)
        labels = rng.integers(0, 3, (3, 4))
        check_gradients(lambda: cross_entropy_loss(logits, labels), [("logits", logits)])


class TestCombinedLoss:
    def test_dice_only(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.uniform(-1, 1, (4, 4, 3)), dtype="f64")
        labels = rng.integers(0, 3, (4, 4))
        cfg = LossConfig(alpha=1.0, beta=0.0)
        assert abs(combined_loss(logits, labels, cfg)[0].item() - dice_loss(logits, labels).item()) < 1e-12

    def test_ce_only(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.uniform(-1, 1, (4, 4, 3)), dtype="f64")
        labels = rng.integers(0, 3, (4, 4))
        cfg = LossConfig(alpha=0.0, beta=1.0)
        assert abs(combined_loss(logits, labels, cfg)[0].item() - cross_entropy_loss(logits, labels).item()) < 1e-12

    def test_affine_combination(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.uniform(-1, 1, (4, 4, 3)), dtype="f64")
        labels = rng.integers(0, 3, (4, 4))
        for alpha, beta in [(0.4, 0.6), (0.5, 0.5), (0.6, 0.4), (1.0, 0.0), (0.0, 1.0)]:
            cfg = LossConfig(alpha=alpha, beta=beta)
            want = alpha * dice_loss(logits, labels, cfg.dice_smooth).item() + beta * cross_entropy_loss(logits, labels).item()
            assert abs(combined_loss(logits, labels, cfg)[0].item() - want) < 1e-9

    def test_nan_logit_names_the_loss(self):
        # the NaN reaches the Dice entry's output through its softmax's row
        # max and sums and its per-image class sums
        rng = np.random.default_rng(10)
        logits = Tensor(rng.uniform(-1, 1, (2, 4, 4, 3)), dtype="f32", requires_grad=True)
        logits.data[1, 2, 3, 1] = np.nan
        with np.errstate(invalid="ignore"), Tape() as tape:
            loss, _, _ = combined_loss(logits, rng.integers(0, 3, (2, 4, 4)), LossConfig())
        with pytest.raises(NumericError, match="op 'dice_loss'"):
            backward(loss, tape)

    def test_default_weights(self):
        cfg = LossConfig()
        assert cfg.alpha == 0.4 and cfg.beta == 0.6

    def test_hard_label_limit_matches_dsc(self):
        # as logits approach one-hot * inf, 1 - dice_loss approaches the mean
        # Dice coefficient of the argmax mask (background class included)
        from cswin_seg.metrics import dsc

        rng = np.random.default_rng(10)
        truth = rng.integers(0, 3, (8, 8))
        pred = rng.integers(0, 3, (8, 8))
        logits = np.full((8, 8, 3), -200.0)
        for i in range(8):
            for j in range(8):
                logits[i, j, pred[i, j]] = 200.0
        soft = 1.0 - dice_loss(Tensor(logits, dtype="f64"), truth, smooth=1e-7).item()
        hard = np.mean([dsc(pred, truth, c) for c in range(3)])
        assert abs(soft - hard) < 1e-3

    def test_invalid_weights(self):
        with pytest.raises(ConfigError):
            LossConfig(alpha=-0.1, beta=0.5)
        with pytest.raises(ConfigError):
            LossConfig(alpha=0.0, beta=0.0)

    def test_parts_are_the_two_losses(self):
        rng = np.random.default_rng(11)
        logits = Tensor(rng.uniform(-1, 1, (4, 5, 3)), dtype="f64")
        labels = rng.integers(0, 3, (4, 5))
        total, dice, ce = combined_loss(logits, labels, LossConfig(alpha=0.4, beta=0.6))
        assert dice == dice_loss(logits, labels).item() and ce == cross_entropy_loss(logits, labels).item()
        assert abs(total.item() - (0.4 * dice + 0.6 * ce)) < 1e-15
        assert combined_loss(logits, labels, LossConfig(alpha=0.0, beta=1.0))[1] == 0.0
        assert combined_loss(logits, labels, LossConfig(alpha=1.0, beta=0.0))[2] == 0.0


def _labels(rng, shape, k, absent):
    labels = rng.integers(0, k, shape)
    if absent:  # one class appears nowhere in the image
        labels[labels == k - 1] = 0
    return labels


class TestBatchedLosses:
    @pytest.mark.parametrize("loss_fn", [dice_loss, cross_entropy_loss])
    def test_batch_is_the_mean_of_per_image_losses(self, loss_fn):
        # one Dice per image, not one pooled over the batch: an image whose
        # only foreground class is absent from another changes the pooled
        # value but not the per-image mean
        rng = np.random.default_rng(5)
        logits = rng.normal(0, 2, (3, 5, 6, 4))
        labels = rng.integers(0, 4, (3, 5, 6))
        labels[1] = np.where(labels[1] == 3, 0, labels[1])
        batched = Tensor(logits, dtype="f64", requires_grad=True)
        with Tape() as tape:
            loss = loss_fn(batched, labels)
        backward(loss, tape)
        singles = []
        for i in range(3):
            x = Tensor(logits[i], dtype="f64", requires_grad=True)
            with Tape() as tape:
                li = loss_fn(x, labels[i])
            backward(li, tape)
            singles.append((li.item(), x.grad))
        assert loss.item() == pytest.approx(np.mean([v for v, _ in singles]), rel=1e-12)
        np.testing.assert_allclose(batched.grad, np.stack([g for _, g in singles]) / 3, rtol=1e-10, atol=1e-15)


class TestComplexStepOracle:
    """Objective and logit gradient in f64 against the complex-step gradient
    of the plain numpy loss, which shares no derivation with the primitives."""

    @pytest.mark.parametrize("alpha,beta", [(0.4, 0.6), (1.0, 0.0), (0.0, 1.0)])
    @pytest.mark.parametrize("shape,absent", [((4, 4, 3), False), ((5, 7, 4), False), ((6, 6, 9), False), ((5, 6, 4), True)])
    def test_value_and_gradient(self, alpha, beta, shape, absent):
        rng = np.random.default_rng(sum(shape))
        x = rng.uniform(-3, 3, shape)
        labels = _labels(rng, shape[:2], shape[2], absent)
        cfg = LossConfig(alpha=alpha, beta=beta)
        logits = Tensor(x, dtype="f64", requires_grad=True)
        with Tape() as tape:
            loss = combined_loss(logits, labels, cfg)[0]
        backward(loss, tape)

        def oracle(z):
            return segmentation_loss_numpy(z, labels, alpha, beta, cfg.dice_smooth)

        assert abs(loss.item() - oracle(x)) <= 1e-12
        np.testing.assert_allclose(logits.grad, complex_step_grad(oracle, x), rtol=0, atol=1e-12)


class TestOneTapeEntry:
    @pytest.mark.parametrize("loss_fn", [dice_loss, cross_entropy_loss])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_loss_is_one_entry_with_gradient_in_logits_dtype(self, loss_fn, dtype):
        rng = np.random.default_rng(12)
        logits = Tensor(rng.uniform(-1, 1, (6, 5, 4)), dtype=dtype, requires_grad=True)
        with Tape() as tape:
            out = loss_fn(logits, rng.integers(0, 4, (6, 5)))
        assert len(tape.entries) == 1
        (inputs, entry_out, grad_fn, _), = tape.entries
        assert inputs == (logits,) and entry_out is out and out.dtype == dtype
        (gx,) = grad_fn(np.ones_like(out.data))
        assert gx.dtype == logits.data.dtype and gx.shape == logits.shape
