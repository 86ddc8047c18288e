import numpy as np
import pytest

from cswin_seg.data import generate_sample
from cswin_seg.errors import ConfigError, DimensionError, NumericError
from cswin_seg.losses import LossConfig
from cswin_seg.network import Model, NetworkConfig, tiny_config
from cswin_seg.optim import OptimizerConfig
from cswin_seg.train import TRANSFORMS, apply_transform, augment, losses_to_csv, train


def micro(**overrides):
    base = dict(
        input_size=32, num_classes=3, embed_dim=8,
        depths=(1, 1, 1, 1), stripe_widths=(1, 2, 2, 1), heads=(2, 2, 2, 2),
        carafe_c_mid=4,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def micro_dataset(n=4, size=32, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return [generate_sample(rng, size, classes, f"s{i}") for i in range(n)]


class TestAugment:
    def test_flips_are_involutions(self):
        rng = np.random.default_rng(0)
        s = generate_sample(rng, 32, 3, "x")
        for name in ("hflip", "vflip", "rot180"):
            twice = apply_transform(apply_transform(s.image, name), name)
            assert (twice == s.image).all()

    def test_rot90_four_times_is_identity(self):
        rng = np.random.default_rng(1)
        s = generate_sample(rng, 32, 3, "x")
        out = s.mask
        for _ in range(4):
            out = apply_transform(out, "rot90")
        assert (out == s.mask).all()

    def test_label_histogram_invariant(self):
        rng = np.random.default_rng(2)
        s = generate_sample(rng, 32, 4, "x")
        want = np.bincount(s.mask.reshape(-1), minlength=4)
        for name in TRANSFORMS:
            got = np.bincount(apply_transform(s.mask, name).reshape(-1), minlength=4)
            assert (got == want).all()

    def test_image_and_mask_get_same_transform(self):
        rng = np.random.default_rng(3)
        s = generate_sample(rng, 32, 3, "x")
        out = augment(s, np.random.default_rng(7))
        # foreground pixels must still carry their class color (strongest channel)
        lab_pos = np.argwhere(out.mask == out.mask.max())
        assert len(lab_pos) > 0

    def test_deterministic_sequence(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        s = micro_dataset(1)[0]
        for _ in range(10):
            a = augment(s, rng1)
            b = augment(s, rng2)
            assert (a.image == b.image).all() and (a.mask == b.mask).all()

    def test_non_square_rotation_rejected(self):
        with pytest.raises(ConfigError):
            apply_transform(np.zeros((4, 6)), "rot90")


class TestTrainLoop:
    def test_zero_lr_leaves_params_bitwise(self):
        model = Model.create(micro(), seed=1)
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        cfg = OptimizerConfig(lr=0.0, momentum=0.9, weight_decay=0.0, batch_size=2, max_iterations=1, seed=0)
        train(model, micro_dataset(2), cfg, LossConfig(), augment_enabled=False)
        for n, t in model.named_parameters():
            assert (t.data == before[n]).all(), n

    def test_loss_logged_every_iteration(self):
        model = Model.create(micro(), seed=2)
        cfg = OptimizerConfig(lr=0.01, batch_size=2, max_iterations=3, seed=0)
        _, result = train(model, micro_dataset(2), cfg, LossConfig(), augment_enabled=False)
        assert len(result.losses) == 3
        for it, total, dice, ce, lr in result.losses:
            assert np.isfinite(total) and lr == 0.01
            assert abs(0.4 * dice + 0.6 * ce - total) < 1e-5
        csv = losses_to_csv(result.losses)
        assert csv.startswith("iteration,loss") and len(csv.splitlines()) == 4

    def test_same_seed_same_params(self):
        def run():
            model = Model.create(micro(), seed=3)
            cfg = OptimizerConfig(lr=0.02, batch_size=2, max_iterations=4, seed=9)
            train(model, micro_dataset(3), cfg, LossConfig())
            return {n: t.data.copy() for n, t in model.named_parameters()}

        a, b = run(), run()
        for n in a:
            assert (a[n] == b[n]).all(), n

    def test_dice_only_and_ce_only_both_step(self):
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0)]:
            model = Model.create(micro(), seed=4)
            before = {n: t.data.copy() for n, t in model.named_parameters()}
            cfg = OptimizerConfig(lr=0.01, batch_size=1, max_iterations=2, seed=0)
            _, result = train(model, micro_dataset(1), cfg, LossConfig(alpha=alpha, beta=beta), augment_enabled=False)
            assert all(np.isfinite(row[1]) for row in result.losses)
            changed = any((t.data != before[n]).any() for n, t in model.named_parameters())
            assert changed

    def test_eval_interval_records_metrics(self):
        model = Model.create(micro(), seed=5)
        data = micro_dataset(2)
        cfg = OptimizerConfig(lr=0.01, batch_size=1, max_iterations=4, seed=0)
        _, result = train(
            model, data, cfg, LossConfig(), augment_enabled=False, val_samples=data, eval_interval=2
        )
        assert [it for it, _ in result.metrics] == [1, 3]
        assert 0.0 <= result.metrics[0][1].mean_dsc <= 1.0

    def test_last_step_leaves_gradients_and_momenta(self):
        # callers read the last step's gradients after train returns, and
        # every parameter has a momentum buffer once it has been stepped
        model = Model.create(micro(), seed=6)
        cfg = OptimizerConfig(lr=0.01, batch_size=1, max_iterations=1, seed=0)
        opt, _ = train(model, micro_dataset(1), cfg, LossConfig(), augment_enabled=False)
        for name, t in model.named_parameters():
            assert t.grad is not None and t.grad.shape == t.data.shape, name
            assert opt.velocity[name].shape == t.data.shape, name

    def test_non_finite_loss_names_the_producing_op(self):
        model = Model.create(tiny_config(), seed=0)
        dict(model.named_parameters())["enc.s2.b1.mlp.w1"].data[0, 0] = np.nan
        cfg = OptimizerConfig(lr=0.01, batch_size=1, max_iterations=1, seed=0)
        with pytest.raises(NumericError, match="op 'mlp'"):
            train(model, micro_dataset(1, size=64, classes=4), cfg, LossConfig(), augment_enabled=False)

    def test_mis_sized_val_sample_fails_before_the_first_step(self):
        # train and val samples are checked at entry, not when a batch is stacked
        model = Model.create(micro(), seed=0)
        val = micro_dataset(1, seed=1)[0]
        val.mask = np.zeros((16, 16), dtype=val.mask.dtype)
        steps = []
        cfg = OptimizerConfig(lr=0.01, batch_size=2, max_iterations=1, seed=0)
        with pytest.raises(DimensionError, match=f"sample {val.id}:"):
            train(model, micro_dataset(2), cfg, LossConfig(), val_samples=[val], eval_interval=1,
                  callback=lambda it, loss: steps.append(it))
        assert steps == []


def test_package_attribute_train_is_the_module():
    # the README names cswin_seg.train.combined_loss; a re-exported train()
    # function would shadow the module under that name
    import cswin_seg
    from cswin_seg.train import combined_loss

    assert cswin_seg.train.combined_loss is combined_loss and cswin_seg.train.train is train
