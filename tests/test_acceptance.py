"""Acceptance suite: the nine exit criteria, one test per criterion, each
printing a single PASS/FAIL line (run with -s or -rA to see them all).
"""

import numpy as np
import pytest

from cswin_seg import complexity
from cswin_seg import tensor as T
from cswin_seg.atomic import write_atomic
from cswin_seg.attention import AttentionConfig, CSWinBlockParams
from cswin_seg.carafe import (
    KernelPredictorParams,
    UpsampleConfig,
    predict_kernels,
    reassemble,
)
from cswin_seg.cli import main as cli_main
from cswin_seg.checkpoint import save_checkpoint, snapshot
from cswin_seg.data import load_dataset, read_pgm, read_ppm, synth_generate, write_pgm, write_ppm
from cswin_seg.fdsuite import run_suite
from cswin_seg.initializers import seeded
from cswin_seg.losses import LossConfig, cross_entropy_loss
from cswin_seg.metrics import dsc, hausdorff, se_sp_acc
from cswin_seg.network import Model, default_config, tiny_config
from cswin_seg.optim import OptimizerConfig
from cswin_seg.tensor import Tensor
from cswin_seg.train import evaluate_model, train

from oracles import (
    confusion_counts,
    cross_window_attention,
    dense_attention,
    hausdorff_bruteforce,
    per_head,
    reassemble_naive,
    source_major,
)


def report(n: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n} ({name}): {detail}")
    assert ok, f"criterion {n} ({name}): {detail}"


def random_stripe_config(rng):
    """A legal (H, W, C, N, sw) with H, W <= 16."""
    while True:
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        divisors = [s for s in range(1, min(h, w) + 1) if h % s == 0 and w % s == 0]
        sw = int(rng.choice(divisors))
        n = int(rng.choice([2, 4]))
        c = n * int(rng.integers(1, 5))
        return h, w, c, n, sw


def stripe_kernel(x, params, sw):
    """The stripe attention a block's attention half runs (``T._stripe``),
    applied to x itself: [H,W,C] -> [H,W,C]."""
    return T._stripe(x.data, params.wqkv.data, params.wo.data, None, sw)[0].reshape(x.shape)


class TestCriterion1:
    def test_complexity_calibration(self):
        cfg = default_config()
        params = complexity.count_params(cfg)
        flops = complexity.count_flops(cfg)
        ok, p_ratio, f_ratio = complexity.within_reference(cfg)
        report(
            1,
            "complexity calibration",
            ok,
            f"{params / 1e6:.2f}M params (x{p_ratio:.3f} of 23.57M), "
            f"{flops / 1e9:.2f}G flops (x{f_ratio:.3f} of 4.72G), tolerance +-20%",
        )


class TestCriterion2:
    def test_stripe_attention_oracle(self):
        rng = np.random.default_rng(20)
        worst = 0.0
        trials = 60
        for _ in range(trials):
            h, w, c, n, sw = random_stripe_config(rng)
            config = AttentionConfig(heads=n, sw=sw, channels=c)
            params = CSWinBlockParams.create(seeded(rng, "f64"), "blk", config)
            x = Tensor(rng.uniform(-1, 1, (h, w, c)), dtype="f64")
            got = stripe_kernel(x, params, sw)
            want = cross_window_attention(x.data, *per_head(params.wqkv.data, 3), params.wo.data, sw)
            worst = max(worst, float(np.abs(got - want).max()))
        report(2, "stripe-attention oracle", worst < 1e-6, f"{trials} random configs, max abs err {worst:.2e} < 1e-6")


class TestCriterion3:
    def test_degenerate_global_equivalence(self):
        rng = np.random.default_rng(21)
        worst = 0.0
        for size in (4, 6, 8, 12):
            n = int(rng.choice([2, 4]))
            c = n * int(rng.integers(1, 5))
            config = AttentionConfig(heads=n, sw=size, channels=c)
            params = CSWinBlockParams.create(seeded(rng, "f64"), "blk", config)
            x = Tensor(rng.uniform(-1, 1, (size, size, c)), dtype="f64")
            got = stripe_kernel(x, params, size)
            # full two-group global attention: every head attends over all
            # tokens (attention is permutation-equivariant, so the token
            # order used by each group cannot matter)
            tokens = x.data.reshape(size * size, c)
            wq, wk, wv = per_head(params.wqkv.data, 3)
            heads = [dense_attention(tokens, wq[i], wk[i], wv[i]) for i in range(n)]
            want = (np.concatenate(heads, axis=-1) @ params.wo.data).reshape(size, size, c)
            worst = max(worst, float(np.abs(got - want).max()))
        report(3, "degenerate-global equivalence", worst < 1e-6, f"sw=H=W at 4 sizes, max abs err {worst:.2e} < 1e-6")


class TestCriterion4:
    def test_carafe_oracle(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        worst_kernel = 0.0
        trials = 54
        for i in range(trials):
            sigma = int(rng.choice([1, 2, 4]))
            k_up = int(rng.choice([3, 5]))
            h = int(rng.integers(2, 6))
            w = int(rng.integers(2, 6))
            c = int(rng.integers(1, 4))
            cfg = UpsampleConfig(sigma=sigma, k_up=k_up, c_mid=3)
            x = rng.uniform(-1, 1, (h, w, c))
            params = KernelPredictorParams.create(seeded(rng, "f64"), "up", c, cfg)
            field = predict_kernels(Tensor(x, dtype="f64"), params, cfg)
            worst_kernel = max(worst_kernel, float(np.abs(field.data.sum(axis=-1) - 1.0).max()))
            got = reassemble(Tensor(x, dtype="f64"), field, cfg).data
            want = reassemble_naive(x, field.data, sigma, k_up)
            worst = max(worst, float(np.abs(got - want).max()))

        # delta kernels reproduce nearest-neighbor exactly
        x = rng.uniform(-1, 1, (5, 4, 3))
        deltas_exact = True
        for sigma in (1, 2, 4):
            for k_up in (3, 5):
                cfg = UpsampleConfig(sigma=sigma, k_up=k_up)
                f = np.zeros((sigma * 5, sigma * 4, k_up * k_up))
                f[:, :, (k_up // 2) * k_up + k_up // 2] = 1.0
                got = reassemble(Tensor(x, dtype="f64"), Tensor(source_major(f, sigma), dtype="f64"), cfg).data
                want = np.repeat(np.repeat(x, sigma, axis=0), sigma, axis=1)
                deltas_exact &= bool((got == want).all())

        ok = worst < 1e-6 and worst_kernel < 1e-6 and deltas_exact
        report(
            4,
            "reassembly oracle",
            ok,
            f"{trials} configs max abs err {worst:.2e} < 1e-6; kernel sums off by {worst_kernel:.2e} < 1e-6; "
            f"delta kernels == nearest-neighbor: {deltas_exact}",
        )


class TestCriterion5:
    def test_gradient_integrity(self):
        results = run_suite(full=True, h=1e-5, tol=1e-4)
        failed = [r.name for r in results if not r.ok]
        worst = max((r.max_err for r in results if r.ok), default=float("nan"))
        report(
            5,
            "gradient integrity",
            not failed,
            f"{len(results)} finite-difference checks (f64, h=1e-5, tol 1e-4), worst passing err {worst:.2e}"
            + (f"; FAILED: {failed}" if failed else ""),
        )


class TestCriterion6:
    def test_metric_oracles(self):
        rng = np.random.default_rng(23)
        hd_exact = True
        for _ in range(100):
            h = int(rng.integers(4, 33))
            w = int(rng.integers(4, 33))
            a = (rng.uniform(size=(h, w)) < rng.uniform(0.1, 0.5)).astype(np.uint8)
            b = (rng.uniform(size=(h, w)) < rng.uniform(0.1, 0.5)).astype(np.uint8)
            hd_exact &= hausdorff(a, b, 1) == hausdorff_bruteforce(a.astype(bool), b.astype(bool))

        conf_exact = True
        for _ in range(20):
            p = (rng.uniform(size=(8, 8)) < 0.4).astype(np.uint8)
            g = (rng.uniform(size=(8, 8)) < 0.4).astype(np.uint8)
            tp, fp, tn, fn = confusion_counts(p, g)
            se, sp, acc = se_sp_acc(p, g)
            conf_exact &= se == (tp / (tp + fn) if tp + fn else 1.0)
            conf_exact &= sp == (tn / (tn + fp) if tn + fp else 1.0)
            conf_exact &= acc == (tp + tn) / 64
            denom = int(p.sum()) + int(g.sum())
            conf_exact &= dsc(p, g, 1) == (2 * tp / denom if denom else 1.0)

        ce_ok = True
        for k in (2, 3, 4, 9):
            labels = rng.integers(0, k, (6, 6))
            val = cross_entropy_loss(Tensor(np.zeros((6, 6, k)), dtype="f64"), labels).item()
            ce_ok &= abs(val - np.log(k)) < 1e-6

        ok = hd_exact and conf_exact and ce_ok
        report(
            6,
            "metric oracles",
            ok,
            f"hausdorff exact on 100 pairs: {hd_exact}; confusion-matrix metrics exact: {conf_exact}; "
            f"uniform-logit CE == ln K: {ce_ok}",
        )


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """Shared by criteria 7 and part of 9: the tiny-config overfit training."""
    root = tmp_path_factory.mktemp("overfit")
    synth_generate(root / "data", n=8, size=64, num_classes=4, seed=7)
    samples, _ = load_dataset(root / "data", "train")
    model = Model.create(tiny_config(), seed=0)
    opt_cfg = OptimizerConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=4, max_iterations=300, seed=0)
    optimizer, result = train(model, samples, opt_cfg, LossConfig(alpha=0.4, beta=0.6), augment_enabled=False)
    return root, samples, model, optimizer, result


class TestCriterion7:
    def test_overfit_harness(self, overfit_run):
        root, samples, model, optimizer, result = overfit_run
        rep = evaluate_model(model, samples, 4)
        ratio = result.losses[-1][1] / result.losses[0][1]
        ok = rep.mean_dsc >= 0.9 and ratio < 0.25
        report(
            7,
            "overfit harness",
            ok,
            f"300 iterations at lr 0.05 / momentum 0.9 / wd 1e-4, alpha 0.4 beta 0.6: "
            f"mean train DSC {rep.mean_dsc:.4f} >= 0.9, final/initial loss {ratio:.4f} < 0.25",
        )

    def test_predict_cli_after_overfit(self, overfit_run):
        root, samples, model, optimizer, result = overfit_run
        ckpt_path = root / "overfit.ckpt"
        save_checkpoint(ckpt_path, snapshot(model, optimizer=optimizer, iteration=300))
        out_mask = root / "pred.pgm"
        rc = cli_main(
            [
                "predict",
                "--checkpoint", str(ckpt_path),
                "--image", str(root / "data/images/s0000.ppm"),
                "--out", str(out_mask),
            ]
        )
        assert rc == 0
        pred = read_pgm(out_mask).astype(np.int64)
        truth = samples[0].mask
        scores = [dsc(pred, truth, c) for c in range(1, 4) if (truth == c).any() or (pred == c).any()]
        mean = float(np.mean(scores))
        report(7, "predict round-trip", mean >= 0.9, f"CLI predict on a training image: DSC {mean:.4f} >= 0.9")


class TestCriterion8:
    def test_upsampler_and_skip_axes(self):
        rng = np.random.default_rng(24)
        img = Tensor(rng.uniform(0, 1, (64, 64, 3)).astype(np.float32))
        ok = True
        for upsampler in ("carafe", "bilinear", "transposed_conv"):
            model = Model.create(tiny_config(upsampler=upsampler), seed=1)
            ok &= model.forward(img).shape == (64, 64, 4)
        for skips in (0, 1, 2, 3):
            model = Model.create(tiny_config(skip_connections=skips), seed=1)
            ok &= model.forward(img).shape == (64, 64, 4)
        report(8, "ablation axes: structure", ok, "3 upsamplers and skip counts 0..3 all produce (64,64,4) logits")

    def test_loss_weight_axes_train_clean(self, overfit_run):
        root, samples, *_ = overfit_run
        ok = True
        details = []
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.4, 0.6), (0.6, 0.4)]:
            model = Model.create(tiny_config(), seed=2)
            opt_cfg = OptimizerConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=4, max_iterations=50, seed=3)
            _, result = train(model, samples, opt_cfg, LossConfig(alpha=alpha, beta=beta))
            finite = all(np.isfinite(row[1]) for row in result.losses)
            ok &= finite and len(result.losses) == 50
            details.append(f"[{alpha},{beta}] final {result.losses[-1][1]:.3f}")
        report(8, "ablation axes: loss weights", ok, "50 iterations each without NaN: " + "; ".join(details))


class TestCriterion9:
    def test_training_determinism_bitwise(self, tmp_path):
        synth_generate(tmp_path / "d", n=4, size=32, num_classes=3, seed=11)
        samples, _ = load_dataset(tmp_path / "d", "train")
        cfg = tiny_config(input_size=32, num_classes=3, embed_dim=8, depths=(1, 1, 1, 1),
                          stripe_widths=(1, 2, 2, 1), heads=(2, 2, 2, 2), carafe_c_mid=4)

        def run(path):
            model = Model.create(cfg, seed=5)
            opt_cfg = OptimizerConfig(lr=0.02, momentum=0.9, weight_decay=1e-4, batch_size=2, max_iterations=50, seed=6)
            optimizer, result = train(model, samples, opt_cfg, LossConfig())
            ckpt = snapshot(model, optimizer=optimizer, iteration=50)
            ckpt.rng_state = result.rng_state
            save_checkpoint(path, ckpt)

        run(tmp_path / "a.ckpt")
        run(tmp_path / "b.ckpt")
        identical = (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        report(9, "determinism", identical, "two 50-iteration runs with identical seeds: checkpoint files byte-identical")

    def test_file_formats_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(25)
        ok = True
        t = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        write_atomic(tmp_path / "t.tsr", T.tensor_record(t))
        with open(tmp_path / "t.tsr", "rb") as f:
            record = T.read_record(f, (tmp_path / "t.tsr").stat().st_size)
        ok &= record.dtype == "f32" and (record.data == t.data).all()

        mask = rng.integers(0, 4, (16, 16)).astype(np.uint8)
        write_pgm(tmp_path / "m.pgm", mask)
        ok &= (read_pgm(tmp_path / "m.pgm") == mask).all()

        img = rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)
        write_ppm(tmp_path / "i.ppm", img)
        ok &= (read_ppm(tmp_path / "i.ppm") == img).all()

        model = Model.create(tiny_config(input_size=32, num_classes=3, embed_dim=8, depths=(1, 1, 1, 1),
                                         stripe_widths=(1, 2, 2, 1), heads=(2, 2, 2, 2), carafe_c_mid=4), seed=8)
        from cswin_seg.checkpoint import load_checkpoint

        save_checkpoint(tmp_path / "m.ckpt", snapshot(model, iteration=1))
        back = load_checkpoint(tmp_path / "m.ckpt")
        own = dict(model.named_parameters())
        ok &= all((back.params[k].data == own[k].data).all() for k in own)
        report(9, "format round-trips", bool(ok), "a TSR1 record, PGM, PPM and checkpoint files round-trip bitwise")
