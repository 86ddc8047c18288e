import numpy as np
import pytest

from cswin_seg.cli import main
from cswin_seg.data import read_pgm, read_ppm
from cswin_seg.network import NetworkConfig


def micro_config_file(tmp_path):
    p = tmp_path / "micro.json"
    NetworkConfig(
        input_size=32, num_classes=3, embed_dim=8,
        depths=(1, 1, 1, 1), stripe_widths=(1, 2, 2, 1), heads=(2, 2, 2, 2),
        carafe_c_mid=4,
    ).save(p)
    return str(p)


class TestSynth:
    def test_writes_dataset(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "d"), "--n", "3", "--size", "32", "--classes", "3", "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "d/manifest.json").exists()
        assert read_ppm(tmp_path / "d/images/s0000.ppm").shape == (32, 32, 3)
        assert read_pgm(tmp_path / "d/masks/s0002.pgm").shape == (32, 32)

    def test_invalid_size_is_error_exit(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "d"), "--n", "2", "--size", "30", "--classes", "3"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path), "--frobnicate"])
        assert exc.value.code == 2


class TestTrainEvalPredict:
    def test_full_workflow(self, tmp_path, capsys):
        data = str(tmp_path / "d")
        run = str(tmp_path / "run")
        assert main(["synth", "--out", data, "--n", "5", "--size", "32", "--classes", "3",
                     "--seed", "2", "--val", "1", "--test", "1"]) == 0
        cfg = micro_config_file(tmp_path)
        assert main(["train", "--data", data, "--out", run, "--config", cfg,
                     "--iters", "4", "--batch", "2", "--eval-interval", "2"]) == 0
        loss_csv = (tmp_path / "run/loss.csv").read_text().splitlines()
        assert loss_csv[0] == "iteration,loss,dice_loss,cross_entropy_loss,lr"
        assert len(loss_csv) == 5
        assert (tmp_path / "run/val_metrics.csv").exists()

        assert main(["eval", "--data", data, "--checkpoint", f"{run}/checkpoint.ckpt",
                     "--split", "test", "--out", str(tmp_path / "report.csv")]) == 0
        assert (tmp_path / "report.csv").read_text().startswith("class,dsc,hd,hd95")

        out_mask = str(tmp_path / "pred.pgm")
        overlay = str(tmp_path / "overlay.ppm")
        assert main(["predict", "--checkpoint", f"{run}/checkpoint.ckpt",
                     "--image", f"{data}/images/s0000.ppm", "--out", out_mask, "--overlay", overlay]) == 0
        assert read_pgm(out_mask).shape == (32, 32)
        assert read_ppm(overlay).shape == (32, 32, 3)

    def test_config_dataset_mismatch(self, tmp_path, capsys):
        data = str(tmp_path / "d")
        main(["synth", "--out", data, "--n", "2", "--size", "32", "--classes", "3"])
        rc = main(["train", "--data", data, "--out", str(tmp_path / "r"), "--config", "tiny", "--iters", "1"])
        assert rc == 1
        assert "input size" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        rc = main(["eval", "--data", str(tmp_path), "--checkpoint", str(tmp_path / "nope.ckpt")])
        assert rc == 1


class TestCount:
    def test_default_within_tolerance(self, capsys):
        assert main(["count", "--config", "default", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "23.76 M" in out and "5.57 G" in out

    def test_strict_fails_outside_tolerance(self, tmp_path, capsys):
        p = tmp_path / "wide.json"
        NetworkConfig(embed_dim=96, heads=(2, 4, 8, 16)).save(p)
        assert main(["count", "--config", str(p), "--strict"]) == 1
        assert main(["count", "--config", str(p)]) == 0  # informational without --strict

    def test_invalid_config_path(self, capsys):
        assert main(["count", "--config", "/does/not/exist.json"]) == 1


class TestGradcheckCli:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "gradient checks passed" in out
        assert "FAIL" not in out

    def test_f32_rejected_as_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--dtype", "f32"])
        assert exc.value.code == 2


class TestBench:
    def test_csv_and_flops_ordering(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--shapes", "8x8x8x2x2", "16x16x8x2x4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,w,c,heads,sw,stripe_flops,dense_flops,stripe_ms,dense_ms"
        for line in lines[1:]:
            parts = line.split(",")
            h, w, sw = int(parts[0]), int(parts[1]), int(parts[4])
            stripe_fl, dense_fl = int(parts[5]), int(parts[6])
            if sw < min(h, w):
                assert stripe_fl < dense_fl

    def test_invalid_shape(self, capsys):
        assert main(["bench", "--shapes", "7x7x8x2x2"]) == 1
