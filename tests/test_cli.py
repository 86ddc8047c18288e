import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cswin_seg
from cswin_seg.cli import build_parser, main
from cswin_seg.data import read_pgm, read_ppm, write_pgm, write_ppm
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

    def test_nonpositive_size_is_error_exit(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "d"), "--n", "2", "--size", "0", "--classes", "3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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

    def test_val_size_mismatch_fails_before_the_first_step(self, tmp_path, capsys):
        # every train and val sample is checked at entry, so a val image and
        # mask at another size fail before any step runs or any file is written
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--n", "3", "--size", "32", "--classes", "3", "--val", "1"])
        val = next(e for e in json.loads((data / "manifest.json").read_text())["samples"] if e["split"] == "val")
        rng = np.random.default_rng(0)
        write_ppm(data / val["image"], rng.uniform(0, 1, (64, 64, 3)))
        write_pgm(data / val["mask"], rng.integers(0, 3, (64, 64)))
        capsys.readouterr()
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--config", micro_config_file(tmp_path),
                   "--iters", "2", "--batch", "1", "--eval-interval", "1"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert "error:" in err and val["id"] in err
        assert "iter" not in out
        assert not (tmp_path / "r" / "loss.csv").exists()

    def test_manifest_without_size_trains(self, tmp_path, capsys):
        # train reads only the keys the loaders check, and the images' own size
        data = tmp_path / "d"
        main(["synth", "--out", str(data), "--n", "2", "--size", "32", "--classes", "3"])
        manifest = json.loads((data / "manifest.json").read_text())
        for key in ("seed", "generator", "size"):
            del manifest[key]
        (data / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--config", micro_config_file(tmp_path),
                   "--iters", "1", "--batch", "1"])
        assert rc == 0

    def test_list_manifest_is_error_exit(self, tmp_path, capsys):
        data = tmp_path / "d"
        data.mkdir()
        (data / "manifest.json").write_text("[]\n")
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "r"), "--config", "tiny", "--iters", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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

    def test_closed_stdout_is_not_an_error(self):
        # stdout is a pipe whose reader is gone before the command starts, as
        # after `cswin-seg count | head -1` once head has exited
        src = str(Path(cswin_seg.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "cswin_seg", "count"], stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141  # 128 + SIGPIPE, as a shell reports for the writer


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


class TestReadmeUsage:
    def test_usage_block_lists_every_subcommand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        usage = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        documented = set(re.findall(r"^cswin-seg (\S+)", usage, re.M))
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert documented == set(sub.choices)
