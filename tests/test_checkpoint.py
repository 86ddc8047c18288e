import os
import tracemalloc

import numpy as np
import pytest

from cswin_seg import checkpoint
from cswin_seg.checkpoint import (
    apply_to_model,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    snapshot,
)
from cswin_seg.errors import FormatError
from cswin_seg.network import Model, NetworkConfig, tiny_config
from cswin_seg.optim import SGD, OptimizerConfig


def micro(**overrides):
    base = dict(
        input_size=32, num_classes=3, embed_dim=8,
        depths=(1, 1, 1, 1), stripe_widths=(1, 2, 2, 1), heads=(2, 2, 2, 2),
        carafe_c_mid=4,
    )
    base.update(overrides)
    return NetworkConfig(**base)


class TestRoundtrip:
    def test_bitwise_equal_tensors(self, tmp_path):
        model = Model.create(micro(), seed=3)
        rng = np.random.default_rng(5)
        ckpt = snapshot(model, iteration=17, rng=rng)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, ckpt)
        back = load_checkpoint(p)
        assert back.iteration == 17
        assert back.config == model.config
        assert back.rng_state == rng.bit_generator.state
        own = dict(model.named_parameters())
        assert set(back.params) == set(own)
        for name, t in own.items():
            assert (back.params[name].data == t.data).all(), name

    def test_momenta_roundtrip(self, tmp_path):
        model = Model.create(micro(), seed=4)
        opt = SGD(model.named_parameters(), OptimizerConfig(lr=0.01))
        for _, t in model.named_parameters():
            t.grad = np.ones_like(t.data)
        opt.step()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(model, optimizer=opt, iteration=1))
        back = load_checkpoint(p)
        for name, v in opt.state().items():
            assert (back.momenta[name].data == v).all(), name

    def test_restore_model_runs(self, tmp_path):
        from cswin_seg.tensor import Tensor

        model = Model.create(micro(), seed=6)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(model))
        restored, ckpt = restore_model(p)
        img = Tensor(np.random.default_rng(0).uniform(0, 1, (32, 32, 3)).astype(np.float32))
        a = model.forward(img).data
        b = restored.forward(img).data
        assert (a == b).all()

    def test_load_peak_memory(self, tmp_path):
        # the payload is sliced as a memoryview, so each tensor is copied
        # once out of the file's bytes: the peak stays near 2x the file
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(tiny_config(), seed=0)))
        tracemalloc.start()
        try:
            load_checkpoint(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(p)
        assert peak <= 2.2 * size, f"peak {peak / size:.2f}x the file size"


class TestNegativePaths:
    def test_truncated_file(self, tmp_path):
        model = Model.create(micro(), seed=0)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(model))
        data = p.read_bytes()
        for cut in (3, 10, len(data) // 2, len(data) - 4):
            q = tmp_path / f"cut{cut}.ckpt"
            q.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(q)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(p)

    def test_version_1_rejected(self, tmp_path, monkeypatch):
        # version 1 stored per-head Q/K/V tensors under other names
        p = tmp_path / "v1.ckpt"
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "VERSION", 1)
            save_checkpoint(p, snapshot(Model.create(micro(), seed=0)))
        with pytest.raises(FormatError, match="version 1"):
            load_checkpoint(p)

    def test_depth_mismatch_names_stage(self, tmp_path):
        deep = Model.create(micro(depths=(1, 1, 2, 1)), seed=0)
        p = tmp_path / "deep.ckpt"
        save_checkpoint(p, snapshot(deep))
        shallow = Model.create(micro(depths=(1, 1, 1, 1)), seed=0)
        with pytest.raises(FormatError, match=r"stage 2"):
            apply_to_model(load_checkpoint(p), shallow)

    def test_width_mismatch_reports_shape(self, tmp_path):
        a = Model.create(micro(embed_dim=8), seed=0)
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, snapshot(a))
        b = Model.create(micro(embed_dim=16), seed=0)
        with pytest.raises(FormatError, match="shape"):
            apply_to_model(load_checkpoint(p), b)


class _FailingFile:
    """A file whose third write stores half its bytes and then fails."""

    def __init__(self, f):
        self.f, self.writes = f, 0

    def write(self, b):
        self.writes += 1
        if self.writes == 3:
            self.f.write(bytes(b[: len(b) // 2]))
            raise OSError(28, "No space left on device")
        return self.f.write(b)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class TestCrashSafeSave:
    @pytest.mark.parametrize("fault", ["write", "fsync", "replace"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, fault):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(micro(), seed=1), iteration=1))
        before = p.read_bytes()

        def boom(*args, **kwargs):
            raise OSError(5, f"injected {fault} failure")

        if fault == "write":
            real_fdopen = os.fdopen
            monkeypatch.setattr(checkpoint.os, "fdopen", lambda *a, **k: _FailingFile(real_fdopen(*a, **k)))
        else:
            monkeypatch.setattr(checkpoint.os, fault, boom)
        with pytest.raises(OSError):
            save_checkpoint(p, snapshot(Model.create(micro(), seed=2), iteration=2))
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]
        assert load_checkpoint(p).iteration == 1

    def test_save_replaces_existing_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(micro(), seed=1), iteration=1))
        save_checkpoint(p, snapshot(Model.create(micro(), seed=2), iteration=2))
        assert load_checkpoint(p).iteration == 2
        assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]
