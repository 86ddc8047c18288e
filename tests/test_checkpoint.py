import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from cswin_seg import atomic, checkpoint
from cswin_seg.checkpoint import (
    Checkpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    snapshot,
)
from cswin_seg.cli import main as cli_main
from cswin_seg import data
from cswin_seg.data import synth_generate, write_pgm
from cswin_seg.errors import ConfigError, ContractError, FormatError
from cswin_seg.network import Model, NetworkConfig, tiny_config
from cswin_seg.optim import SGD, OptimizerConfig
from cswin_seg.tensor import Tensor


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
        ckpt = snapshot(model, iteration=17, rng_state=rng.bit_generator.state)
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
        model = Model.create(micro(), seed=6)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(model))
        restored, ckpt = restore_model(p)
        img = Tensor(np.random.default_rng(0).uniform(0, 1, (32, 32, 3)).astype(np.float32))
        a = model.forward(img).data
        b = restored.forward(img).data
        assert (a == b).all()

    def test_restore_adopts_stored_arrays(self, tmp_path):
        model = Model.create(micro(lepe_enabled=True), seed=7)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(model))
        restored, ckpt = restore_model(p)
        saved = model.named_parameters()
        got = restored.named_parameters()
        assert [n for n, _ in got] == [n for n, _ in saved]
        for (name, want), (_, t) in zip(saved, got):
            assert t.data.dtype == np.float32 and t.requires_grad, name
            assert t.data.tobytes() == want.data.tobytes(), name
            # no copy: the model's array is the checkpoint's
            assert np.shares_memory(t.data, ckpt.params[name].data), name

    def test_restore_holds_one_copy_of_the_parameters(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(tiny_config(), seed=0)))
        tracemalloc.start()
        try:
            model, ckpt = restore_model(p)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        param_bytes = sum(t.data.nbytes for t in model.parameters())
        assert held <= 1.1 * param_bytes, f"model and checkpoint hold {held / param_bytes:.2f}x the parameter bytes"

    def test_restore_peak_memory(self, tmp_path):
        # one copy of each tensor and no drawn model on top (the tighter
        # test_load_peak_within_one_copy also bounds the file's bytes away)
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(tiny_config(), seed=0)))
        tracemalloc.start()
        try:
            restore_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(p)
        assert peak <= 2.2 * size, f"peak {peak / size:.2f}x the file size"

    def test_load_peak_memory(self, tmp_path):
        # each record is read straight into its tensor's array, so the peak
        # stays near 1x the file (test_load_peak_within_one_copy bounds it)
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

    @pytest.mark.parametrize("load", [load_checkpoint, restore_model])
    def test_load_peak_within_one_copy(self, tmp_path, load):
        # one copy of each tensor and no copy of the file
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(tiny_config(), seed=0)))
        tracemalloc.start()
        try:
            load(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(p)
        assert peak <= 1.2 * size, f"peak {peak / size:.2f}x the file size"

    def test_restored_arrays_are_owned_and_trained_in_place(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(micro(), seed=0)))
        model, ckpt = restore_model(p)
        opt = SGD(model.named_parameters(), OptimizerConfig(lr=0.5, momentum=0.0, weight_decay=0.0))
        for name, t in model.named_parameters():
            flags = t.data.flags
            assert flags.owndata and flags.writeable and flags.aligned, name
            t.grad = np.ones_like(t.data)
        before = {name: t.data.copy() for name, t in ckpt.params.items()}
        opt.step()
        for name, t in ckpt.params.items():
            assert (t.data == before[name] - 0.5).all(), name

    def test_save_peak_memory(self, tmp_path):
        # records stream from the tensors' own arrays; no joined payload
        p = tmp_path / "m.ckpt"
        ckpt = snapshot(Model.create(tiny_config(), seed=0))
        tracemalloc.start()
        try:
            save_checkpoint(p, ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = os.path.getsize(p)
        assert peak <= 0.5 * size, f"peak {peak / size:.2f}x the file size"

    def test_snapshot_references_parameters_and_momenta(self, tmp_path):
        # a snapshot is saved before the next update, so it copies nothing
        model = Model.create(tiny_config(), seed=0)
        opt = SGD(model.named_parameters(), OptimizerConfig(lr=0.01))
        for _, t in model.named_parameters():
            t.grad = np.ones_like(t.data)
        opt.step()
        p = tmp_path / "m.ckpt"
        tracemalloc.start()
        try:
            ckpt = snapshot(model, opt)
            save_checkpoint(p, ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name, t in model.named_parameters():
            assert np.shares_memory(ckpt.params[name].data, t.data), name
        for name, v in opt.state().items():
            assert np.shares_memory(ckpt.momenta[name].data, v), name
        param_bytes = sum(t.data.nbytes for t in model.parameters())
        assert peak < param_bytes, f"peak {peak / param_bytes:.2f}x the parameter bytes"
        back = load_checkpoint(p)
        assert all((back.momenta[name].data == v).all() for name, v in opt.state().items())


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

    def test_header_not_utf8(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(micro(), seed=0)))
        data = bytearray(p.read_bytes())
        data[len(checkpoint.MAGIC) + 8 + 3] = 0xFF  # byte 3 of the header JSON
        p.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="corrupt header"):
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
        # tensors of a deeper stage 2 under a config that declares one block
        deep = snapshot(Model.create(micro(depths=(1, 1, 2, 1)), seed=0))
        p = tmp_path / "deep.ckpt"
        save_checkpoint(p, Checkpoint(config=micro(depths=(1, 1, 1, 1)), params=deep.params))
        with pytest.raises(FormatError, match=r"dec\.s2\.b1\.\S+ \(stage 2\) has no counterpart"):
            restore_model(p)

    def test_width_mismatch_reports_shape(self, tmp_path):
        narrow = snapshot(Model.create(micro(embed_dim=8), seed=0))
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, Checkpoint(config=micro(embed_dim=16), params=narrow.params))
        with pytest.raises(FormatError, match=r"embed\.w: shape \(7, 7, 3, 8\) != model \(7, 7, 3, 16\)"):
            restore_model(p)

    @pytest.mark.parametrize("fault", ["missing", "extra", "shape"])
    def test_stored_tensor_disagreeing_with_config_names_it(self, tmp_path, fault):
        ckpt = snapshot(Model.create(micro(), seed=0))
        if fault == "missing":
            del ckpt.params["enc.s1.b0.mlp.w1"]
            expect = r"missing parameter enc\.s1\.b0\.mlp\.w1 \(stage 1\)"
        elif fault == "extra":
            ckpt.params["dec.s3.b0.extra"] = Tensor(np.zeros(4, np.float32))
            expect = r"parameter dec\.s3\.b0\.extra \(stage 3\) has no counterpart"
        else:
            ckpt.params["dec.s0.b0.wo"] = Tensor(np.zeros((8, 4), np.float32))
            expect = r"parameter dec\.s0\.b0\.wo \(stage 0\): shape \(8, 4\) != model \(8, 8\)"
        p = tmp_path / "bad.ckpt"
        save_checkpoint(p, ckpt)
        with pytest.raises(FormatError, match=expect):
            restore_model(p)


def _split(data: bytes) -> tuple[dict, int]:
    """A CKPT1 file's header and the offset of its payload."""
    (head_len,) = struct.unpack_from("<Q", data, len(checkpoint.MAGIC))
    start = len(checkpoint.MAGIC) + 8
    return json.loads(data[start : start + head_len]), start + head_len


def _rewrite(p, edit) -> None:
    """Rewrite a checkpoint's JSON header in place with ``edit(header)``."""
    data = p.read_bytes()
    header, payload_start = _split(data)
    edit(header)
    head = json.dumps(header).encode()
    p.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(head)) + head + data[payload_start:])


class TestHeaderSchema:
    @pytest.fixture
    def ckpt_path(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(micro(), seed=0)))
        return p

    @pytest.mark.parametrize("key", ["config", "tensors", "momenta", "iteration"])
    def test_missing_key(self, ckpt_path, key):
        _rewrite(ckpt_path, lambda h: h.pop(key))
        with pytest.raises(FormatError, match=f"header has keys .*expected .*'{key}'"):
            load_checkpoint(ckpt_path)

    def test_string_offset(self, ckpt_path):
        _rewrite(ckpt_path, lambda h: h["tensors"][0].update(offset="0"))
        with pytest.raises(FormatError, match="field 'offset' is str"):
            load_checkpoint(ckpt_path)

    def test_string_embed_dim(self, ckpt_path):
        _rewrite(ckpt_path, lambda h: h["config"].update(embed_dim="8"))
        with pytest.raises(ConfigError, match="embed_dim must be int"):
            load_checkpoint(ckpt_path)

    def test_entry_longer_than_its_record(self, ckpt_path):
        # the last record, padded by the 7 bytes its entry claims in addition
        _rewrite(ckpt_path, lambda h: h["tensors"][-1].update(length=h["tensors"][-1]["length"] + 7))
        with open(ckpt_path, "ab") as f:
            f.write(b"\x00" * 7)
        name = _split(ckpt_path.read_bytes())[0]["tensors"][-1]["name"]
        with pytest.raises(FormatError, match=f"tensor {re.escape(name)}: TSR1 record is"):
            load_checkpoint(ckpt_path)

    @pytest.mark.parametrize(
        "edit,expect",
        [
            (lambda h: h["tensors"][1].update(name=h["tensors"][0]["name"]), "listed twice"),
            (lambda h: h["tensors"][1].update(offset=h["tensors"][1]["offset"] + 4), "expected offset"),
            (lambda h: h["tensors"].reverse(), "expected offset 0"),
            (lambda h: h["tensors"].pop(), "index covers"),
            (lambda h: h.update(iteration=True), "field 'iteration' is bool"),
        ],
    )
    def test_bad_index_or_field_type(self, ckpt_path, edit, expect):
        _rewrite(ckpt_path, edit)
        with pytest.raises(FormatError, match=expect):
            load_checkpoint(ckpt_path)

    def test_momentum_without_parameter(self, tmp_path):
        # the writer refuses such a checkpoint, so the header is edited by hand
        ckpt = snapshot(Model.create(micro(), seed=0))
        name = sorted(ckpt.params)[0]
        ckpt.momenta[name] = Tensor(np.zeros_like(ckpt.params[name].data))
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, ckpt)
        _rewrite(p, lambda h: h["momenta"][0].update(name="no.such.param"))
        with pytest.raises(FormatError, match="momentum no.such.param has no parameter"):
            load_checkpoint(p)

    def test_writer_refuses_momentum_without_parameter(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"previous checkpoint")
        ckpt = snapshot(Model.create(micro(), seed=0))
        ckpt.momenta["no.such.param"] = Tensor(np.zeros(3, np.float32))
        with pytest.raises(ContractError, match="momentum no.such.param has no parameter"):
            save_checkpoint(p, ckpt)
        assert p.read_bytes() == b"previous checkpoint"
        assert os.listdir(tmp_path) == ["m.ckpt"]


class TestMutations:
    """Seeded damage to a checkpoint with momenta: only typed errors escape."""

    @pytest.fixture
    def data(self, tmp_path):
        model = Model.create(micro(), seed=0)
        opt = SGD(model.named_parameters(), OptimizerConfig(lr=0.01))
        for _, t in model.named_parameters():
            t.grad = np.ones_like(t.data)
        opt.step()
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(model, optimizer=opt, iteration=1))
        return p.read_bytes()

    def test_truncation_at_every_record_boundary(self, tmp_path, data):
        header, payload_start = _split(data)
        entries = header["tensors"] + header["momenta"]
        bounds = {len(checkpoint.MAGIC), len(checkpoint.MAGIC) + 8, payload_start}
        bounds |= {payload_start + e["offset"] for e in entries}
        cuts = sorted({b + d for b in bounds for d in (-1, 0, 1)} & set(range(len(data))))
        assert len(cuts) > 3 * len(entries)
        q = tmp_path / "cut.ckpt"
        for cut in cuts:
            q.write_bytes(data[:cut])
            with pytest.raises(FormatError):
                load_checkpoint(q)
            with pytest.raises(FormatError):
                restore_model(q)

    def test_bit_flips_in_magic_length_and_header(self, tmp_path, data):
        _, payload_start = _split(data)
        rng = np.random.default_rng(1201)
        q = tmp_path / "flip.ckpt"
        loaded = 0
        for _ in range(300):
            mutated = bytearray(data)
            for _ in range(rng.integers(1, 4)):
                mutated[rng.integers(0, payload_start)] ^= 1 << int(rng.integers(0, 8))
            q.write_bytes(bytes(mutated))
            try:  # any other exception fails the test
                load_checkpoint(q)
                restore_model(q)
                loaded += 1
            except (FormatError, ConfigError):
                pass
        assert loaded < 300  # some flips must have been caught

    def test_huge_shape_rejected_before_allocating(self, tmp_path, monkeypatch):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, Checkpoint(config=micro(), params={"x": Tensor(np.zeros((2, 2), np.float32))}))
        data = bytearray(p.read_bytes())
        _, payload_start = _split(bytes(data))
        data[payload_start + 12 : payload_start + 28] = struct.pack("<2Q", 2**32, 2**32)
        p.write_bytes(bytes(data))
        monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("np.empty ran"))
        with pytest.raises(FormatError, match="tensor x: TSR1 tensor truncated in payload"):
            load_checkpoint(p)


class _FailingFile:
    """A file whose fail_at-th write stores half its bytes and then fails."""

    def __init__(self, f, fail_at):
        self.f, self.fail_at, self.writes = f, fail_at, 0

    def write(self, b):
        self.writes += 1
        if self.writes == self.fail_at:
            self.f.write(bytes(b[: len(b) // 2]))
            raise OSError(28, "No space left on device")
        return self.f.write(b)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _inject(monkeypatch, fault, fail_at):
    """Make the crash-safe write path fail at a write, the fsync or the rename."""

    def boom(*args, **kwargs):
        raise OSError(5, f"injected {fault} failure")

    if fault == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(atomic.os, "fdopen", lambda *a, **k: _FailingFile(real_fdopen(*a, **k), fail_at))
    else:
        monkeypatch.setattr(atomic.os, fault, boom)


class TestCrashSafeSave:
    @pytest.mark.parametrize("fault", ["write", "fsync", "replace"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, fault):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(micro(), seed=1), iteration=1))
        before = p.read_bytes()
        _inject(monkeypatch, fault, fail_at=3)  # the header write, after magic and length
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

    @pytest.mark.parametrize("fault", ["write", "fsync", "replace"])
    def test_failed_tensor_save_keeps_previous_file(self, tmp_path, monkeypatch, fault):
        p = tmp_path / "m.ckpt"
        save_checkpoint(p, snapshot(Model.create(micro(), seed=1), iteration=1))
        before = p.read_bytes()
        _inject(monkeypatch, fault, fail_at=5)  # the first TSR1 record's payload, after its header
        with pytest.raises(OSError):
            save_checkpoint(p, snapshot(Model.create(micro(), seed=2), iteration=2))
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["m.ckpt"]

    @pytest.mark.parametrize("fault", ["write", "fsync", "replace"])
    def test_failed_csv_write_keeps_previous_file(self, tmp_path, monkeypatch, capsys, fault):
        data, ckpt, out = tmp_path / "d", tmp_path / "m.ckpt", tmp_path / "out"
        synth_generate(data, 2, 32, 3, seed=0, test=1)
        save_checkpoint(ckpt, snapshot(Model.create(micro(), seed=1)))
        out.mkdir()
        report = out / "report.csv"
        report.write_bytes(b"previous report\n")
        argv = ["eval", "--data", str(data), "--checkpoint", str(ckpt), "--out", str(report)]
        _inject(monkeypatch, fault, fail_at=1)
        assert cli_main(argv) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err.startswith("error:")
        assert report.read_bytes() == b"previous report\n"
        assert sorted(os.listdir(out)) == ["report.csv"]
        assert cli_main(argv) == 0
        assert report.read_text().startswith("class,dsc,hd,hd95")

    @pytest.mark.parametrize("fault", ["write", "fsync", "replace"])
    def test_failed_pgm_write_keeps_previous_file(self, tmp_path, monkeypatch, fault):
        p = tmp_path / "mask.pgm"
        write_pgm(p, np.zeros((4, 6), np.uint8))
        before = p.read_bytes()
        _inject(monkeypatch, fault, fail_at=2)  # the pixels, after the header
        with pytest.raises(OSError):
            write_pgm(p, np.ones((8, 8), np.uint8))
        monkeypatch.undo()
        assert p.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["mask.pgm"]

    @pytest.mark.parametrize("fault", ["write", "fsync", "replace"])
    def test_failed_manifest_write_keeps_previous_manifest(self, tmp_path, monkeypatch, fault):
        synth_generate(tmp_path, 2, 32, 3, seed=0)
        manifest = tmp_path / "manifest.json"
        before = manifest.read_bytes()
        # only the manifest goes through the write path on the second run
        monkeypatch.setattr(data, "write_ppm", lambda *a: None)
        monkeypatch.setattr(data, "write_pgm", lambda *a: None)
        _inject(monkeypatch, fault, fail_at=1)
        with pytest.raises(OSError):
            synth_generate(tmp_path, 3, 32, 3, seed=1)
        monkeypatch.undo()
        assert manifest.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["images", "manifest.json", "masks"]

    def test_written_files_get_the_umask_mode(self, tmp_path):
        # what a plain open() would create: 0o666 less the umask, not 0o600
        old = os.umask(0o022)
        try:
            save_checkpoint(tmp_path / "m.ckpt", snapshot(Model.create(micro(), seed=1)))
            write_pgm(tmp_path / "mask.pgm", np.zeros((2, 2), np.uint8))
            synth_generate(tmp_path / "d", 2, 32, 3, seed=0)
            micro().save(tmp_path / "cfg.json")
        finally:
            os.umask(old)
        for p in ("m.ckpt", "mask.pgm", "d/manifest.json", "d/images/s0000.ppm", "cfg.json"):
            assert (tmp_path / p).stat().st_mode & 0o777 == 0o644, p
