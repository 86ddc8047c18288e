import json

import numpy as np
import pytest

from cswin_seg.data import (
    CLASS_FRACTION_BOUNDS,
    generate_sample,
    load_dataset,
    read_pgm,
    read_ppm,
    synth_generate,
    write_pgm,
    write_ppm,
)
from cswin_seg.errors import ConfigError, DataError, FormatError


class TestNetpbm:
    def test_pgm_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        mask = rng.integers(0, 6, (13, 9)).astype(np.uint8)
        p = tmp_path / "m.pgm"
        write_pgm(p, mask)
        assert (read_pgm(p) == mask).all()

    def test_ppm_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (7, 11, 3)).astype(np.uint8)
        p = tmp_path / "i.ppm"
        write_ppm(p, img)
        assert (read_ppm(p) == img).all()

    def test_float_image_quantized(self, tmp_path):
        img = np.zeros((2, 2, 3), dtype=np.float32)
        img[0, 0] = 1.0
        p = tmp_path / "q.ppm"
        write_ppm(p, img)
        back = read_ppm(p)
        assert back[0, 0].tolist() == [255, 255, 255]
        assert back[1, 1].tolist() == [0, 0, 0]

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "bad.pgm"
        write_pgm(p, np.zeros((4, 4), dtype=np.uint8))
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_pgm(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P3\n2 2\n255\nwhatever")
        with pytest.raises(FormatError):
            read_ppm(p)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        assert read_pgm(p).tolist() == [[0, 1], [2, 3]]

    def test_unterminated_comment(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n2 2 # a comment")
        with pytest.raises(FormatError, match="comment"):
            read_pgm(p)

    @pytest.mark.parametrize(
        "header", [b"P5\n0 0\n255\n", b"P5\n-3 6\n255\n", b"P5\n4 0\n255\n"], ids=["0x0", "-3x6", "4x0"]
    )
    def test_nonpositive_size(self, tmp_path, header):
        p = tmp_path / "z.pgm"
        p.write_bytes(header + bytes(24))
        with pytest.raises(FormatError, match="not positive"):
            read_pgm(p)

    def test_empty_pair_not_loaded(self, tmp_path):
        # a 0 x 0 image and mask must fail in the reader, not in load_dataset's label check
        synth_generate(tmp_path, n=1, size=32, num_classes=3, seed=0)
        (tmp_path / "images/s0000.ppm").write_bytes(b"P6\n0 0\n255\n")
        (tmp_path / "masks/s0000.pgm").write_bytes(b"P5\n0 0\n255\n")
        with pytest.raises(FormatError, match="s0000.ppm"):
            load_dataset(tmp_path)


class TestGenerator:
    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_generate(a, n=4, size=32, num_classes=4, seed=7)
        synth_generate(b, n=4, size=32, num_classes=4, seed=7)
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_generate(a, n=2, size=32, num_classes=4, seed=1)
        synth_generate(b, n=2, size=32, num_classes=4, seed=2)
        assert (a / "images/s0000.ppm").read_bytes() != (b / "images/s0000.ppm").read_bytes()

    def test_mask_labels_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            s = generate_sample(rng, 32, 4, "x")
            assert s.mask.min() >= 0 and s.mask.max() < 4
            assert s.image.dtype == np.float32
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_class_pixel_frequencies_within_bounds(self):
        rng = np.random.default_rng(11)
        k = 4
        counts = np.zeros(k)
        n = 100
        for _ in range(n):
            s = generate_sample(rng, 64, k, "x")
            for c in range(k):
                counts[c] += (s.mask == c).mean()
        lo, hi = CLASS_FRACTION_BOUNDS
        for c in range(1, k):
            assert lo <= counts[c] / n <= hi, f"class {c}: mean fraction {counts[c] / n:.4f}"

    def test_invalid_size_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            synth_generate(tmp_path, n=2, size=60, num_classes=4, seed=0)

    @pytest.mark.parametrize("size", [0, -32])
    def test_nonpositive_size_rejected(self, tmp_path, size):
        with pytest.raises(ConfigError, match="positive"):
            synth_generate(tmp_path, n=2, size=size, num_classes=4, seed=0)

    def test_split_budget_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            synth_generate(tmp_path, n=2, size=32, num_classes=4, seed=0, val=1, test=1)


class TestLoading:
    def test_load_roundtrip(self, tmp_path):
        synth_generate(tmp_path, n=5, size=32, num_classes=3, seed=5, val=1, test=1)
        train_samples, manifest = load_dataset(tmp_path, "train")
        assert len(train_samples) == 3
        assert manifest["num_classes"] == 3
        val_samples, _ = load_dataset(tmp_path, "val")
        test_samples, _ = load_dataset(tmp_path, "test")
        assert len(val_samples) == 1 and len(test_samples) == 1
        ids = {s.id for s in train_samples} | {s.id for s in val_samples} | {s.id for s in test_samples}
        assert len(ids) == 5  # splits disjoint

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_empty_split_rejected(self, tmp_path):
        synth_generate(tmp_path, n=2, size=32, num_classes=3, seed=5)
        with pytest.raises(DataError):
            load_dataset(tmp_path, "test")

    def test_mask_image_loaded_as_written(self, tmp_path):
        synth_generate(tmp_path, n=1, size=32, num_classes=4, seed=9)
        samples, _ = load_dataset(tmp_path, "train")
        rng = np.random.default_rng(9)
        want = generate_sample(rng, 32, 4, "s0000")
        assert (samples[0].mask == want.mask).all()
        # image went through u8 quantization; allow half-step error
        assert np.abs(samples[0].image - want.image).max() <= 0.5 / 255 + 1e-6


_MISSING = object()


def _write_edited_manifest(root, edit):
    synth_generate(root, n=2, size=32, num_classes=3, seed=4)
    path = root / "manifest.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    return path


class TestMalformedManifest:
    def test_not_an_object(self, tmp_path):
        path = _write_edited_manifest(tmp_path, lambda m: [m])
        with pytest.raises(FormatError, match="JSON object") as exc:
            load_dataset(tmp_path)
        assert str(exc.value).startswith(f"{path}: ")

    # (edit the first sample instead of the manifest, key, new value or _MISSING to delete it)
    @pytest.mark.parametrize(
        "in_sample, key, value",
        [
            (False, "num_classes", _MISSING),
            (False, "num_classes", "3"),
            (False, "num_classes", True),
            (False, "samples", _MISSING),
            (False, "samples", {"s0000": {}}),
            (False, "samples", ["s0000.ppm"]),
            (True, "id", _MISSING),
            (True, "image", _MISSING),
            (True, "mask", _MISSING),
            (True, "split", _MISSING),
            (True, "id", 0),
            (True, "split", None),
        ],
    )
    def test_bad_key_named(self, tmp_path, in_sample, key, value):
        def edit(m):
            target = m["samples"][0] if in_sample else m
            if value is _MISSING:
                del target[key]
            else:
                target[key] = value
            return m

        path = _write_edited_manifest(tmp_path, edit)
        with pytest.raises(FormatError) as exc:
            load_dataset(tmp_path)
        msg = str(exc.value)
        assert msg.startswith(f"{path}: ") and key in msg.removeprefix(f"{path}: ")
