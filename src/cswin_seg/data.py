"""Synthetic segmentation data and the on-disk dataset layout.

Samples pair an RGB image (float in [0,1]) with an integer class-id mask.
The generator places one anti-aliased shape per drawn class over a low
frequency textured background: class kinds cycle through ellipse,
rectangle and annulus (the annulus mimics thin ring structures, small
ellipses mimic small low-contrast organs).  Masks hold the exact analytic
geometry evaluated at pixel centers; anti-aliasing (2x2 supersampling)
exists only in the rendered image.  Every draw comes from one seeded
generator, so a dataset is a pure function of its seed.

On disk: images are binary PPM (P6), masks binary PGM (P5), and a JSON
manifest lists samples, split assignment, class count and the generator
settings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import ConfigError, DataError, FormatError

# dataset-level mean pixel fraction per foreground class stays inside
# these bounds (asserted by the statistical harness)
CLASS_FRACTION_BOUNDS = (0.005, 0.25)

MANIFEST_VERSION = 1
_SHAPE_KINDS = ("ellipse", "rectangle", "annulus")

# fixed, well separated class colors (foreground classes cycle through these)
_PALETTE = np.array(
    [
        [0.85, 0.25, 0.25],
        [0.25, 0.75, 0.30],
        [0.25, 0.35, 0.85],
        [0.85, 0.75, 0.25],
        [0.70, 0.30, 0.80],
        [0.25, 0.75, 0.75],
        [0.90, 0.55, 0.25],
        [0.55, 0.55, 0.55],
    ]
)


@dataclass
class SegmentationSample:
    image: np.ndarray  # [H,W,3] float32 in [0,1]
    mask: np.ndarray  # [H,W] integer class ids
    id: str


def class_color(class_id: int) -> np.ndarray:
    """Display color of a foreground class (also its render color)."""
    return _PALETTE[(class_id - 1) % len(_PALETTE)]


# -- PGM / PPM -------------------------------------------------------------------


def write_pgm(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise DataError(f"PGM mask must be 2-D, got {mask.shape}")
    if mask.min() < 0 or mask.max() > 255:
        raise DataError("PGM mask values must fit in a byte")
    h, w = mask.shape
    write_atomic(path, [f"P5\n{w} {h}\n255\n".encode(), mask.astype(np.uint8).tobytes()])


def write_ppm(path, image: np.ndarray) -> None:
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DataError(f"PPM image must be [H,W,3], got {image.shape}")
    h, w, _ = image.shape
    if image.dtype != np.uint8:
        image = (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    write_atomic(path, [f"P6\n{w} {h}\n255\n".encode(), image.tobytes()])


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(magic):
        raise FormatError(f"{path}: expected {magic.decode()} file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":  # comment line
            pos = data.find(b"\n", pos) + 1
            if pos == 0:
                raise FormatError(f"{path}: header comment has no end of line")
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated header")
        try:
            fields.append(int(data[start:pos]))
        except ValueError as e:
            raise FormatError(f"{path}: bad header field {data[start:pos]!r}") from e
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: image size {w}x{h} is not positive")
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    need = w * h * channels
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise FormatError(f"{path}: payload truncated ({len(raw)} of {need} bytes)")
    arr = np.frombuffer(raw, dtype=np.uint8)
    return arr.reshape((h, w) if channels == 1 else (h, w, channels))


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5", 1)


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3)


# -- synthetic generation ----------------------------------------------------------


def _coverage(inside_fn, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(exact pixel-center membership, 2x2 supersampled coverage in [0,1])."""
    centers = np.arange(size) + 0.5
    yy, xx = np.meshgrid(centers, centers, indexing="ij")
    exact = inside_fn(xx, yy)
    alpha = np.zeros((size, size))
    for dy in (-0.25, 0.25):
        for dx in (-0.25, 0.25):
            alpha += inside_fn(xx + dx, yy + dy)
    return exact, alpha / 4.0


def _shape_predicate(kind: str, rng: np.random.Generator, size: int):
    cx, cy = rng.uniform(0.2 * size, 0.8 * size, 2)
    theta = rng.uniform(0, np.pi)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    def rotated(xx, yy):
        dx, dy = xx - cx, yy - cy
        return cos_t * dx + sin_t * dy, -sin_t * dx + cos_t * dy

    if kind == "ellipse":
        a = rng.uniform(0.08 * size, 0.22 * size)
        b = rng.uniform(0.08 * size, 0.22 * size)

        def inside(xx, yy):
            u, v = rotated(xx, yy)
            return (u / a) ** 2 + (v / b) ** 2 <= 1.0

    elif kind == "rectangle":
        a = rng.uniform(0.08 * size, 0.22 * size)
        b = rng.uniform(0.08 * size, 0.22 * size)

        def inside(xx, yy):
            u, v = rotated(xx, yy)
            return (np.abs(u) <= a) & (np.abs(v) <= b)

    elif kind == "annulus":
        r_out = rng.uniform(0.12 * size, 0.25 * size)
        r_in = r_out * rng.uniform(0.45, 0.7)

        def inside(xx, yy):
            r2 = (xx - cx) ** 2 + (yy - cy) ** 2
            return (r2 <= r_out**2) & (r2 >= r_in**2)

    else:
        raise ConfigError(f"unknown shape kind {kind!r}")
    return inside


def class_shape_kind(class_id: int) -> str:
    return _SHAPE_KINDS[(class_id - 1) % len(_SHAPE_KINDS)]


def generate_sample(rng: np.random.Generator, size: int, num_classes: int, sample_id: str) -> SegmentationSample:
    """One textured background plus 1..num_classes-1 shapes of distinct classes."""
    if num_classes < 2:
        raise ConfigError("need at least one foreground class")
    centers = (np.arange(size) + 0.5) / size
    yy, xx = np.meshgrid(centers, centers, indexing="ij")
    image = np.empty((size, size, 3))
    for ch in range(3):
        fx, fy = rng.uniform(0.5, 2.0, 2)
        phase = rng.uniform(0, 2 * np.pi)
        base = rng.uniform(0.15, 0.35)
        image[:, :, ch] = base + 0.08 * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)

    mask = np.zeros((size, size), dtype=np.int64)
    n_shapes = int(rng.integers(1, num_classes))
    classes = rng.choice(np.arange(1, num_classes), size=n_shapes, replace=False)
    for class_id in classes:
        inside = _shape_predicate(class_shape_kind(int(class_id)), rng, size)
        exact, alpha = _coverage(inside, size)
        color = _PALETTE[(class_id - 1) % len(_PALETTE)] * rng.uniform(0.85, 1.15)
        image = image * (1.0 - alpha[:, :, None]) + np.clip(color, 0, 1)[None, None, :] * alpha[:, :, None]
        mask[exact] = class_id

    image += rng.normal(0.0, 0.02, image.shape)
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return SegmentationSample(image=image, mask=mask, id=sample_id)


def synth_generate(
    out_dir,
    n: int,
    size: int,
    num_classes: int,
    seed: int,
    val: int = 0,
    test: int = 0,
) -> dict:
    """Write n samples plus a manifest under out_dir; returns the manifest."""
    if size <= 0 or size % 32:
        raise ConfigError(f"size {size} is not a positive multiple of 32")
    if num_classes < 2:
        raise ConfigError("num_classes must be >= 2")
    if val + test >= n:
        raise ConfigError(f"val({val}) + test({test}) must leave at least one training sample of {n}")
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    (out_dir / "masks").mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        sample = generate_sample(rng, size, num_classes, f"s{i:04d}")
        split = "train" if i < n - val - test else ("val" if i < n - test else "test")
        image_rel = f"images/{sample.id}.ppm"
        mask_rel = f"masks/{sample.id}.pgm"
        write_ppm(out_dir / image_rel, sample.image)
        write_pgm(out_dir / mask_rel, sample.mask)
        entries.append({"id": sample.id, "image": image_rel, "mask": mask_rel, "split": split})

    manifest = {
        "version": MANIFEST_VERSION,
        "num_classes": num_classes,
        "size": size,
        "seed": seed,
        "generator": {"shape_kinds": list(_SHAPE_KINDS), "class_fraction_bounds": list(CLASS_FRACTION_BOUNDS)},
        "samples": entries,
    }
    write_atomic(out_dir / "manifest.json", [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])
    return manifest


# -- loading -----------------------------------------------------------------------


def _check_keys(path, where: str, obj, types: dict) -> None:
    """Raise FormatError unless obj is a JSON object whose keys hold values of
    exactly these types (so a JSON true is not an int)."""
    if type(obj) is not dict:
        raise FormatError(f"{path}: {where} must be a JSON object, got {type(obj).__name__}")
    for key, kind in types.items():
        if key not in obj:
            raise FormatError(f"{path}: {where} has no {key!r}")
        if type(obj[key]) is not kind:
            raise FormatError(f"{path}: {where} {key!r} must be {kind.__name__}, got {type(obj[key]).__name__}")


def load_manifest(path) -> dict:
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        with open(path) as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise DataError(f"no manifest at {path}")
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON: {e}") from e
    _check_keys(path, "manifest", manifest, {"version": int, "num_classes": int, "samples": list})
    if manifest["version"] != MANIFEST_VERSION:
        raise FormatError(f"{path}: unsupported manifest version {manifest['version']}")
    for i, entry in enumerate(manifest["samples"]):
        _check_keys(path, f"samples[{i}]", entry, dict.fromkeys(("id", "image", "mask", "split"), str))
    seen_splits = {e["split"] for e in manifest["samples"]}
    if not seen_splits <= {"train", "val", "test"}:
        raise DataError(f"{path}: unknown splits {seen_splits}")
    return manifest


def load_dataset(root, split: str | None = None) -> tuple[list[SegmentationSample], dict]:
    """Load samples (optionally one split) and validate them against the manifest."""
    root = Path(root)
    if root.is_file():
        root = root.parent
    manifest = load_manifest(root)
    k = manifest["num_classes"]
    samples = []
    for entry in manifest["samples"]:
        if split is not None and entry["split"] != split:
            continue
        image = read_ppm(root / entry["image"]).astype(np.float32) / 255.0
        mask = read_pgm(root / entry["mask"]).astype(np.int64)
        if mask.max() >= k:
            raise DataError(f"{entry['id']}: mask label {mask.max()} >= num_classes {k}")
        if image.shape[:2] != mask.shape:
            raise DataError(f"{entry['id']}: image {image.shape} and mask {mask.shape} disagree")
        samples.append(SegmentationSample(image=image, mask=mask, id=entry["id"]))
    if not samples:
        raise DataError(f"no samples for split {split!r} under {root}")
    return samples, manifest
