"""Checkpoint serialization.

Layout: 5-byte magic "CKPT1", a u64 little-endian header length, a JSON
header, then the payload: concatenated TSR1 tensor records.  The header
carries the format version, the full network config, the iteration
counter, the training rng state, and (name, offset, length) for every
parameter and momentum buffer.  Offsets are relative to the payload start.
Saving replaces the target atomically: the bytes go to a temp file in the
same directory, which is fsynced and then renamed over the target.

Offsets, shapes and dtypes make loading strict: a checkpoint written for a
different architecture fails with an error naming the first offending
tensor rather than silently mis-assigning weights.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError
from .network import Model, NetworkConfig
from .optim import SGD
from .tensor import Tensor, tensor_from_bytes, tensor_to_bytes

MAGIC = b"CKPT1"
VERSION = 2  # version 1 stored per-head Q/K/V tensors (h{i}.wq, h{i}.wk, h{i}.wv)


@dataclass
class Checkpoint:
    config: NetworkConfig
    params: dict[str, Tensor]
    momenta: dict[str, Tensor] = field(default_factory=dict)
    iteration: int = 0
    rng_state: dict | None = None


def snapshot(model: Model, optimizer: SGD | None = None, iteration: int = 0, rng: np.random.Generator | None = None) -> Checkpoint:
    params = {name: Tensor(t.data.copy()) for name, t in model.named_parameters()}
    momenta = {}
    if optimizer is not None:
        momenta = {name: Tensor(v.copy()) for name, v in optimizer.state().items()}
    rng_state = None
    if rng is not None:
        rng_state = json.loads(json.dumps(rng.bit_generator.state))
    return Checkpoint(config=model.config, params=params, momenta=momenta, iteration=iteration, rng_state=rng_state)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    payload = bytearray()
    index = {"params": [], "momenta": []}
    for section, tensors in (("params", ckpt.params), ("momenta", ckpt.momenta)):
        for name in sorted(tensors):
            blob = tensor_to_bytes(tensors[name])
            index[section].append({"name": name, "offset": len(payload), "length": len(blob)})
            payload.extend(blob)
    header = {
        "version": VERSION,
        "config": ckpt.config.to_dict(),
        "iteration": ckpt.iteration,
        "rng_state": ckpt.rng_state,
        "tensors": index["params"],
        "momenta": index["momenta"],
    }
    head = json.dumps(header, sort_keys=True).encode()
    # write a sibling temp file and rename it over the target, so a crash
    # mid-write leaves the previous checkpoint intact
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(head)))
            f.write(head)
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8 or data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    (head_len,) = struct.unpack_from("<Q", data, len(MAGIC))
    head_start = len(MAGIC) + 8
    if len(data) < head_start + head_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(data[head_start : head_start + head_len])
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: corrupt header JSON: {e}") from e
    if header.get("version") != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {header.get('version')}, expected {VERSION}")
    config = NetworkConfig.from_dict(header["config"])
    payload = memoryview(data)[head_start + head_len :]  # slices of it copy nothing

    def read_section(entries) -> dict[str, Tensor]:
        out = {}
        for e in entries:
            blob = payload[e["offset"] : e["offset"] + e["length"]]
            if len(blob) != e["length"]:
                raise FormatError(f"{path}: tensor {e['name']} truncated")
            out[e["name"]] = tensor_from_bytes(blob)
        return out

    return Checkpoint(
        config=config,
        params=read_section(header["tensors"]),
        momenta=read_section(header["momenta"]),
        iteration=header["iteration"],
        rng_state=header.get("rng_state"),
    )


def _stage_hint(name: str) -> str:
    if name.startswith(("enc.s", "dec.s")):
        return f" (stage {name.split('.')[1][1:]})"
    return ""


def apply_to_model(ckpt: Checkpoint, model: Model) -> None:
    """Copy checkpoint parameters into a model, strictly by name and shape."""
    own = dict(model.named_parameters())
    for name in own:
        if name not in ckpt.params:
            raise FormatError(f"checkpoint missing parameter {name}{_stage_hint(name)}")
    for name, stored in ckpt.params.items():
        if name not in own:
            raise FormatError(f"checkpoint parameter {name}{_stage_hint(name)} has no counterpart in this config")
        if stored.shape != own[name].shape:
            raise FormatError(
                f"checkpoint parameter {name}{_stage_hint(name)}: shape {stored.shape} != model {own[name].shape}"
            )
        own[name].data[...] = stored.data  # casts to the model's dtype in place


def restore_model(path) -> tuple[Model, Checkpoint]:
    """Build a model from a checkpoint's own config and load its weights."""
    ckpt = load_checkpoint(path)
    model = Model.create(ckpt.config, seed=0)
    apply_to_model(ckpt, model)
    return model, ckpt
