"""Checkpoint serialization.

Layout: 5-byte magic "CKPT1", a u64 little-endian header length, a JSON
header, then the payload: concatenated TSR1 tensor records.  The header
carries the format version, the full network config, the iteration
counter, the training rng state, and (name, offset, length) for every
parameter and momentum buffer.  Offsets are relative to the payload start.
Saving replaces the target atomically (``atomic.write_atomic``).

Offsets, shapes and dtypes make loading strict: a checkpoint written for a
different architecture fails with an error naming the first offending
tensor rather than silently mis-assigning weights.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .errors import FormatError
from .initializers import ParamSource
from .network import Model, NetworkConfig
from .optim import SGD
from .tensor import Tensor, tensor_from_bytes, tensor_record

MAGIC = b"CKPT1"
VERSION = 2  # version 1 stored per-head Q/K/V tensors (h{i}.wq, h{i}.wk, h{i}.wv)


@dataclass
class Checkpoint:
    config: NetworkConfig
    params: dict[str, Tensor]
    momenta: dict[str, Tensor] = field(default_factory=dict)
    iteration: int = 0
    rng_state: dict | None = None


def snapshot(model: Model, optimizer: SGD | None = None, iteration: int = 0, rng_state: dict | None = None) -> Checkpoint:
    """Copy the model's parameters and the optimizer's momenta; ``rng_state``
    is a ``bit_generator.state`` dict, such as the one ``train`` returns."""
    params = {name: Tensor(t.data.copy()) for name, t in model.named_parameters()}
    momenta = {}
    if optimizer is not None:
        momenta = {name: Tensor(v.copy()) for name, v in optimizer.state().items()}
    return Checkpoint(config=model.config, params=params, momenta=momenta, iteration=iteration, rng_state=rng_state)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write the header, then stream each TSR1 record straight from its
    tensor's array: offsets come from the record sizes, so the payload is
    never joined in memory."""
    records = []
    index = {"params": [], "momenta": []}
    offset = 0
    for section, tensors in (("params", ckpt.params), ("momenta", ckpt.momenta)):
        for name in sorted(tensors):
            head, body = tensor_record(tensors[name])
            length = len(head) + body.nbytes
            index[section].append({"name": name, "offset": offset, "length": length})
            offset += length
            records += (head, body)
    header = {
        "version": VERSION,
        "config": ckpt.config.to_dict(),
        "iteration": ckpt.iteration,
        "rng_state": ckpt.rng_state,
        "tensors": index["params"],
        "momenta": index["momenta"],
    }
    head = json.dumps(header, sort_keys=True).encode()
    write_atomic(path, [MAGIC, struct.pack("<Q", len(head)), head, *records])


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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
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


def restore_model(path) -> tuple[Model, Checkpoint]:
    """Build a model from a checkpoint's own config around its stored arrays.

    Nothing is drawn: the model adopts each stored parameter by name.  An f32
    array is adopted without a copy, so the model's parameters alias the
    returned ``Checkpoint.params`` (training the model changes both); an f64
    array is cast to f32.  A stored tensor that the config does not declare,
    a declared one that is missing and one of the wrong shape each raise
    ``FormatError`` naming the tensor and its stage.
    """
    ckpt = load_checkpoint(path)

    def adopt(name, shape, init):
        stored = ckpt.params.get(name)
        if stored is None:
            raise FormatError(f"checkpoint missing parameter {name}{_stage_hint(name)}")
        if stored.shape != shape:
            raise FormatError(f"checkpoint parameter {name}{_stage_hint(name)}: shape {stored.shape} != model {shape}")
        return stored.data.astype(np.float32, copy=False)

    model = Model(ckpt.config, ParamSource(adopt))
    extra = sorted(set(ckpt.params) - {name for name, _ in model.named_parameters()})
    if extra:
        raise FormatError(f"checkpoint parameter {extra[0]}{_stage_hint(extra[0])} has no counterpart in this config")
    return model, ckpt
