"""Checkpoint serialization.

Layout: 5-byte magic "CKPT1", a u64 little-endian header length, a JSON
header, then the payload: concatenated TSR1 tensor records.  The header
carries the format version, the full network config, the iteration
counter, the training rng state, and (name, offset, length) for every
parameter and momentum buffer.  Offsets are relative to the payload start.
Saving replaces the target atomically (``atomic.write_atomic``).

Loading streams: the header is checked against a fixed schema, and the
index against the file's size, before any tensor is allocated; then each
record is read straight into its tensor's array.  A restore therefore holds
one copy of the parameters and never the whole file.  Offsets, shapes and
dtypes make loading strict: a checkpoint written for a different
architecture fails with an error naming the first offending tensor rather
than silently mis-assigning weights.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .errors import ContractError, FormatError
from .initializers import ParamSource
from .network import Model, NetworkConfig
from .optim import SGD
from .tensor import Tensor, read_record, tensor_record

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
    """The model's parameters and the optimizer's momenta, not copied: valid
    until the next update.  ``rng_state`` is a ``bit_generator.state`` dict."""
    params = dict(model.named_parameters())
    momenta = {}
    if optimizer is not None:
        momenta = {name: Tensor(v) for name, v in optimizer.state().items()}
    return Checkpoint(config=model.config, params=params, momenta=momenta, iteration=iteration, rng_state=rng_state)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write the header, then stream each TSR1 record straight from its
    tensor's array: offsets come from the record sizes, so the payload is
    never joined in memory.  Momenta must name parameters, as
    ``load_checkpoint`` requires; otherwise ``ContractError`` is raised
    before any byte is written."""
    orphans = sorted(set(ckpt.momenta) - set(ckpt.params))
    if orphans:
        raise ContractError(f"momentum {orphans[0]} has no parameter")
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


_HEADER_SCHEMA = {
    "version": int, "config": dict, "iteration": int, "rng_state": (dict, type(None)),
    "tensors": list, "momenta": list,
}
_ENTRY_SCHEMA = {"name": str, "offset": int, "length": int}


def _check_schema(path, what: str, d, schema: dict) -> None:
    """Raise FormatError unless ``d`` is a dict with exactly the schema's keys,
    each of its type (a bool is not an int)."""
    if not isinstance(d, dict) or set(d) != set(schema):
        keys = sorted(d) if isinstance(d, dict) else type(d).__name__
        raise FormatError(f"{path}: {what} has keys {keys}, expected {sorted(schema)}")
    for key, want in schema.items():
        if not isinstance(d[key], want) or (want is int and isinstance(d[key], bool)):
            raise FormatError(f"{path}: {what} field {key!r} is {type(d[key]).__name__}")


def _read_header(path, f, size: int) -> dict:
    """Read and validate the magic, the length and the JSON header; ``f`` is
    left at the start of the payload."""
    prefix = f.read(len(MAGIC) + 8)
    if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    (head_len,) = struct.unpack_from("<Q", prefix, len(MAGIC))
    if head_len > size - len(prefix):
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(f.read(head_len))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: corrupt header JSON: {e}") from e
    version = header.get("version") if isinstance(header, dict) else None
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}, expected {VERSION}")
    _check_schema(path, "header", header, _HEADER_SCHEMA)
    if header["iteration"] < 0:
        raise FormatError(f"{path}: negative iteration {header['iteration']}")
    # the records must tile the payload in index order, ending at the file's end
    end = 0
    for e in header["tensors"] + header["momenta"]:
        _check_schema(path, "index entry", e, _ENTRY_SCHEMA)
        if e["offset"] != end or e["length"] < 0:
            raise FormatError(f"{path}: tensor {e['name']} at bytes {e['offset']}+{e['length']}, expected offset {end}")
        end += e["length"]
    if end != size - len(prefix) - head_len:
        raise FormatError(f"{path}: index covers {end} payload bytes, file holds {size - len(prefix) - head_len}")
    params = {e["name"] for e in header["tensors"]}
    momenta = {e["name"] for e in header["momenta"]}
    if len(params) < len(header["tensors"]) or len(momenta) < len(header["momenta"]):
        raise FormatError(f"{path}: a tensor is listed twice in the index")
    if not momenta <= params:
        raise FormatError(f"{path}: momentum {sorted(momenta - params)[0]} has no parameter")
    return header


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint, each record straight into its tensor's array.

    The header and index are validated before any tensor is allocated, so a
    corrupt, truncated or mis-indexed file raises ``FormatError`` (or
    ``ConfigError`` for a bad config) and nothing larger than the header is
    read.  Each payload is then copied once, from the file into its final
    array: a load holds one copy of the tensors and no copy of the file.
    """
    with open(path, "rb") as f:
        header = _read_header(path, f, os.fstat(f.fileno()).st_size)
        config = NetworkConfig.from_dict(header["config"])

        def read_section(entries) -> dict[str, Tensor]:
            out = {}
            for e in entries:  # records follow each other, so no seek is needed
                try:
                    out[e["name"]] = read_record(f, e["length"])
                except FormatError as err:
                    raise FormatError(f"{path}: tensor {e['name']}: {err}") from err
            return out

        params = read_section(header["tensors"])
        momenta = read_section(header["momenta"])
    return Checkpoint(config, params, momenta, header["iteration"], header["rng_state"])


def _stage_hint(name: str) -> str:
    if name.startswith(("enc.s", "dec.s")):
        return f" (stage {name.split('.')[1][1:]})"
    return ""


def restore_model(path) -> tuple[Model, Checkpoint]:
    """Build a model from a checkpoint's own config around its stored arrays.

    Nothing is drawn: the model adopts each stored parameter by name, as
    ``load_checkpoint`` read it straight from the file, so a restore holds one
    copy of the parameters.  An f32 array is adopted without a copy, so the
    model's parameters alias the returned ``Checkpoint.params`` (training the
    model changes both); an f64 array is cast to f32.  A stored tensor that
    the config does not declare, a declared one that is missing and one of
    the wrong shape each raise ``FormatError`` naming the tensor and its
    stage.
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
