"""Spans around the package's public calls, recorded from the benchmark side.

``Tracer.install()`` replaces module attributes and ``Model`` methods of
``cswin_seg`` with wrappers that record a span (name, start, end, parent)
and puts the originals back on ``uninstall()``.  Nothing under ``src/``
knows about it.  Spans stay in memory and are written out once, when the
run ends.

Model-layer spans are named after the public call they wrap; a call that
several stages share is named by its parent span and its channel count
(``cswin_block`` under ``encode`` with 4C channels is ``enc.s2``).  Each
layer span also owns the tape entries recorded while it is the innermost
layer span, so the wrapped ``backward`` can time every entry's gradient
function and charge it to the layer that recorded it.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import defaultdict

from importlib import import_module

from cswin_seg import carafe, checkpoint, network, optim
from cswin_seg.tensor import Tape

train = import_module("cswin_seg.train")  # the package re-exports a function under this name

MODEL_LAYERS = (
    "embed",
    "enc.s0", "enc.s1", "enc.s2", "enc.s3",
    "down",
    "dec.s3", "dec.s2", "dec.s1", "dec.s0",
    "up.kernels", "up.reassemble", "halve", "skip_fuse",
    "head.kernels", "head.reassemble", "head.cls",
)
# spans that own the tape entries recorded inside them
OWNERS = frozenset(MODEL_LAYERS) | {"loss"}
# spans whose self time counts as accounted for in the step
ACCOUNTED = OWNERS | {"data.augment", "optim.step", "metrics.eval"}
UNOWNED = "unowned"


class Tracer:
    def __init__(self, embed_dim: int):
        self.embed_dim = embed_dim
        self.phase = "window"
        self.spans: list[list] = []  # [name, start, end, parent index or -1, phase]
        self._open: list[int] = []
        self._owners: list[str] = []
        self._marks = weakref.WeakKeyDictionary()  # Tape -> [(entry index, owner)]
        # per phase: owner -> [backward seconds, tape entries, retained output bytes]
        self.tape_stats = defaultdict(lambda: defaultdict(lambda: [0.0, 0, 0]))
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------

    def parent_name(self) -> str | None:
        return self.spans[self._open[-1]][0] if self._open else None

    def _mark(self, owner: str | None) -> None:
        tape = Tape.active()
        if tape is not None:
            self._marks.setdefault(tape, []).append((len(tape.entries), owner))

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = [name, 0.0, 0.0, parent, self.phase]
        self.spans.append(span)
        self._open.append(idx)
        owner = name in OWNERS
        if owner:
            self._owners.append(name)
            self._mark(name)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            if owner:
                self._owners.pop()
                self._mark(self._owners[-1] if self._owners else None)

    # -- installation ------------------------------------------------------------

    def _patch(self, obj, attr: str, make) -> None:
        orig = getattr(obj, attr)
        self._undo.append((obj, attr, orig))
        setattr(obj, attr, make(orig))

    def _named(self, name: str):
        return lambda orig: lambda *a, **k: self.call(name, orig, *a, **k)

    def install(self) -> None:
        named = self._named
        for attr, name in (
            ("forward", "forward"), ("encode", "encode"), ("decode", "decode"), ("head", "head"),
            ("token_embed", "embed"), ("downsample", "down"), ("skip_fuse", "skip_fuse"),
        ):
            self._patch(network.Model, attr, named(name))
        self._patch(network, "cswin_block", self._wrap_block)
        self._patch(network, "conv2d", self._wrap_conv)
        for attr, suffix in (("predict_kernels", "kernels"), ("reassemble", "reassemble")):
            self._patch(carafe, attr, self._wrap_upsampler(suffix))
        for attr in ("dice_loss", "cross_entropy_loss"):
            self._patch(train, attr, named("loss"))
        self._patch(train, "augment", named("data.augment"))
        self._patch(train, "evaluate_masks", named("metrics.eval"))
        self._patch(train, "backward", self._wrap_backward)
        self._patch(optim.SGD, "step", named("optim.step"))
        self._patch(checkpoint, "save_checkpoint", named("checkpoint.save"))
        self._patch(checkpoint, "restore_model", named("checkpoint.load"))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def _wrap_block(self, orig):
        def block(x, params, config):
            stage = (config.channels // self.embed_dim).bit_length() - 1
            side = "enc" if self.parent_name() == "encode" else "dec"
            return self.call(f"{side}.s{stage}", orig, x, params, config)

        return block

    def _wrap_conv(self, orig):
        # only the 1x1 convs decode and head call directly; the others run
        # inside their own layer span
        names = {"decode": "halve", "head": "head.cls"}

        def conv(*args, **kwargs):
            name = names.get(self.parent_name())
            if name is None:
                return orig(*args, **kwargs)
            return self.call(name, orig, *args, **kwargs)

        return conv

    def _wrap_upsampler(self, suffix: str):
        def make(orig):
            def upsampler(*args, **kwargs):
                side = "head" if self.parent_name() == "head" else "up"
                return self.call(f"{side}.{suffix}", orig, *args, **kwargs)

            return upsampler

        return make

    def _wrap_backward(self, orig):
        def backward(loss, tape):
            marks = self._marks.pop(tape, [])
            stats = self.tape_stats[self.phase]
            entries, owner, m = [], UNOWNED, 0
            for i, (inputs, out, grad_fn, op) in enumerate(tape.entries):
                while m < len(marks) and marks[m][0] <= i:
                    owner = marks[m][1] or UNOWNED
                    m += 1
                s = stats[owner]
                s[1] += 1
                s[2] += out.data.nbytes
                entries.append((inputs, out, _timed(grad_fn, s), op))
            tape.entries = entries
            return self.call("backward", orig, loss, tape)

        return backward

    # -- results -----------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "phase"],
                    "spans": self.spans,
                    "tape": {ph: dict(st) for ph, st in self.tape_stats.items()},
                },
                f,
            )


def _timed(grad_fn, stat):
    def timed(g):
        t0 = time.perf_counter()
        out = grad_fn(g)
        stat[0] += time.perf_counter() - t0
        return out

    return timed
